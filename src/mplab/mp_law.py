"""Analytics for the limiting spectral law of normalized sample covariances.

For aspect ratio rho = lim p/n the limit law on [0, infinity) has density

    f(x) = sqrt((b - x)(x - a)) / (2 pi x rho)   on [a, b],

with edges a = (1 - sqrt(rho))^2, b = (1 + sqrt(rho))^2, plus a point mass
max(1 - 1/rho, 0) at zero when rho > 1.  The cumulative distribution has
the closed form of Bai & Silverstein (2010, section 3.1), the moments are
Narayana polynomials in rho, and the Cauchy-Stieltjes transform is a root of
a quadratic.  Quadrature serves only as a cross-check of these closed forms
(``cdf_quadrature``, ``stieltjes_quadrature``, ``mass_quadrature``): one
fixed Gauss-Legendre rule in the edge-regular variable theta, where
x = a + (b - a) sin^2(theta), built from numpy alone.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .matcore import DomainError, require_upper_half

# Nodes per panel of the theta rule.
_GL_NODES = 128


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    from numpy.polynomial.legendre import leggauss  # off the paths that never integrate

    return leggauss(_GL_NODES)


@dataclass(frozen=True)
class MPLaw:
    """Limiting spectral distribution for a given aspect ratio rho > 0."""

    rho: float

    def __post_init__(self):
        if not (self.rho > 0 and np.isfinite(self.rho)):
            raise DomainError(f"aspect ratio must be positive and finite, got {self.rho}")
        if not self.b - self.a > 0.0:
            # Far from 1 the edges (1 -+ sqrt(rho))^2 round to one float.
            raise DomainError(f"aspect ratio {self.rho} leaves no support width in float64")

    @property
    def a(self) -> float:
        """Lower edge of the continuous support."""
        return (1.0 - self.rho**0.5) ** 2

    @property
    def b(self) -> float:
        """Upper edge of the continuous support."""
        return (1.0 + self.rho**0.5) ** 2

    @property
    def _width(self) -> float:
        """b - a, as 4 sqrt(rho): the difference of the edges cancels for small rho."""
        return 4.0 * self.rho**0.5

    @property
    def atom0(self) -> float:
        """Mass of the point atom at zero (nonzero only for rho > 1)."""
        return max(1.0 - 1.0 / self.rho, 0.0)

    # -- continuous part ---------------------------------------------------

    def density(self, x: float) -> float:
        """Density of the continuous part; zero off [a, b] and at x = 0."""
        x = float(x)
        if not np.isfinite(x):
            raise DomainError(f"density argument must be finite, got {x}")
        if x <= 0.0 or x < self.a or x > self.b:
            # By convention the density is 0 at the origin even when a == 0;
            # the edge there integrates fine regardless.
            return 0.0
        rad = (self.b - x) * (x - self.a)
        if rad <= 0.0:
            return 0.0
        return float(np.sqrt(rad) / (2.0 * np.pi * x * self.rho))

    @staticmethod
    def _theta_rule(f: Callable[[np.ndarray], np.ndarray], theta_hi: float,
                    points: Sequence[float]) -> float | complex:
        """Integral of f over [0, theta_hi] by composite Gauss-Legendre.

        One panel of ``_GL_NODES`` nodes runs between consecutive split
        points; points outside (0, theta_hi) are dropped.  ``f`` maps an
        array of angles to the integrand's (real or complex) values there.
        """
        nodes, weights = _gauss_legendre()
        inner = [t for t in points if 0.0 < t < theta_hi]
        edges = np.unique(np.array([0.0, *inner, theta_hi]))
        half = np.diff(edges)[:, None] / 2.0
        theta = edges[:-1, None] + half * (nodes + 1.0)
        return np.sum(half * weights * f(theta)).item()

    def _theta_weight(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """dF/dtheta of the continuous part, and x(theta) = a + (b - a) sin^2(theta).

        The substitution smooths the square-root edges:
        dF = (b - a)^2 / (pi rho) * sin^2 cos^2 / x  dtheta.
        """
        width = self._width
        s2 = np.sin(theta) ** 2
        x = self.a + width * s2
        return width * width / (np.pi * self.rho) * s2 * (1.0 - s2) / x, x

    def _layer_points(self) -> list[float]:
        """Split points resolving the 1/x boundary layer.

        For rho near 1 the lower edge a is tiny but positive, and a 1/x
        factor turns over within theta ~ sqrt(a / (b - a)) of the origin,
        far below the scale of one panel.  Its tail a / (a + (b - a) theta^2)
        reaches to pi / 2, so the panels grow from the layer by factors of 8
        all the way up; stopping at 64 layers would leave 4e-9 of the cdf at
        rho = 0.99999.
        """
        a, width = self.a, self._width
        if a <= 0.0:
            return []
        layer = float(np.arcsin(min(1.0, np.sqrt(a / width))))
        points = []
        while layer < np.pi / 2.0:
            points.append(layer)
            layer *= 8.0
        return points

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Right-continuous distribution function, atom at zero included.

        Closed form on [a, b) with s = sqrt((b - x)(x - a)):

            F(x) = (pi rho + s - (1 + rho) atan((1 + rho - x) / s)
                    + |1 - rho| atan(((1 - rho)^2 - (1 + rho) x) / (|1 - rho| s)))
                   / (2 pi rho)  [+ atom0 / 2 when rho > 1],

        which is the textbook form in r = sqrt((b - x) / (x - a)) with the
        ratios multiplied through by sqrt(x - a), so nothing overflows at the
        edges; ``arctan2`` gives the limits at s = 0, and at rho = 1 the
        second arctangent carries a zero weight.  A scalar argument returns a
        float and an array argument an array of the same shape.

        Rounding is amplified by 1/rho: against :meth:`cdf_quadrature` the
        error is about 2e-12 at rho = 1/4096 (the CLI's smallest ratio), 1.4e-8
        at 1e-6 and 9e-3 at 1e-10, and near 1e-15 for rho >= 1.
        """
        xs = np.asarray(x, dtype=np.float64)
        if np.isnan(xs).any():
            raise DomainError("cdf argument must not be NaN")
        rho, a, b = self.rho, self.a, self.b
        xi = np.clip(xs, a, b)
        s = np.sqrt((b - xi) * (xi - a))
        gap = abs(1.0 - rho)
        body = (
            np.pi * rho + s
            - (1.0 + rho) * np.arctan2(1.0 + rho - xi, s)
            + gap * np.arctan2((1.0 - rho) ** 2 - (1.0 + rho) * xi, gap * s)
        ) / (2.0 * np.pi * rho)
        if rho > 1.0:
            body = body + self.atom0 / 2.0
        out = np.where(xs < a, np.where(xs < 0.0, 0.0, self.atom0),
                       np.where(xs < b, body, 1.0))
        return float(out) if out.ndim == 0 else out

    def cdf_quadrature(self, x: float) -> float:
        """Reference cdf by quadrature of the edge-regular integrand.

        Slow; serves as the independent oracle for :meth:`cdf`.
        """
        x = float(x)
        if np.isnan(x):
            raise DomainError("cdf argument must not be NaN")
        if x < 0.0:
            return 0.0
        if x < self.a:
            return self.atom0
        ratio = min(1.0, max(0.0, (x - self.a) / self._width))
        theta = np.pi / 2.0 if x >= self.b else float(np.arcsin(np.sqrt(ratio)))
        return self.atom0 + self._theta_rule(
            lambda t: self._theta_weight(t)[0], theta, self._layer_points())

    def mass_quadrature(self) -> float:
        """Mass of the continuous part by quadrature of :meth:`density` itself.

        The density is evaluated pointwise at x(theta), times dx/dtheta =
        (b - a) sin(2 theta): a check of the density formula that shares no
        weight with the other oracles.
        """
        width, density = self._width, np.vectorize(self.density, otypes=[float])

        def integrand(theta: np.ndarray) -> np.ndarray:
            return density(self.a + width * np.sin(theta) ** 2) * (width * np.sin(2.0 * theta))

        return self._theta_rule(integrand, np.pi / 2.0, self._layer_points())

    def moment(self, k: int) -> float:
        """k-th moment, for any integer k >= 0, as a Narayana polynomial in rho.

        m_k = sum_{r < k} rho^r / (r + 1) * C(k, r) * C(k - 1, r) (Bai &
        Silverstein 2010, section 3.1) holds for rho > 1 too, since the atom
        at zero adds nothing for k >= 1; its r = 0 term is 1 = m_0.  A moment
        past the float range raises OverflowError.
        """
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
            raise DomainError(f"moment order must be an integer >= 0, got {k!r}")
        # C(k, r) C(k - 1, r) / (r + 1) is the integer Narayana number N(k, r + 1).
        return float(1 + sum(math.comb(k, r) * math.comb(k - 1, r) // (r + 1) * self.rho**r
                             for r in range(1, k)))

    # -- Cauchy-Stieltjes transform -----------------------------------------

    def stieltjes(self, z: complex) -> complex:
        """Closed-form transform m(z) = int dF(x) / (x - z) for im(z) > 0.

        m solves rho z m^2 + (z + rho - 1) m + 1 = 0; the physical root is
        the one with positive imaginary part.  The quadratic is solved in the
        cancellation-free form so the large-|z| tail stays accurate.
        """
        z = require_upper_half(z)
        qa = self.rho * z
        qb = z + self.rho - 1.0
        disc = cmath.sqrt(qb * qb - 4.0 * qa)
        # Align the root of the discriminant with qb to avoid cancellation.
        if (qb.conjugate() * disc).real < 0.0:
            disc = -disc
        qq = -(qb + disc) / 2.0
        root1 = qq / qa
        root2 = 1.0 / qq
        m = root1 if root1.imag >= root2.imag else root2
        # For im(z) > 0 exactly one root lies in the upper half plane.
        assert m.imag > 0.0, f"no upper-half-plane root at z={z}"
        return m

    def stieltjes_quadrature(self, z: complex) -> complex:
        """Reference transform by direct integration, the oracle of :meth:`stieltjes`.

        Integrates dF / (x - z) in theta and adds the atom's atom0 / (0 - z).
        For a < re(z) < b the integrand peaks at theta_0 = theta(re z) with
        width delta = im(z) / ((b - a) sin 2 theta_0): panels are graded
        toward it at theta_0 +- {0, 1, 8, 64} delta.
        """
        z = require_upper_half(z)
        points = self._layer_points()
        if self.a < z.real < self.b:
            theta0 = float(np.arcsin(np.sqrt(min(1.0, (z.real - self.a) / self._width))))
            delta = z.imag / (self._width * np.sin(2.0 * theta0))
            points += [theta0 + k * delta for k in (-64, -8, -1, 0, 1, 8, 64)]

        def integrand(theta: np.ndarray) -> np.ndarray:
            weight, x = self._theta_weight(theta)
            return weight / (x - z)

        m = complex(self._theta_rule(integrand, np.pi / 2.0, points))
        if self.atom0 > 0.0:
            m += self.atom0 / (0.0 - z)
        return m
