"""Analytics for the limiting spectral law of normalized sample covariances.

For aspect ratio rho = lim p/n the limit law on [0, infinity) has density

    f(x) = sqrt((b - x)(x - a)) / (2 pi x rho)   on [a, b],

with edges a = (1 - sqrt(rho))^2, b = (1 + sqrt(rho))^2, plus a point mass
max(1 - 1/rho, 0) at zero when rho > 1.  The cumulative distribution has
the closed form of Bai & Silverstein (2010, section 3.1) and the
Cauchy-Stieltjes transform is a root of a quadratic; both are cross-checked
against direct quadrature (``cdf_quadrature``, ``stieltjes_quadrature``) in
the tests.  The moments are still integrated numerically.  scipy is imported
only by the quadrature paths, so the closed forms load without it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .matcore import DomainError, require_upper_half

# Quadrature accuracy for the cdf oracle and the moments; comfortably below
# the 1e-8 the consumers rely on.
_QUAD_EPS = 1e-11
_QUAD_LIMIT = 200

MAX_MOMENT = 4


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

    def _theta_integral(self, theta_hi: float, power: int) -> float:
        """Integral of x^power dF over [a, x(theta_hi)] in edge-regular form.

        Substituting x = a + (b - a) sin^2(theta) turns the square-root edge
        singularities into a smooth integrand:

            dF = (b - a)^2 / (pi rho) * sin^2 cos^2 / x  dtheta.
        """
        a, b = self.a, self.b
        width = b - a
        coeff = width * width / (np.pi * self.rho)

        def integrand(theta: float) -> float:
            s2 = np.sin(theta) ** 2
            x = a + width * s2
            base = coeff * s2 * (1.0 - s2)
            if power == 0:
                return base / x
            return base * x ** (power - 1)

        if theta_hi <= 0.0:
            return 0.0
        from scipy.integrate import quad

        pts = self._layer_points(theta_hi) if power == 0 else None
        val, _err = quad(
            integrand, 0.0, theta_hi, epsabs=_QUAD_EPS, epsrel=_QUAD_EPS,
            limit=_QUAD_LIMIT, points=pts,
        )
        return val

    def _layer_points(self, theta_hi: float) -> list[float] | None:
        """Quadrature split points resolving the 1/x boundary layer.

        For rho near 1 the lower edge a is tiny but positive, and integrands
        carrying a 1/x factor turn over within theta ~ sqrt(a / (b - a)) of
        the origin — far below the default subdivision scale, so the
        adaptive rule needs seeding there.
        """
        a, width = self.a, self.b - self.a
        if a <= 0.0:
            return None
        layer = float(np.arcsin(min(1.0, np.sqrt(a / width))))
        pts = [t for t in (layer, 8.0 * layer, 64.0 * layer) if 0.0 < t < theta_hi]
        return pts or None

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
        if x >= self.b:
            return self.atom0 + self._theta_integral(np.pi / 2.0, 0)
        ratio = min(1.0, max(0.0, (x - self.a) / (self.b - self.a)))
        theta = float(np.arcsin(np.sqrt(ratio)))
        return self.atom0 + self._theta_integral(theta, 0)

    def moment(self, k: int) -> float:
        """k-th moment, 0 <= k <= 4, by quadrature plus the atom term."""
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
            raise DomainError(f"moment order must be an integer, got {k!r}")
        if not (0 <= k <= MAX_MOMENT):
            raise DomainError(f"moment order must be in [0, {MAX_MOMENT}], got {k}")
        atom_part = self.atom0 if k == 0 else 0.0
        return atom_part + self._theta_integral(np.pi / 2.0, int(k))

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
        """Reference transform by direct integration; slow but closed-form-free.

        Uses the same edge-regular substitution as the cdf and adds the atom
        contribution atom0 / (0 - z).  Serves as an independent cross-check
        of :meth:`stieltjes`.
        """
        from scipy.integrate import quad

        z = require_upper_half(z)
        a, b = self.a, self.b
        width = b - a
        coeff = width * width / (np.pi * self.rho)

        # 1/(x - z) = conj(x - z) / |x - z|^2, split into real and imaginary
        # integrands so scipy's real quadrature applies to each.
        def weight(theta: float) -> tuple[float, complex]:
            s2 = np.sin(theta) ** 2
            x = a + width * s2
            return coeff * s2 * (1.0 - s2) / x, x - z

        def real_part(theta: float) -> float:
            w, dz = weight(theta)
            return w * dz.real / (dz.real * dz.real + dz.imag * dz.imag)

        def imag_part(theta: float) -> float:
            w, dz = weight(theta)
            return -w * dz.imag / (dz.real * dz.real + dz.imag * dz.imag)

        pts = self._layer_points(np.pi / 2.0)
        re_val, _ = quad(real_part, 0.0, np.pi / 2.0, epsabs=_QUAD_EPS,
                         epsrel=_QUAD_EPS, limit=_QUAD_LIMIT, points=pts)
        im_val, _ = quad(imag_part, 0.0, np.pi / 2.0, epsabs=_QUAD_EPS,
                         epsrel=_QUAD_EPS, limit=_QUAD_LIMIT, points=pts)
        m = complex(re_val, im_val)
        if self.atom0 > 0.0:
            m += self.atom0 / (0.0 - z)
        return m
