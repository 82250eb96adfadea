"""Concentration diagnostics for random-vector models.

The spectral behavior of sample covariances is governed by a handful of
scalar statistics of the column distribution.  This module gives one draw
of each; the Monte Carlo loop over draws is the CLI's trial runner
(``mplab.cli.experiments.run_experiment``):

* the truncated-second-moment (small-tail) statistic
  (1/p) sum_k X_k^2 1{|X_k| > eps sqrt(p)}, whose mean vanishing is the
  iid-entry dividing line;
* centered quadratic forms (x^T A x - tr(Sigma A)) / p over families of test
  matrices with a uniform operator-norm bound;
* the Chebyshev-type exceedance bound for Gaussian columns implied by the
  covariance spread tr(Sigma^2) / p^2 = ``model.cov.square_trace(p) / p**2``;
* the squared-norm drift (x^T x - p) / p for isotropic models;
* single trials of the projected-spectrum experiment: compress a sample
  covariance along a frame and measure the Kolmogorov distance to the limit
  law of the compressed aspect ratio.  Standard Gaussian data is compressed
  in law: C X is itself a q-by-n standard Gaussian draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore, spectra
from .ensembles import (
    GaussianCov, Identity, IIDGaussian, ParseError, VectorModel, _check_dim,
    sample_data_matrix, sample_vector,
)
from .matcore import DomainError
from .mp_law import MPLaw


# ---------------------------------------------------------------------------
# test-matrix families
#
# A family owns its behaviour: ``draw(p, rng)`` is one symmetric draw in
# dimension p in its cheapest exact form (the diagonal as a 1-d array for the
# fixed families, otherwise dense), ``random`` says whether draws consume the
# stream (a fixed family ignores ``rng``, so None will do), ``norm_bound`` is
# the uniform operator-norm bound every draw satisfies and ``spec()`` its
# grammar string.


class _Family:
    """Defaults shared by the families; subclasses set ``draw`` and ``name`` or ``spec``."""

    random = True
    norm_bound = 1.0

    def spec(self) -> str:
        return self.name


@dataclass(frozen=True)
class IdentityFamily(_Family):
    """A = I_p (deterministic)."""

    name = "identity"
    random = False

    def draw(self, p: int, rng: np.random.Generator | None) -> np.ndarray:
        return np.ones(p)


@dataclass(frozen=True)
class HaarProjectorFamily(_Family):
    """Orthogonal projector onto a uniformly random q-dimensional subspace."""

    q: int

    def draw(self, p: int, rng: np.random.Generator) -> np.ndarray:
        if not (1 <= self.q <= p):
            raise DomainError(f"projector rank {self.q} out of range for p={p}")
        # A product of a matrix with its own transpose is computed as one
        # triangle and mirrored, so these Gram draws are exactly symmetric.
        c = matcore.haar_frame(self.q, p, rng)
        return c.T @ c

    def spec(self) -> str:
        return f"haar-proj:{self.q}"


@dataclass(frozen=True)
class FixedHalfProjectorFamily(_Family):
    """Deterministic projector onto the first floor(p/2) coordinates."""

    name = "fixed-half"
    random = False

    def draw(self, p: int, rng: np.random.Generator | None) -> np.ndarray:
        d = np.zeros(p)
        d[: p // 2] = 1.0
        return d


@dataclass(frozen=True)
class RandomPSDFamily(_Family):
    """Wishart-type PSD matrix rescaled to unit operator norm."""

    name = "random-psd"

    def draw(self, p: int, rng: np.random.Generator) -> np.ndarray:
        g = rng.standard_normal((p, p))
        w = g @ g.T
        return w / matcore.spectral_norm(w)


@dataclass(frozen=True)
class SquaredResolventFamily(_Family):
    """Real part of (C - z I)^{-2} for a random PSD C; norm bound 1/im(z)^2."""

    z: complex

    def __post_init__(self):
        z = matcore.require_upper_half(self.z)
        if z.imag ** 2 == 0.0:
            raise DomainError(f"im(z)^2 underflows to 0 for z={z}; the norm bound is undefined")
        object.__setattr__(self, "z", z)

    @property
    def norm_bound(self) -> float:
        return 1.0 / self.z.imag ** 2

    def draw(self, p: int, rng: np.random.Generator) -> np.ndarray:
        g = rng.standard_normal((p, p))
        base = matcore.eigh(g @ g.T / p)
        diag = np.real(1.0 / (base.eigenvalues - self.z) ** 2)
        return matcore.as_symmetric((base.eigenvectors * diag) @ base.eigenvectors.T)

    def spec(self) -> str:
        return f"sq-resolvent:{self.z.real!r},{self.z.imag!r}"


MatrixFamily = (
    IdentityFamily
    | HaarProjectorFamily
    | FixedHalfProjectorFamily
    | RandomPSDFamily
    | SquaredResolventFamily
)


def parse_family_spec(text: str) -> MatrixFamily:
    """Parse a family spec string; the inverse of ``family.spec()``.

    Grammar: identity | haar-proj:q | fixed-half | random-psd | sq-resolvent:re,im
    """
    head, _, rest = text.strip().partition(":")
    simple = {cls.name: cls for cls in (IdentityFamily, FixedHalfProjectorFamily, RandomPSDFamily)}
    if head in simple:
        if rest:
            raise ParseError(f"matrix family {head!r} takes no arguments, got {rest!r}")
        return simple[head]()
    try:
        if head == "haar-proj":
            return HaarProjectorFamily(int(rest))
        if head == "sq-resolvent":
            re_s, im_s = rest.split(",")
            return SquaredResolventFamily(complex(float(re_s), float(im_s)))
    except (ValueError, DomainError) as exc:
        raise ParseError(f"bad matrix-family arguments {rest!r}") from exc
    raise ParseError(f"unknown matrix family {head!r}")


# ---------------------------------------------------------------------------
# scalar statistics


def lindeberg_trial(model: VectorModel, p: int, eps: float, rng: np.random.Generator) -> float:
    """One draw of (1/p) sum_k X_k^2 1{|X_k| > eps sqrt(p)}."""
    x = sample_vector(model, p, rng)
    x2 = x * x
    return float(np.sum(x2[np.abs(x) > eps * np.sqrt(float(p))])) / p


def quadform_sigma(model: VectorModel, family: MatrixFamily, p: int) -> np.ndarray | None:
    """Sigma to center family's draws: None for I, diag(Sigma) for a fixed family, else dense."""
    if model.isotropic:
        return None
    return model.cov.matrix(p) if family.random else model.cov.diagonal(p)


def quadform_trial(
    model: VectorModel, a: np.ndarray, sigma: np.ndarray | None, rng: np.random.Generator
) -> float:
    """One draw of the centered quadratic form (x^T A x - tr(Sigma A)) / p.

    ``a`` is dense or, for a diagonal A, its 1-d diagonal (an O(p) trial).
    ``sigma`` comes from ``quadform_sigma``, in the form of ``a``; None centers by tr(A).
    """
    p = a.shape[0]
    x = sample_vector(model, p, rng)
    if a.ndim == 1:
        ax = a * x
        centering = np.sum(a) if sigma is None else sigma @ a
    else:
        ax = a @ x
        centering = np.trace(a) if sigma is None else np.tensordot(sigma, a)
    return (float(x @ ax) - float(centering)) / p


def chebyshev_bound(family: MatrixFamily, spread: float, eps: float) -> float:
    """Chebyshev bound on P(|x^T A x - tr(Sigma A)| / p > eps) for Gaussian x.

    For x ~ N(0, Sigma) and symmetric A, Var(x^T A x) = 2 tr((Sigma A)^2)
    <= 2 ||A||^2 tr(Sigma^2), so the exceedance probability is at most
    2 ||A||^2 tr(Sigma^2) / (eps p)^2 <= 2 B^2 spread / eps^2, with B the
    family's norm bound and spread = tr(Sigma^2) / p^2.  The right side holds
    for every draw of A, so it also bounds a mixture over random draws of A
    made independently of x.  Dividing by eps twice keeps a tiny eps from
    underflowing eps^2 to zero; the cap keeps the bound finite.
    """
    b = family.norm_bound
    return min(2.0 * b * b * spread / eps / eps, 1e300)


def require_isotropic(model: VectorModel) -> None:
    """Reject models the squared-norm drift is not defined for."""
    if not model.isotropic:
        raise DomainError("squared-norm drift is defined for isotropic models only")


def norm_drift_stat(model: VectorModel, p: int, rng: np.random.Generator) -> float:
    """Squared-norm drift (x^T x - p) / p; defined for isotropic models."""
    require_isotropic(model)
    x = sample_vector(model, p, rng)
    return (float(x @ x) - p) / p


#: The models whose columns are N(0, I_p).
_STANDARD_GAUSSIAN = (IIDGaussian(), GaussianCov(Identity()))


def mp_property_trial(
    model: VectorModel,
    p: int,
    n: int,
    q: int,
    rng: np.random.Generator,
    frame_mode: str = "haar",
) -> float:
    """One projected-spectrum trial: KS distance of the compressed ESD.

    Compresses a p-by-n data matrix X along a q-by-p frame C (Haar-random or
    the fixed first-q-coordinates frame) and returns the Kolmogorov distance
    of the ESD of (C X)(C X)^T / n to the limit law with ratio q/n.  The data
    is compressed before the Gram is formed, so no p-by-p matrix is built:
    (C X)(C X)^T / n equals C (X X^T / n) C^T up to rounding.  The coordinate
    frame keeps the first q rows: the model's ``sample_esd`` with q rows.  So
    does a Haar frame for standard Gaussian data, as C x ~ N(0, I_q) for every
    C with orthonormal rows: no frame is drawn.
    """
    for d in (p, n, q):
        _check_dim(d)
    if q > p:
        raise DomainError(f"need 1 <= q <= p, got q={q}, p={p}")
    if frame_mode not in ("haar", "fixed-half"):
        raise DomainError(f"unknown frame mode {frame_mode!r}")
    if frame_mode == "fixed-half" or model in _STANDARD_GAUSSIAN:
        e = model.sample_esd(p, n, rng, q)
    else:
        # The frame is orthonormal by construction, so it is not re-validated.
        e = spectra.gram_esd(*spectra.gram(
            matcore.haar_frame(q, p, rng) @ sample_data_matrix(model, p, n, rng)))
    return spectra.ks_distance(e, MPLaw(q / n))


# ---------------------------------------------------------------------------
# helpers


def standard_error(vals: np.ndarray) -> float:
    """Standard error of the mean of vals; inf below two values, where no spread is seen."""
    n = vals.size
    return float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
