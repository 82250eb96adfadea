"""Random-vector ensembles and their population covariances.

Each model produces isotropic or structured p-dimensional vectors used as
columns of data matrices.  The menu is chosen to straddle the boundary of
sample-covariance universality:

* ``IIDGaussian`` / ``IIDRademacher`` - classical well-behaved entries;
* ``IIDSparseSpike`` - entries are +-sqrt(p) with probability 1/(2p) each,
  else 0: unit variance but mass escaping to the scale sqrt(p), the standard
  way to break the small-tail (Lindeberg-type) condition;
* ``BlockXi`` - sqrt(2) * (z*xi, z*(1-xi)) with one Gaussian half switched on
  by a fair coin: isotropic, yet quadratic forms along fixed coordinate
  blocks refuse to concentrate;
* ``GaussianCov`` - centered Gaussian with a structured covariance;
* ``WeakDependent`` - finite moving average over iid sign innovations,
  normalized to unit marginal variance.

All sampling is driven by explicit counter-based generators derived from
(seed, label path) so that any trial of any experiment can be replayed in
isolation and parallel dispatch cannot perturb the draws.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import DomainError, InvalidInputError


class ParseError(ValueError):
    """Raised when a model/covariance spec string does not parse."""


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based stream for (seed, path).

    Distinct paths give statistically independent Philox streams; the same
    (seed, path) always reproduces the same draws, regardless of how many
    other streams were consumed elsewhere.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in path))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# covariance specs


@dataclass(frozen=True)
class Identity:
    """Sigma = I_p."""


@dataclass(frozen=True)
class Spiked:
    """Identity with k leading eigenvalues replaced by s >= 0."""

    k: int
    s: float

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"spike count must be >= 1, got {self.k}")
        if not (self.s >= 0):
            raise DomainError(f"spike size must be >= 0, got {self.s}")


@dataclass(frozen=True)
class Toeplitz:
    """Geometric Toeplitz covariance Sigma_ij = phi^|i-j| with |phi| < 1."""

    phi: float

    def __post_init__(self):
        if not (abs(self.phi) < 1):
            raise DomainError(f"toeplitz parameter must satisfy |phi| < 1, got {self.phi}")


@dataclass(frozen=True)
class BandToeplitz:
    """Banded Toeplitz covariance from autocovariances (gamma_0, ..., gamma_J).

    Used for the Gaussian twins of moving-average models; not part of the
    command-line grammar.
    """

    gammas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) == 0:
            raise DomainError("need at least gamma_0")


CovSpec = Identity | Spiked | Toeplitz | BandToeplitz


def covariance_matrix(spec: CovSpec, p: int) -> np.ndarray:
    """Dense p-by-p covariance for a spec."""
    _check_dim(p)
    if isinstance(spec, Identity):
        return np.eye(p)
    if isinstance(spec, Spiked):
        if spec.k > p:
            raise DomainError(f"spike count {spec.k} exceeds dimension {p}")
        d = np.ones(p)
        d[: spec.k] = spec.s
        return np.diag(d)
    if isinstance(spec, Toeplitz):
        idx = np.arange(p)
        return spec.phi ** np.abs(idx[:, None] - idx[None, :])
    if isinstance(spec, BandToeplitz):
        sig = np.zeros((p, p))
        for h, g in enumerate(spec.gammas):
            if h >= p:
                break
            sig += g * (np.eye(p, k=h) + (np.eye(p, k=-h) if h else 0.0))
        return sig
    raise InvalidInputError(f"unknown covariance spec {spec!r}")


def cov_sqrt(spec: CovSpec, p: int) -> np.ndarray | None:
    """Principal square root of the covariance; None means identity (skip).

    Diagonal specs take the exact elementwise root; dense specs go through
    the symmetric eigendecomposition, cached per (spec, p).
    """
    if isinstance(spec, Identity):
        return None
    if isinstance(spec, Spiked):
        d = np.ones(p)
        d[: spec.k] = np.sqrt(spec.s)
        return d  # 1-d means diagonal scaling
    return _dense_cov_sqrt(spec, p)


@functools.lru_cache(maxsize=16)
def _dense_cov_sqrt(spec: CovSpec, p: int) -> np.ndarray:
    root = matcore.psd_sqrt(covariance_matrix(spec, p))
    root.flags.writeable = False  # shared by every caller of the cache
    return root


# ---------------------------------------------------------------------------
# vector models


@dataclass(frozen=True)
class IIDGaussian:
    """iid standard normal entries."""

    isotropic = True


@dataclass(frozen=True)
class IIDRademacher:
    """iid symmetric sign entries."""

    isotropic = True


@dataclass(frozen=True)
class IIDSparseSpike:
    """iid entries: +-sqrt(p) with probability 1/(2p) each, else 0."""

    isotropic = True


@dataclass(frozen=True)
class BlockXi:
    """sqrt(2) * (z * xi, z * (1 - xi)), z Gaussian in R^{p/2}, xi a fair coin.

    Isotropic by construction, but the squared mass sits entirely in one
    coordinate half chosen by xi, so quadratic forms along the fixed halves
    jump between two values instead of concentrating.  Requires even p.
    """

    isotropic = True


@dataclass(frozen=True)
class GaussianCov:
    """Centered Gaussian with covariance given by a CovSpec."""

    cov: CovSpec

    @property
    def isotropic(self) -> bool:
        return isinstance(self.cov, Identity)


@dataclass(frozen=True)
class WeakDependent:
    """Finite moving average X_k = sum_j c_j eps_{k-j} over iid sign innovations.

    Coefficients are normalized at construction so the marginal variance is
    exactly 1; the population covariance is the banded Toeplitz matrix of the
    autocovariances gamma_h = sum_j c_j c_{j+h}.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.size == 0 or not np.all(np.isfinite(c)):
            raise DomainError("need a nonempty finite coefficient list")
        if not np.any(c):
            raise DomainError("coefficients must not all vanish")
        # Rescale so the sum of squares is 1 within a few ulps.  Bitwise
        # fixed points need not exist (rescaling can 2-cycle on the last
        # bit), so stop inside a tolerance band; already-normalized lists
        # are then left untouched and spec strings round-trip exactly.
        tol = np.finfo(np.float64).eps * (4.0 + c.size)
        for _ in range(8):
            with np.errstate(over="ignore", under="ignore"):
                norm = float(np.sqrt(np.sum(c * c)))
            if not np.isfinite(norm) or norm == 0.0:
                c = c / np.max(np.abs(c))  # guards over/underflow of c*c
                continue
            if abs(norm - 1.0) <= tol:
                break
            c = c / norm
        object.__setattr__(self, "coeffs", tuple(float(x) for x in c))

    @property
    def isotropic(self) -> bool:
        return len(self.coeffs) == 1

    def autocovariances(self) -> tuple[float, ...]:
        c = np.asarray(self.coeffs)
        return tuple(float(np.sum(c[: c.size - h] * c[h:])) for h in range(c.size))


VectorModel = IIDGaussian | IIDRademacher | IIDSparseSpike | BlockXi | GaussianCov | WeakDependent


def _check_dim(p: int) -> None:
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or p < 1:
        raise DomainError(f"dimension must be a positive integer, got {p!r}")


def sample_vector(model: VectorModel, p: int, rng: np.random.Generator) -> np.ndarray:
    """One draw of the model in dimension p."""
    _check_dim(p)
    if isinstance(model, IIDGaussian):
        return rng.standard_normal(p)
    if isinstance(model, IIDRademacher):
        return rng.integers(0, 2, size=p).astype(np.float64) * 2.0 - 1.0
    if isinstance(model, IIDSparseSpike):
        u = rng.random(p)
        scale = np.sqrt(float(p))
        return scale * ((u < 0.5 / p).astype(np.float64) - (u >= 1.0 - 0.5 / p).astype(np.float64))
    if isinstance(model, BlockXi):
        if p % 2 != 0:
            raise DomainError(f"block model needs even dimension, got {p}")
        q = p // 2
        xi = bool(rng.integers(0, 2))
        z = rng.standard_normal(q) * np.sqrt(2.0)
        x = np.zeros(p)
        if xi:
            x[:q] = z
        else:
            x[q:] = z
        return x
    if isinstance(model, GaussianCov):
        g = rng.standard_normal(p)
        root = cov_sqrt(model.cov, p)
        if root is None:
            return g
        if root.ndim == 1:
            return root * g
        return root @ g
    if isinstance(model, WeakDependent):
        order = len(model.coeffs) - 1
        eps = rng.integers(0, 2, size=p + order).astype(np.float64) * 2.0 - 1.0
        return np.convolve(eps, np.asarray(model.coeffs), mode="valid")
    raise InvalidInputError(f"unknown model {model!r}")


def sample_with_innovations(
    model: WeakDependent, p: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Moving-average draw together with its innovation sequence.

    Returns (x, eps) with eps[i] = eps_{i - order + 1} so that
    x[k] = sum_j c_j * eps[k + order - j].  Consumes the stream exactly like
    ``sample_vector`` does.
    """
    if not isinstance(model, WeakDependent):
        raise InvalidInputError("innovations are only defined for the moving-average model")
    _check_dim(p)
    order = len(model.coeffs) - 1
    eps = rng.integers(0, 2, size=p + order).astype(np.float64) * 2.0 - 1.0
    x = np.convolve(eps, np.asarray(model.coeffs), mode="valid")
    return x, eps


def population_covariance(model: VectorModel, p: int) -> np.ndarray:
    """Exact E[x x^T] for the model in dimension p."""
    _check_dim(p)
    if isinstance(model, (IIDGaussian, IIDRademacher, IIDSparseSpike)):
        return np.eye(p)
    if isinstance(model, BlockXi):
        if p % 2 != 0:
            raise DomainError(f"block model needs even dimension, got {p}")
        return np.eye(p)
    if isinstance(model, GaussianCov):
        return covariance_matrix(model.cov, p)
    if isinstance(model, WeakDependent):
        return covariance_matrix(BandToeplitz(model.autocovariances()), p)
    raise InvalidInputError(f"unknown model {model!r}")


def sample_data_matrix(model: VectorModel, p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """p-by-n matrix whose columns are independent draws, in draw order.

    Columns are drawn sequentially from the supplied stream, so a one-column
    matrix is bitwise the same as a single ``sample_vector`` call.
    """
    _check_dim(p)
    _check_dim(n)
    out = np.empty((p, n))
    for k in range(n):
        out[:, k] = sample_vector(model, p, rng)
    return out


# ---------------------------------------------------------------------------
# spec grammar


def parse_cov_spec(text: str) -> CovSpec:
    """Parse 'identity' | 'spiked:k,s' | 'toeplitz:phi'."""
    head, _, rest = text.strip().partition(":")
    if head == "identity":
        if rest:
            raise ParseError(f"unexpected arguments after 'identity': {rest!r}")
        return Identity()
    if head == "spiked":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ParseError(f"spiked needs 'k,s', got {rest!r}")
        try:
            return Spiked(int(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ParseError(f"bad spiked arguments {rest!r}") from exc
    if head == "toeplitz":
        try:
            return Toeplitz(float(rest))
        except ValueError as exc:
            raise ParseError(f"bad toeplitz argument {rest!r}") from exc
    if head == "band":
        # Internal extension used by Gaussian twins of moving averages.
        try:
            return BandToeplitz(tuple(float(tok) for tok in rest.split(",")))
        except ValueError as exc:
            raise ParseError(f"bad band argument {rest!r}") from exc
    raise ParseError(f"unknown covariance spec {head!r}")


def cov_spec_string(spec: CovSpec) -> str:
    if isinstance(spec, Identity):
        return "identity"
    if isinstance(spec, Spiked):
        return f"spiked:{spec.k},{spec.s!r}"
    if isinstance(spec, Toeplitz):
        return f"toeplitz:{spec.phi!r}"
    if isinstance(spec, BandToeplitz):
        return "band:" + ",".join(repr(g) for g in spec.gammas)
    raise InvalidInputError(f"covariance spec {spec!r} has no string form")


def parse_model_spec(text: str) -> VectorModel:
    """Parse a model spec string.

    Grammar:
        iid-gauss | iid-rademacher | sparse-spike | block-xi
        | gauss-cov:<covspec> | weak-ma:c0,c1,...
    """
    s = text.strip()
    head, _, rest = s.partition(":")
    simple = {
        "iid-gauss": IIDGaussian,
        "iid-rademacher": IIDRademacher,
        "sparse-spike": IIDSparseSpike,
        "block-xi": BlockXi,
    }
    if head in simple:
        if rest:
            raise ParseError(f"model {head!r} takes no arguments, got {rest!r}")
        return simple[head]()
    if head == "gauss-cov":
        if not rest:
            raise ParseError("gauss-cov needs a covariance spec")
        return GaussianCov(parse_cov_spec(rest))
    if head == "weak-ma":
        if not rest:
            raise ParseError("weak-ma needs a coefficient list")
        try:
            coeffs = tuple(float(tok) for tok in rest.split(","))
        except ValueError as exc:
            raise ParseError(f"bad coefficient list {rest!r}") from exc
        return WeakDependent(coeffs)
    raise ParseError(f"unknown model spec {head!r}")


def model_spec_string(model: VectorModel) -> str:
    """Inverse of parse_model_spec (weak-ma serializes its normalized coeffs)."""
    if isinstance(model, IIDGaussian):
        return "iid-gauss"
    if isinstance(model, IIDRademacher):
        return "iid-rademacher"
    if isinstance(model, IIDSparseSpike):
        return "sparse-spike"
    if isinstance(model, BlockXi):
        return "block-xi"
    if isinstance(model, GaussianCov):
        return f"gauss-cov:{cov_spec_string(model.cov)}"
    if isinstance(model, WeakDependent):
        return "weak-ma:" + ",".join(repr(c) for c in model.coeffs)
    raise InvalidInputError(f"unknown model {model!r}")
