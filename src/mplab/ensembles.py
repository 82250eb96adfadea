"""Random-vector ensembles and their population covariances.

Each model produces isotropic or structured p-dimensional vectors used as
columns of data matrices.  The menu is chosen to straddle the boundary of
sample-covariance universality:

* ``IIDRademacher`` - iid signs, classical well-behaved entries;
* ``IIDSparseSpike`` - entries are +-sqrt(p) with probability 1/(2p) each,
  else 0: unit variance but mass escaping to the scale sqrt(p), the standard
  way to break the small-tail (Lindeberg-type) condition;
* ``BlockXi`` - sqrt(2) * (z*xi, z*(1-xi)) with one Gaussian half switched on
  by a fair coin: isotropic, yet quadratic forms along fixed coordinate
  blocks refuse to concentrate;
* ``GaussianCov`` - centered Gaussian with a structured covariance; with
  ``Identity()`` (``iid-gauss``) it is the standard Gaussian positive control;
* ``WeakDependent`` - finite moving average over iid sign innovations,
  normalized to unit marginal variance.

A model is one class that owns its behaviour: ``sample`` draws a whole data
matrix, ``sample_blocks`` the eigenproblem of its first q rows for
``spectra.block_esds`` (from the drawn nonzeros for sparse-spike, in law for
standard Gaussian data), ``cov`` is the
covariance spec of the exact E[x x^T] (its Gaussian twin is
``GaussianCov(model.cov)``), ``spec`` its grammar string and ``isotropic``
whether the covariance is the identity.  Covariance specs own the algebra of
Sigma the same way: ``matrix``, ``color`` (F g for an exact factor F F^T =
Sigma, which draws every non-isotropic model), ``width`` (the innovations F
reads), ``diagonal``, ``square_trace`` (tr Sigma^2) and ``spec``.

All sampling is driven by explicit counter-based generators derived from
(seed, label path) so that any trial of any experiment can be replayed in
isolation and parallel dispatch cannot perturb the draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectra
from .matcore import DomainError


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
#
# ``color(g)`` maps a standard draw g, a width(p)-by-n matrix of iid unit
# innovations, to F g for an exact factor F F^T = Sigma, column by column:
# g itself for the identity, a diagonal scaling, the AR(1) recursion of the
# Toeplitz Cholesky factor, or a moving-average filter.  Only the filter reads
# more innovations than rows (``width(p) > p``).  ``diagonal(p)`` and
# ``square_trace(p)`` = tr Sigma^2 are closed forms: no p-by-p array is built.


class _SquareFactor:
    """Specs whose factor F is p-by-p."""

    def width(self, p: int) -> int:
        return p


@dataclass(frozen=True)
class Identity(_SquareFactor):
    """Sigma = I_p."""

    def matrix(self, p: int) -> np.ndarray:
        return np.eye(p)

    def color(self, g: np.ndarray) -> np.ndarray:
        return g

    def diagonal(self, p: int) -> np.ndarray:
        return np.ones(p)

    def square_trace(self, p: int) -> float:
        return float(p)

    def spec(self) -> str:
        return "identity"


@dataclass(frozen=True)
class Spiked(_SquareFactor):
    """Identity with k leading eigenvalues replaced by s >= 0."""

    k: int
    s: float

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"spike count must be >= 1, got {self.k}")
        if not (0 <= self.s < np.inf):
            raise DomainError(f"spike size must be finite and >= 0, got {self.s}")

    def diagonal(self, p: int) -> np.ndarray:
        if self.k > p:
            raise DomainError(f"spike count {self.k} exceeds dimension {p}")
        d = np.ones(p)
        d[: self.k] = self.s
        return d

    def square_trace(self, p: int) -> float:
        d = self.diagonal(p)
        return float(d @ d)

    def matrix(self, p: int) -> np.ndarray:
        return np.diag(self.diagonal(p))

    def color(self, g: np.ndarray) -> np.ndarray:
        return np.sqrt(self.diagonal(g.shape[0]))[:, None] * g

    def spec(self) -> str:
        return f"spiked:{self.k},{self.s!r}"


@dataclass(frozen=True)
class Toeplitz(_SquareFactor):
    """Geometric Toeplitz covariance Sigma_ij = phi^|i-j| with |phi| < 1."""

    phi: float

    def __post_init__(self):
        if not (abs(self.phi) < 1):
            raise DomainError(f"toeplitz parameter must satisfy |phi| < 1, got {self.phi}")

    def matrix(self, p: int) -> np.ndarray:
        idx = np.arange(p)
        return self.phi ** np.abs(idx[:, None] - idx[None, :])

    def color(self, g: np.ndarray) -> np.ndarray:
        """L g for the lower Cholesky factor L, as the AR(1) recursion down the rows.

        x_0 = g_0 and x_k = phi x_{k-1} + sqrt(1 - phi^2) g_k, so every x_k has
        unit variance and x_k, x_j correlate by phi^|k-j|.
        """
        out = np.sqrt((1.0 - self.phi) * (1.0 + self.phi)) * g
        out[0] = g[0]
        for prev, row in zip(out, out[1:]):  # views: prev is the row just updated
            row += self.phi * prev
        return out

    def diagonal(self, p: int) -> np.ndarray:
        return np.ones(p)

    def square_trace(self, p: int) -> float:
        return _band_square_trace(p, 1.0, self.phi ** np.arange(1, p))

    def spec(self) -> str:
        return f"toeplitz:{self.phi!r}"


@dataclass(frozen=True)
class MovingAverage:
    """Covariance of x_i = sum_j c_j e_{i+J-j} over iid unit innovations e, J = order.

    Sigma is the banded Toeplitz matrix of the autocovariances
    gamma_h = sum_j c_j c_{j+h}, and its factor is the filter itself, which
    turns p + J innovations into p rows.  It is the covariance of
    ``WeakDependent`` and not part of the command-line grammar.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise DomainError("need at least one moving-average coefficient")
        if not np.all(np.isfinite(self.coeffs)):
            raise DomainError(f"moving-average coefficients must be finite, got {self.coeffs}")

    def width(self, p: int) -> int:
        return p + len(self.coeffs) - 1

    def color(self, g: np.ndarray) -> np.ndarray:
        c = self.coeffs
        order = len(c) - 1
        p = g.shape[0] - order
        # x_i = sum_j c_j g_{i+order-j}, summed lag by lag in the order of
        # np.convolve(g, c, "valid").
        out = g[:p] * c[order]
        for k in range(1, order + 1):
            out += g[k : k + p] * c[order - k]
        return out

    def autocovariances(self) -> tuple[float, ...]:
        c = np.asarray(self.coeffs)
        return tuple(float(np.sum(c[: c.size - h] * c[h:])) for h in range(c.size))

    def matrix(self, p: int) -> np.ndarray:
        return _band_matrix(self.autocovariances(), p)

    def diagonal(self, p: int) -> np.ndarray:
        return np.full(p, self.autocovariances()[0])

    def square_trace(self, p: int) -> float:
        gammas = self.autocovariances()
        return _band_square_trace(p, gammas[0], np.asarray(gammas[1:p]))

    def spec(self) -> str:
        return "ma:" + ",".join(repr(c) for c in self.coeffs)


CovSpec = Identity | Spiked | Toeplitz | MovingAverage


def _band_matrix(gammas: tuple[float, ...], p: int) -> np.ndarray:
    """The p-by-p banded Toeplitz matrix with autocovariances (gamma_0, gamma_1, ...)."""
    sig = np.zeros((p, p))
    for h, g in enumerate(gammas[:p]):
        # Lag h is the main diagonal of both offset views; + 0.0 stores a
        # -0.0 autocovariance as 0.0, as adding it into zeros did.
        np.fill_diagonal(sig[:, h:], g + 0.0)
        np.fill_diagonal(sig[h:, :], g + 0.0)
    return sig


def _band_square_trace(p: int, gamma0: float, lags: np.ndarray) -> float:
    """tr Sigma^2 = p gamma_0^2 + 2 sum_h (p - h) gamma_h^2 for lags = (gamma_1, gamma_2, ...)."""
    h = np.arange(1, lags.size + 1)
    return float(p * (gamma0 * gamma0) + 2.0 * np.sum((p - h) * (lags * lags)))


# ---------------------------------------------------------------------------
# vector models
#
# ``sample(p, n, rng)`` returns a C-contiguous p-by-n matrix of iid columns
# that, but for sparse-spike's, consume the stream exactly as n one-column
# draws in a row would; rows of an n-by-p draw become its columns.  Callers go
# through ``sample_data_matrix``, which validates the dimensions.


#: Size of one row block of an n-by-p draw, so the draw is never held whole.
#: Freed blocks stay resident in each worker thread's malloc arena.
_BLOCK_BYTES = 256 << 10


def _columns(p: int, n: int, draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """C-contiguous p-by-n matrix whose columns are the rows of successive draws.

    ``draw(m)`` returns the next m-by-p row block of the stream, about 256 KiB,
    and its rows are written into the next m columns; the result equals one
    n-by-p draw transposed, bit for bit.
    """
    out = np.empty((p, n))
    step = max(1, _BLOCK_BYTES // (8 * p))
    for start in range(0, n, step):
        out[:, start:start + step] = draw(min(step, n - start)).T
    return out


def _signs(rows: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """rows-by-n matrix of iid symmetric signs, drawn column after column."""
    return _columns(rows, n, lambda m: rng.integers(0, 2, size=(m, rows)) * 2.0 - 1.0)


def _half(p: int) -> int:
    if p % 2 != 0:
        raise DomainError(f"block model needs even dimension, got {p}")
    return p // 2


def _esd_rows(p: int, q: int | None) -> int:
    """q, or p when None: the first rows whose problem ``sample_blocks`` draws, checked 1 <= q <= p."""
    if q is not None and not (isinstance(q, (int, np.integer)) and q is not True and 1 <= q <= p):
        raise DomainError(f"need an integer 1 <= q <= p, got q={q!r}, p={p}")
    return p if q is None else q


class _Dense:
    """Models whose eigenproblem is ``spectra.blocks`` of the first q rows of their draw."""

    def sample_blocks(self, p: int, n: int, rng: np.random.Generator, q: int | None = None) -> tuple:
        q = _esd_rows(p, q)
        return spectra.blocks(self.sample(p, n, rng)[:q])


class _Isotropic(_Dense):
    """Models with identity covariance; subclasses set ``name`` and ``sample``."""

    isotropic = True
    cov = Identity()

    def spec(self) -> str:
        return self.name


@dataclass(frozen=True)
class IIDRademacher(_Isotropic):
    """iid symmetric sign entries."""

    name = "iid-rademacher"

    def sample(self, p: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return _signs(p, n, rng)


@dataclass(frozen=True)
class IIDSparseSpike(_Isotropic):
    """iid entries: +-sqrt(p) with probability 1/(2p) each, else 0, drawn as ``nonzeros``."""

    name = "sparse-spike"

    def nonzeros(self, p: int, n: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        """Rows, columns and values of the nonzeros of a p-by-n draw, in column-major order.

        A Binomial(p n, 1/p) count at a uniform subset of positions, with fair signs: iid.
        """
        flat = np.sort(rng.choice(p * n, rng.binomial(p * n, 1 / p), replace=False, shuffle=False))
        cols, rows = np.divmod(flat, p)
        return rows, cols, np.sqrt(float(p)) * (rng.integers(0, 2, flat.size) * 2.0 - 1.0)

    def sample(self, p: int, n: int, rng: np.random.Generator) -> np.ndarray:
        rows, cols, vals = self.nonzeros(p, n, rng)
        out = np.zeros((p, n))
        out[rows, cols] = vals
        return out

    def sample_blocks(self, p: int, n: int, rng: np.random.Generator, q: int | None = None) -> tuple:
        q = _esd_rows(p, q)
        rows, cols, vals = self.nonzeros(p, n, rng)
        keep = rows < q
        return spectra.nonzero_blocks(rows[keep], cols[keep], vals[keep], q, n)


@dataclass(frozen=True)
class BlockXi(_Isotropic):
    """sqrt(2) * (z * xi, z * (1 - xi)), z Gaussian in R^{p/2}, xi a fair coin.

    Isotropic by construction, but the squared mass sits entirely in one
    coordinate half chosen by xi, so quadratic forms along the fixed halves
    jump between two values instead of concentrating.  Requires even p.
    """

    name = "block-xi"

    def sample(self, p: int, n: int, rng: np.random.Generator) -> np.ndarray:
        q = _half(p)
        out = np.zeros((p, n))
        # Each column's coin precedes its Gaussian half in the stream, so the
        # columns are drawn one at a time.
        for k in range(n):
            rows = slice(0, q) if rng.integers(0, 2) else slice(q, p)
            out[rows, k] = rng.standard_normal(q) * np.sqrt(2.0)
        return out


def _laguerre_draw(p: int, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Squares c2, s2 of the Laguerre bidiagonal B (Dumitriu & Edelman 2002).

    Chi-square with max(p, n), max(p, n) - 1, ... and min(p, n) - 1, ..., 1 degrees of
    freedom: B B^T / n has the nonzero spectrum of standard Gaussian Z Z^T / n in law.
    """
    m, big = min(p, n), max(p, n)
    c2 = rng.chisquare(np.arange(big, big - m, -1.0))
    return c2, rng.chisquare(np.arange(m - 1.0, 0.0, -1.0))


@dataclass(frozen=True)
class GaussianCov(_Dense):
    """Centered Gaussian with covariance given by a CovSpec: its factor on Gaussian innovations."""

    cov: CovSpec

    @property
    def isotropic(self) -> bool:
        return self.cov == Identity()

    def sample(self, p: int, n: int, rng: np.random.Generator) -> np.ndarray:
        w = self.cov.width(p)
        return self.cov.color(_columns(w, n, lambda m: rng.standard_normal((m, w))))

    def sample_blocks(self, p: int, n: int, rng: np.random.Generator, q: int | None = None) -> tuple:
        """The first q rows' problem; when isotropic, in law: T = B B^T / n, B from ``_laguerre_draw(q, n)``.

        The tridiagonal T is one block: connected almost surely, and solved
        right whole either way.
        """
        if not self.isotropic:
            return super().sample_blocks(p, n, rng, q)
        q = _esd_rows(p, q)
        c2, s2 = _laguerre_draw(q, n, rng)
        t = np.diag((c2 + np.concatenate(([0.0], s2))) / n)
        t.flat[1::c2.size + 1] = t.flat[c2.size::c2.size + 1] = np.sqrt(c2[:-1] * s2) / n
        return [t], q, ()

    def spec(self) -> str:
        return f"gauss-cov:{self.cov.spec()}"


@dataclass(frozen=True)
class WeakDependent(_Dense):
    """Finite moving average X_k = sum_j c_j eps_{k-j} over iid sign innovations.

    Coefficients are normalized at construction so the marginal variance is
    exactly 1.  The covariance is ``MovingAverage(coeffs)``, whose filter also
    draws the model: applied to sign innovations here, and to Gaussian ones
    in the twin ``GaussianCov(model.cov)``.
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

    @property
    def cov(self) -> MovingAverage:
        return MovingAverage(self.coeffs)

    def sample(self, p: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.cov.color(_signs(self.cov.width(p), n, rng))

    def spec(self) -> str:
        return "weak-ma:" + ",".join(repr(c) for c in self.coeffs)


VectorModel = IIDRademacher | IIDSparseSpike | BlockXi | GaussianCov | WeakDependent


def _check_dim(p: int) -> None:
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or p < 1:
        raise DomainError(f"dimension must be a positive integer, got {p!r}")


def sample_data_matrix(model: VectorModel, p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """C-contiguous p-by-n matrix whose columns are independent draws (see ``sample``)."""
    _check_dim(p)
    _check_dim(n)
    return model.sample(p, n, rng)


def sample_vector(model: VectorModel, p: int, rng: np.random.Generator) -> np.ndarray:
    """One draw of the model in dimension p: the one-column data matrix."""
    return sample_data_matrix(model, p, 1, rng)[:, 0]


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
    raise ParseError(f"unknown covariance spec {head!r}")


def parse_model_spec(text: str) -> VectorModel:
    """Parse a model spec string; the inverse of ``model.spec()``.

    Grammar (``iid-gauss`` is ``gauss-cov:identity``, whose ``spec()`` it returns):
        iid-gauss | iid-rademacher | sparse-spike | block-xi
        | gauss-cov:<covspec> | weak-ma:c0,c1,...
    """
    s = text.strip()
    head, _, rest = s.partition(":")
    simple = {cls.name: cls() for cls in (IIDRademacher, IIDSparseSpike, BlockXi)}
    simple["iid-gauss"] = GaussianCov(Identity())
    if head in simple:
        if rest:
            raise ParseError(f"model {head!r} takes no arguments, got {rest!r}")
        return simple[head]
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
