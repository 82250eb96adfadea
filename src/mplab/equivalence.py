"""Gaussian-swap experiments on resolvent traces.

The central object is the gap

    Delta = (1/p) [ tr(Xh Xh^T / n + B - z I)^{-1}
                    - tr(Zh Zh^T / n + B - z I)^{-1} ],

where Xh = X + C for a data matrix X drawn from a model, Zh = Z + C for an
independent Gaussian matrix Z whose columns carry the model's population
covariance, B is a fixed symmetric offset and C a fixed column offset.  When
the model's quadratic forms concentrate and its covariance spread vanishes,
Delta tends to zero as p grows; models violating those conditions keep a
visible gap.  Whatever the model, |Delta| <= 2 / im(z) deterministically.
One draw of X and Z gives Delta at every point z of a config.  B = beta I
only shifts the spectrum, so both sides are read at z - beta with no B.  Only
the law of Z's trace enters Delta: when Z is standard Gaussian and C and any
other B are absent, that trace is drawn from the Laguerre tridiagonal model
of Dumitriu & Edelman (2002, "Matrix models for beta ensembles"), and Z is
never formed.  Otherwise each side is one eigenproblem, and both are solved
in one call.

A heterogeneous config assigns each column its own covariance;
``average_spread`` gives the averaged covariance-spread statistic
(1/(n p^2)) sum_k tr(Sigma_k^2), since that quantity controls whether the
swap is valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore, spectra
from .conditions import RandomPSDFamily
from .ensembles import (
    CovSpec,
    GaussianCov,
    Identity,
    ParseError,
    VectorModel,
    derive_rng,
    _check_dim,
    sample_data_matrix,
    _laguerre_draw,
)
from .matcore import DomainError


# ---------------------------------------------------------------------------
# offsets
#
# An offset owns its behaviour: ``spec()`` is its grammar string, and
# ``build`` the dense matrix in dimension p (for a column offset, the p-by-1
# column every column of C equals).  B = beta I has none: it shifts z.


@dataclass(frozen=True)
class ScaledIdentity:
    """B = beta I."""

    beta: float

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise DomainError(f"offset scale must be finite, got {self.beta}")

    def spec(self) -> str:
        return f"id:{self.beta!r}"


@dataclass(frozen=True)
class RandomPSDUnitNorm:
    """A fixed unit-norm PSD offset, generated deterministically from a seed."""

    seed: int

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError(f"offset seed must be non-negative, got {self.seed}")

    def build(self, p: int) -> np.ndarray:
        return RandomPSDFamily().draw(p, derive_rng(self.seed, 0))

    def spec(self) -> str:
        return f"psd:{self.seed}"


BSpec = None | ScaledIdentity | RandomPSDUnitNorm


@dataclass(frozen=True)
class ConstantColumns:
    """Every column of C equals gamma * ones(p) / sqrt(p), so ||C C^T / n|| = gamma^2."""

    gamma: float

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise DomainError(f"column-offset scale must be finite, got {self.gamma}")

    def build(self, p: int) -> np.ndarray:
        return self.gamma * np.ones((p, 1)) / np.sqrt(float(p))

    def spec(self) -> str:
        return f"const:{self.gamma!r}"


CSpec = None | ConstantColumns


@dataclass(frozen=True)
class SwapConfig:
    """Configuration of one Gaussian-swap comparison, read at the points ``zs``."""

    model: VectorModel
    p: int
    n: int
    zs: tuple[complex, ...]
    b_spec: BSpec = None
    c_spec: CSpec = None
    hetero: tuple[CovSpec, ...] | None = None
    #: ``hetero`` grouped by spec, as ``_column_groups`` builds it.
    column_groups: tuple[tuple[CovSpec, np.ndarray], ...] = field(
        default=(), init=False, repr=False, compare=False
    )
    #: beta in B = beta I, else 0.0: both sides are read at z - shift.
    shift: float = field(default=0.0, init=False, repr=False, compare=False)
    #: Whether ``_laguerre_traces`` draws the twin in law.
    twin_in_law: bool = field(default=False, init=False, repr=False, compare=False)
    #: The offsets B (a ``psd:`` p-by-p matrix) and C (its p-by-1 column, which
    #: broadcasts over X), built once and read-only, or None.  They depend on
    #: neither z nor the trial, so every trial of a run shares them, on any
    #: number of threads.
    b: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    c: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_dim(self.p)
        _check_dim(self.n)
        if not self.zs:
            raise DomainError("need at least one resolvent point")
        object.__setattr__(self, "zs", tuple(map(matcore.require_upper_half, self.zs)))
        if self.hetero is not None:
            if len(self.hetero) != self.n:
                raise DomainError(
                    f"per-column covariance list has length {len(self.hetero)}, need n={self.n}"
                )
            if not self.model.isotropic:
                raise DomainError("per-column covariances require an isotropic base model")
            if any(spec.width(self.p) != self.p for spec in self.hetero):
                raise DomainError("per-column covariances need a square factor")
            object.__setattr__(self, "column_groups", _column_groups(self.hetero))
        b_spec = self.b_spec
        if isinstance(b_spec, ScaledIdentity):
            for z in self.zs:
                try:
                    matcore.require_upper_half(z - b_spec.beta)
                except DomainError:
                    raise DomainError(f"resolvent point {z} shifted by offset {b_spec.spec()} "
                                      "is not finite") from None
            object.__setattr__(self, "shift", b_spec.beta)
            b_spec = None  # a shift of z, not a matrix
        for name, spec in (("b", b_spec), ("c", self.c_spec)):
            if spec is not None:
                m = spec.build(self.p)
                m.flags.writeable = False
                object.__setattr__(self, name, m)
        standard = self.model.cov == Identity() and not self.column_groups
        object.__setattr__(self, "twin_in_law", standard and self.b is None and self.c is None)


def parse_offset_spec(text: str) -> BSpec:
    """Grammar for additive offsets: ``id:<beta>`` or ``psd:<seed>``."""
    head, _, rest = text.strip().partition(":")
    try:
        if head == "id":
            return ScaledIdentity(float(rest))
        if head == "psd":
            return RandomPSDUnitNorm(int(rest))
    except ValueError as exc:
        raise ParseError(f"bad offset parameter in {text!r}: {exc}") from None
    raise ParseError(f"unknown offset spec {text!r}")


def parse_column_spec(text: str) -> CSpec:
    """Grammar for column offsets: ``const:<gamma>``."""
    head, _, rest = text.strip().partition(":")
    if head == "const":
        try:
            return ConstantColumns(float(rest))
        except ValueError as exc:
            raise ParseError(f"bad column-offset parameter in {text!r}: {exc}") from None
    raise ParseError(f"unknown column-offset spec {text!r}")


def resolvent_gap(cfg: SwapConfig, rng: np.random.Generator) -> tuple[complex, ...]:
    """One draw of the swap gap Delta, read at every point of cfg.zs in order.

    X is drawn from cfg.model and then Z, sequentially from the given stream.
    Z is the Gaussian twin ``GaussianCov(cfg.model.cov)``.  With per-column
    covariances, column k of X is F_k u_k for an isotropic base draw u_k of
    cfg.model and column k of Z is F_k g_k for standard Gaussian g_k, where
    F_k is the exact factor F_k F_k^T = Sigma_k that ``Sigma_k.color``
    applies.  Both sides share the per-column population covariances
    exactly; with all columns Identity that is the homogeneous gap bit for
    bit.  Both sides are read at z - ``cfg.shift``.  With ``cfg.twin_in_law``
    Z is not drawn: ``_laguerre_draw`` follows X, and ``_laguerre_traces``
    reads the twin from it.  X's problem is formed, and X freed, before Z is
    drawn; a drawn Z's is solved with X's in one call.  |Delta| <= 2 / im(z)
    at each z.
    """
    models = (cfg.model,) if cfg.twin_in_law else (cfg.model, GaussianCov(cfg.model.cov))
    spec_x, *spec_z = spectra.block_esds([_formed(cfg, model, rng) for model in models])
    zs = [z - cfg.shift for z in cfg.zs]
    if cfg.twin_in_law:
        twin = _laguerre_traces(*_laguerre_draw(cfg.p, cfg.n, rng), cfg.p, cfg.n, zs)
    else:
        twin = [matcore.resolvent_trace(spec_z[0], z) for z in zs]
    return tuple(matcore.resolvent_trace(spec_x, z) - t for z, t in zip(zs, twin))


def _laguerre_traces(c2, s2, p: int, n: int, zs) -> list[complex]:
    """(1/p) tr(Z Z^T / n - z I)^{-1} at each z, in law, for standard Gaussian p-by-n Z.

    c2, s2 = ``_laguerre_draw(p, n)`` square the bidiagonal B of T = B B^T / n.
    The pivots d_k of T - z I and their z-derivatives give
    tr(T - z I)^{-1} = -sum_k d_k' / d_k; im d_k <= -im z.
    """
    diag = ((c2 + np.concatenate(([0.0], s2))) / n).tolist()
    off2 = (c2[:-1] * s2 / (n * n)).tolist()
    traces = []
    for z in zs:
        d, dd = diag[0] - z, -1.0
        total = dd / d
        for a, e in zip(diag[1:], off2):
            r = e / d
            d, dd = a - z - r, r * dd / d - 1.0
            total += dd / d
        traces.append(-(total + (p - len(diag)) / z) / p)
    return traces


def _formed(cfg: SwapConfig, model: VectorModel, rng: np.random.Generator):
    """The ``spectra.block_esds`` problem of (X + C)(X + C)^T / n + B for one draw X of ``model``.

    X is colored by cfg's columns and not kept.  With no B matrix, no C and no
    colored column the problem is the model's own ``sample_blocks``.  B is
    PSD, so S + B is too, and its eigenvalues may be clamped.
    """
    if cfg.b is None and cfg.c is None and not cfg.column_groups:
        return model.sample_blocks(cfg.p, cfg.n, rng)
    x = sample_data_matrix(model, cfg.p, cfg.n, rng)
    _scale_each_column(cfg.column_groups, x)
    if cfg.c is not None:
        x += cfg.c
    if cfg.b is None:
        return spectra.blocks(x)
    return [spectra.sample_covariance(x) + cfg.b], cfg.p, ()


def _column_groups(covs: tuple[CovSpec, ...]) -> tuple[tuple[CovSpec, np.ndarray], ...]:
    """Each distinct spec of ``covs`` but the identity, with its column indices.

    Specs come in first-seen order; identity columns stay as they are.
    """
    columns: dict[CovSpec, list[int]] = {}
    for k, spec in enumerate(covs):
        columns.setdefault(spec, []).append(k)
    return tuple((spec, np.array(cols)) for spec, cols in columns.items() if spec != Identity())


def _scale_each_column(groups: tuple[tuple[CovSpec, np.ndarray], ...], m: np.ndarray) -> None:
    """Replace column k of m by F_k m[:, k], in place, for ``_column_groups``.

    Each distinct factor colors all of its columns at once.  Every factor
    acts on each column separately, so that is the per-column result bit
    for bit.
    """
    for spec, cols in groups:
        m[:, cols] = spec.color(m[:, cols])


def average_spread(covs: tuple[CovSpec, ...], p: int) -> float:
    """Averaged covariance spread (1/(n p^2)) sum_k tr(Sigma_k^2) of n column covariances."""
    return sum(spec.square_trace(p) for spec in covs) / (len(covs) * p * p)
