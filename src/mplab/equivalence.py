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
One draw of X and Z gives Delta at every point z of a config.  Only the law
of Z's trace enters Delta: when Z is standard Gaussian, C absent and B absent
or beta I, that trace is drawn from the Laguerre tridiagonal model of Dumitriu
& Edelman (2002, "Matrix models for beta ensembles"), and Z is never formed.

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
# An offset owns its behaviour: ``build`` is the dense matrix in dimension p
# (p-by-n for a column offset) and ``spec()`` its grammar string.


@dataclass(frozen=True)
class ScaledIdentity:
    """B = beta I."""

    beta: float

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise DomainError(f"offset scale must be finite, got {self.beta}")

    def build(self, p: int) -> np.ndarray:
        return self.beta * np.eye(p)

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

    def build(self, p: int, n: int) -> np.ndarray:
        col = self.gamma * np.ones(p) / np.sqrt(float(p))
        return np.tile(col[:, None], (1, n))

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
    #: beta in B = beta I (0.0 with no B) if ``_laguerre_traces`` draws the twin, else None.
    twin_shift: float | None = field(default=None, init=False, repr=False, compare=False)
    #: The offsets B (p-by-p) and C (p-by-n), built once and read-only, or
    #: None.  They depend on neither z nor the trial, so every trial of a run
    #: shares them, on any number of threads.
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
        if (self.model.cov == Identity() and not self.column_groups and self.c_spec is None
                and (self.b_spec is None or isinstance(self.b_spec, ScaledIdentity))):
            object.__setattr__(self, "twin_shift", self.b_spec.beta if self.b_spec else 0.0)
        for name, spec, shape in (("b", self.b_spec, (self.p,)),
                                  ("c", self.c_spec, (self.p, self.n))):
            if spec is not None:
                m = spec.build(*shape)
                m.flags.writeable = False
                object.__setattr__(self, name, m)


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
    bit.  With ``cfg.twin_shift`` set, Z is not drawn: ``_laguerre_draw``
    follows X, and ``_laguerre_traces`` reads the twin from it at z - beta.
    X's spectrum is solved before Z is drawn; |Delta| <= 2 / im(z) at each z.
    """
    spec_x = _spectrum(cfg, cfg.model, rng)
    if cfg.twin_shift is not None:
        twin = _laguerre_traces(*_laguerre_draw(cfg.p, cfg.n, rng), cfg.p, cfg.n,
                                [z - cfg.twin_shift for z in cfg.zs])
    else:
        spec_z = _spectrum(cfg, GaussianCov(cfg.model.cov), rng)
        twin = [matcore.resolvent_trace(spec_z, z) for z in cfg.zs]
    return tuple(matcore.resolvent_trace(spec_x, z) - t for z, t in zip(cfg.zs, twin))


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


def _spectrum(cfg: SwapConfig, model: VectorModel, rng: np.random.Generator) -> matcore.Spectrum:
    """Spectrum of (X + C)(X + C)^T / n + B for a draw X of ``model``, colored by cfg's columns.

    Without offsets it is the model's own ``sample_esd`` when no column is
    colored, else ``spectra.gram_esd``; an offset needs the p-by-p matrix.
    """
    if cfg.b is None and cfg.c is None and not cfg.column_groups:
        return model.sample_esd(cfg.p, cfg.n, rng)
    x = sample_data_matrix(model, cfg.p, cfg.n, rng)
    _scale_each_column(cfg.column_groups, x)
    if cfg.b is None and cfg.c is None:
        return spectra.gram_esd(*spectra.gram(x))
    s = spectra.sample_covariance(x if cfg.c is None else x + cfg.c)
    if cfg.b is not None:
        s += cfg.b
    return matcore.eigh(s, want_vectors=False)


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
