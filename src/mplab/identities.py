"""Randomized checks of the matrix inequalities behind the swap experiments.

Every bound used to control resolvent traces is exercised here on small
random instances: trace-product bounds for PSD matrices, norm monotonicity
under symmetrization and under taking real/imaginary parts, the resolvent
norm bound 1/im(z), the rank-one update identity and its trace-difference
bound, a lower bound for 1 + tr(B (C - z I)^{-1}), the spectral-shift
comparison between a complex resolvent trace and a real regularized one, and
a two-ratio difference bound with an explicit constant.

Each check draws its own instance from a dedicated stream and returns a
signed margin (positive means the inequality failed beyond its tolerance
allowance).  The command-line ``facts`` experiment and the acceptance suite
both run these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matcore
from .ensembles import derive_rng

# Slack for pure inequalities (instances are O(1)-scaled).
INEQ_TOL = 1e-10
# Slack for the rank-one update identity (an equality up to roundoff).
UPDATE_TOL = 1e-9

_STREAM_CODE = 97  # label separating this suite's streams from experiments


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    violations: int
    worst_margin: float


def _psd(rng: np.random.Generator, p: int) -> np.ndarray:
    g = rng.standard_normal((p, p))
    # numpy forms g @ g.T as one triangle and mirrors it: exactly symmetric.
    return g @ g.T / p


def _square(rng: np.random.Generator, p: int) -> np.ndarray:
    return rng.standard_normal((p, p))

def _point(rng: np.random.Generator) -> complex:
    return complex(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 2.0))


def _dim(rng: np.random.Generator, p_max: int) -> int:
    return int(rng.integers(2, p_max + 1))


def check_trace_product(rng: np.random.Generator, p_max: int) -> tuple[float, float]:
    """tr(BC) <= ||B|| tr(C) and tr((BC)^2) <= ||B||^2 tr(C^2) for PSD B, C."""
    p = _dim(rng, p_max)
    b, c = _psd(rng, p), _psd(rng, p)
    nb = matcore.spectral_norm(b)
    bc = b @ c
    m1 = float(np.trace(bc)) - nb * float(np.trace(c))
    m2 = float(np.sum(bc * bc.T)) - nb**2 * float(np.sum(c * c))
    return max(m1, m2), INEQ_TOL


def check_symmetric_part(rng: np.random.Generator, p_max: int) -> tuple[float, float]:
    """||(B + B^T)/2|| <= ||B|| for any square B."""
    p = _dim(rng, p_max)
    b = _square(rng, p)
    return matcore.spectral_norm((b + b.T) / 2.0) - matcore.spectral_norm(b), INEQ_TOL


def check_complex_parts(rng: np.random.Generator, p_max: int) -> tuple[float, float]:
    """||Re A|| and ||Im A|| are at most ||A|| for complex A."""
    p = _dim(rng, p_max)
    b, c = _square(rng, p), _square(rng, p)
    na = float(np.linalg.norm(b + 1j * c, 2))
    return max(matcore.spectral_norm(b), matcore.spectral_norm(c)) - na, INEQ_TOL


def check_resolvent_norm(rng: np.random.Generator, p_max: int) -> tuple[float, float]:
    """||(C - z I)^{-1}|| <= 1 / im(z) for symmetric C, via dense inverse and eigh."""
    p = _dim(rng, p_max)
    c = _psd(rng, p)
    z = _point(rng)
    inv = np.linalg.inv(c - z * np.eye(p))
    dense = float(np.linalg.norm(inv, 2))
    lam = matcore.eigh(c, want_vectors=False).eigenvalues
    via_spectrum = float(np.max(1.0 / np.abs(lam - z)))
    return max(dense, via_spectrum) - 1.0 / z.imag, INEQ_TOL


def check_resolvent_ratio(rng: np.random.Generator, p_max: int) -> tuple[float, float]:
    """|w'(C - zI)^{-2} w| / |1 + w'(C - zI)^{-1} w| <= 1 / im(z) for PSD C."""
    p = _dim(rng, p_max)
    c = _psd(rng, p)
    z = _point(rng)
    w = rng.standard_normal(p)
    spec = matcore.eigh(c)
    y2 = (spec.eigenvectors.T @ w) ** 2
    d = spec.eigenvalues - z
    num = abs(complex(np.sum(y2 / d**2)))
    den = abs(1.0 + complex(np.sum(y2 / d)))
    return num / den - 1.0 / z.imag, INEQ_TOL


def check_trace_offset(rng: np.random.Generator, p_max: int) -> tuple[float, float]:
    """|1 + tr(B (C - z I)^{-1})| >= im(z) / |z| for PSD B, C."""
    p = _dim(rng, p_max)
    b, c = _psd(rng, p), _psd(rng, p)
    z = _point(rng)
    inv = np.linalg.inv(c - z * np.eye(p))
    val = abs(1.0 + complex(np.trace(b @ inv)))
    return z.imag / abs(z) - val, INEQ_TOL


def check_rank_one_update(rng: np.random.Generator, p_max: int) -> tuple[float, float]:
    """Rank-one trace update agrees with a direct recompute.

    Also enforces the trace-difference bound
    |tr(A + ww' - zI)^{-1} - tr(A - zI)^{-1}| <= 1 / im(z).
    """
    p = _dim(rng, p_max)
    a = _psd(rng, p)
    w = rng.standard_normal(p)
    z = _point(rng)
    spec = matcore.eigh(a)
    updated = matcore.rank_one_trace_update(spec, w, z)
    direct_spec = matcore.eigh(a + np.outer(w, w), want_vectors=False)
    direct = complex(np.sum(1.0 / (direct_spec.eigenvalues - z)))
    base = complex(np.sum(1.0 / (spec.eigenvalues - z)))
    mismatch = abs(updated - direct) / (1.0 + abs(direct))
    diff_bound = abs(updated - base) - 1.0 / z.imag
    if diff_bound > INEQ_TOL:
        return diff_bound, INEQ_TOL
    return mismatch, UPDATE_TOL


def check_spectral_shift(rng: np.random.Generator, p_max: int) -> tuple[float, float]:
    """|tr(C - (-eps + iv) I)^{-1} - tr(C + eps I)^{-1}| <= p v / eps^2 for PSD C."""
    p = _dim(rng, p_max)
    c = _psd(rng, p)
    eps = float(rng.uniform(0.1, 2.0))
    v = float(rng.uniform(0.05, 2.0))
    lam = matcore.eigh(c, want_vectors=False).eigenvalues
    complex_trace = complex(np.sum(1.0 / (lam - complex(-eps, v))))
    real_trace = float(np.sum(1.0 / (lam + eps)))
    return abs(complex_trace - real_trace) - p * v / eps**2, INEQ_TOL


def check_stable_ratio(rng: np.random.Generator, p_max: int) -> tuple[float, float]:
    """Two-ratio difference bound with explicit constant.

    If |z1 - z2| <= gamma, |w1 - w2| <= gamma, |z1| <= M |1 + w1|,
    |1 + w2| >= delta and 0 < gamma < delta / 2, then
    |z1/(1+w1) - z2/(1+w2)| <= gamma (2/delta^2 + M/delta + 4/min(delta^2, 2 delta)).
    """
    del p_max  # scalar check
    delta = float(rng.uniform(0.2, 2.0))
    big_m = float(rng.uniform(0.5, 5.0))
    gamma = 0.5 * delta * float(rng.uniform(0.01, 0.99))

    def unit(angle: float) -> complex:
        return complex(np.cos(angle), np.sin(angle))

    w2 = -1.0 + delta * (1.0 + float(rng.uniform(0.0, 3.0))) * unit(rng.uniform(0, 2 * np.pi))
    w1 = w2 + gamma * float(rng.uniform(0.0, 1.0)) * unit(rng.uniform(0, 2 * np.pi))
    z1 = big_m * abs(1.0 + w1) * float(rng.uniform(0.0, 1.0)) * unit(rng.uniform(0, 2 * np.pi))
    z2 = z1 + gamma * float(rng.uniform(0.0, 1.0)) * unit(rng.uniform(0, 2 * np.pi))
    lhs = abs(z1 / (1.0 + w1) - z2 / (1.0 + w2))
    const = 2.0 / delta**2 + big_m / delta + 4.0 / min(delta**2, 2.0 * delta)
    return lhs - gamma * const, INEQ_TOL


CHECKS: dict[str, Callable[[np.random.Generator, int], tuple[float, float]]] = {
    "trace-product": check_trace_product,
    "symmetric-part": check_symmetric_part,
    "complex-parts": check_complex_parts,
    "resolvent-norm": check_resolvent_norm,
    "resolvent-ratio": check_resolvent_ratio,
    "trace-offset": check_trace_offset,
    "rank-one-update": check_rank_one_update,
    "spectral-shift": check_spectral_shift,
    "stable-ratio": check_stable_ratio,
}


def run_check(name: str, trials: int, seed: int, p_max: int = 40) -> CheckResult:
    if p_max < 2:
        raise matcore.DomainError(f"largest matrix dimension must be at least 2, got {p_max}")
    fn = CHECKS[name]
    idx = list(CHECKS).index(name)
    violations = 0
    worst = -np.inf
    for t in range(trials):
        rng = derive_rng(seed, _STREAM_CODE, idx, t)
        margin, tol = fn(rng, p_max)
        if margin > tol:
            violations += 1
        worst = max(worst, margin - tol)
    return CheckResult(name=name, trials=trials, violations=violations, worst_margin=worst)

