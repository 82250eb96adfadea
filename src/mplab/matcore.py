"""Dense symmetric-matrix kernel.

Every eigendecomposition, resolvent trace and orthonormal frame used by the
rest of the package funnels through this module so the numerical conventions
are fixed in one place: eigenvalues ascending, resolvent points strictly in
the upper half plane, frames row-orthonormal with a deterministic sign fix.

The heavy lifting is delegated to LAPACK via numpy; this module owns input
validation, the error vocabulary and the tolerance constants.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

# Eigenvalues of nominally PSD input may undershoot zero by this much
# (relative to the largest magnitude) before we call it an error.
PSD_CLAMP_REL = 1e-10


class InvalidInputError(ValueError):
    """Raised for structurally bad input: non-finite entries, wrong shape."""


class DomainError(ValueError):
    """Raised when a value lies outside an operation's mathematical domain."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative eigensolve fails to converge."""


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition result: ascending eigenvalues, optional vectors.

    ``eigenvectors`` holds one orthonormal eigenvector per column, aligned
    with ``eigenvalues``; it is None when the decomposition was requested
    values-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.eigenvalues.size


def as_square(m) -> np.ndarray:
    """Validate a square finite matrix; float64 input is not copied."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"matrix must be square 2-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix has non-finite entries")
    return a


def as_symmetric(m) -> np.ndarray:
    """Validate and symmetrize a square matrix; the lower triangle wins.

    Mirroring one triangle (rather than averaging) keeps construction exact:
    the result is bitwise symmetric whatever rounding the caller accumulated.
    """
    a = as_square(m)
    lower = np.tril(a)
    return lower + np.tril(a, -1).T


def require_upper_half(z: complex) -> complex:
    """z as a complex number; it must be finite with im(z) > 0."""
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag > 0):
        raise DomainError(f"resolvent point must be finite with im(z) > 0, got {z}")
    return z


def eigh(m, want_vectors: bool = True) -> Spectrum:
    """Ascending eigenvalues of a real symmetric matrix, and orthonormal eigenvectors if wanted.

    The eigenvectors are columns.  Only the lower triangle is read, as LAPACK does, so
    callers need not symmetrize first.  Identical input bits give identical output bits.
    """
    return _eigh(as_square(m), want_vectors)


def _eigh(a: np.ndarray, want_vectors: bool = True) -> Spectrum:
    """``eigh`` of a float64 matrix already validated by ``as_square``."""
    try:
        if want_vectors:
            vals, vecs = np.linalg.eigh(a)
        else:
            vals, vecs = np.linalg.eigvalsh(a), None
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"symmetric eigensolve did not converge: {exc}") from exc
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def clamp_psd_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Zero out roundoff-negative eigenvalues of a nominally PSD matrix.

    Negativity beyond PSD_CLAMP_REL times the largest magnitude is treated as
    a genuinely indefinite input and raises.
    """
    vals = np.asarray(vals, dtype=np.float64)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    if scale and float(np.min(vals)) < -PSD_CLAMP_REL * scale:
        raise InvalidInputError(
            f"matrix is not PSD: min eigenvalue {np.min(vals):.3e} at scale {scale:.3e}"
        )
    return np.maximum(vals, 0.0)


def resolvent_trace(spectrum: Spectrum, z: complex) -> complex:
    """Normalized resolvent trace (1/p) tr (A - z I)^{-1} from a spectrum.

    Requires im(z) > 0; the result then has modulus at most 1/im(z) and
    positive imaginary part.
    """
    z = require_upper_half(z)
    return complex(np.mean(1.0 / (spectrum.eigenvalues - z)))


def rank_one_trace_update(spectrum: Spectrum, w, z: complex) -> complex:
    """Trace of (A + w w^T - z I)^{-1} without re-diagonalizing.

    Uses the rank-one update identity
    tr (A + w w^T - z I)^{-1}
        = tr (A - z I)^{-1} - w^T (A - z I)^{-2} w / (1 + w^T (A - z I)^{-1} w),
    evaluated in the eigenbasis of A.  Needs eigenvectors on the spectrum.
    """
    z = require_upper_half(z)
    if spectrum.eigenvectors is None:
        raise InvalidInputError("rank-one update requires eigenvectors on the spectrum")
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if w.size != spectrum.p:
        raise InvalidInputError(f"vector length {w.size} != dimension {spectrum.p}")
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("vector has non-finite entries")
    y2 = (spectrum.eigenvectors.T @ w) ** 2
    d = spectrum.eigenvalues - z
    base = complex(np.sum(1.0 / d))
    quad1 = complex(np.sum(y2 / d))
    quad2 = complex(np.sum(y2 / d**2))
    return base - quad2 / (1.0 + quad1)


def haar_frame(q: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random q-by-p frame with orthonormal rows.

    QR of a standard-Gaussian tall matrix, with the R-diagonal sign fix that
    makes the factor unique and the law exactly rotation invariant.
    """
    if not (1 <= q <= p):
        raise DomainError(f"need 1 <= q <= p, got q={q}, p={p}")
    g = rng.standard_normal((p, q))
    qmat, r = np.linalg.qr(g, mode="reduced")
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    return (qmat * signs).T


def spectral_norm(m) -> float:
    """Largest singular value of a real rectangular matrix."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix has non-finite entries")
    if min(a.shape) == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))
