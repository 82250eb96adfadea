"""Dense reference computations that the tests compare the package against.

The package computes spectra from data matrices (``spectra.gram_esd``) and
compresses the data before forming a Gram.  These oracles take the long way
instead: the ESD of an explicit symmetric matrix, a sample covariance summed
one column at a time, the compression C S C^T of a full sample covariance
along a validated row-orthonormal frame, and swap gaps from two full p-by-p
sample covariances.
"""

from __future__ import annotations

import numpy as np

from mplab import matcore, spectra
from mplab.matcore import DomainError, InvalidInputError, Spectrum

# Row-orthonormality tolerance for frames.
ORTH_TOL = 1e-10


def as_frame(c) -> np.ndarray:
    """Validate a q-by-p matrix with orthonormal rows (q <= p)."""
    a = np.asarray(c, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] > a.shape[1]:
        raise InvalidInputError(f"frame must be q-by-p with q <= p, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("frame has non-finite entries")
    gram = a @ a.T
    if np.max(np.abs(gram - np.eye(a.shape[0]))) > ORTH_TOL:
        raise DomainError("frame rows are not orthonormal within tolerance")
    return a


def esd(m, psd: bool = False) -> Spectrum:
    """Eigenvalue distribution of a symmetric matrix.

    With ``psd=True`` tiny negative eigenvalues (roundoff from a Gram-type
    construction) are clamped to zero; genuine negativity raises.
    """
    spec = matcore.eigh(m, want_vectors=False)
    if psd:
        return Spectrum(eigenvalues=matcore.clamp_psd_eigenvalues(spec.eigenvalues))
    return spec


def column_outer_sum(x) -> np.ndarray:
    """X X^T / n as the sum, in column order, of each column's outer product.

    Each outer product covers the column's nonzero rows only, so adding it
    never meets a zero factor.
    """
    a = np.asarray(x, dtype=np.float64)
    s = np.zeros((a.shape[0], a.shape[0]))
    for col in a.T:
        rows = np.flatnonzero(col)
        s[np.ix_(rows, rows)] += np.outer(col[rows], col[rows])
    return s / a.shape[1]


def projected_covariance(frame, m) -> np.ndarray:
    """Compression C m C^T of a symmetric matrix along a row-orthonormal frame."""
    c = as_frame(frame)
    a = matcore.as_symmetric(m)
    if c.shape[1] != a.shape[0]:
        raise DomainError(f"frame width {c.shape[1]} != matrix dimension {a.shape[0]}")
    return matcore.as_symmetric(c @ a @ c.T)


def swap_gaps_dense(x, zmat, zs) -> tuple[complex, ...]:
    """Swap gaps with no offsets: each side's p-by-p sample covariance, solved whole."""
    spec_x, spec_z = (
        matcore.eigh(spectra.sample_covariance(m), want_vectors=False) for m in (x, zmat)
    )
    return tuple(
        matcore.resolvent_trace(spec_x, z) - matcore.resolvent_trace(spec_z, z) for z in zs
    )
