"""Empirical spectral distributions and their comparison with the limit law.

A data matrix X (p rows, n columns) is summarized by the normalized sample
covariance S = X X^T / n; its sorted eigenvalue list is the empirical
spectral distribution (ESD), held as a ``matcore.Spectrum``.  This module
computes ESDs, the Kolmogorov sup-distance between an ESD and a limit law,
and compressions C S C^T along row-orthonormal frames.  The ESD of a data
matrix comes from the smaller of X X^T / n and X^T X / n, with the
eigenvalues known exactly read off rather than solved for.  The empirical
Cauchy-Stieltjes transform of an ESD is ``matcore.resolvent_trace``.
"""

from __future__ import annotations

import csv

import numpy as np

from . import matcore
from .matcore import DomainError, InvalidInputError, Spectrum
from .mp_law import MPLaw


def _data_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidInputError(f"data matrix must be 2-d, got shape {a.shape}")
    if a.shape[1] < 1:
        raise DomainError("need at least one column")
    return a


def _row_gram(a: np.ndarray, n: int) -> np.ndarray:
    """a a^T / n, exactly symmetric, for the rows of a (X or X^T)."""
    # numpy forms a @ a.T with one symmetric rank-k update and mirrors the
    # triangle, so the result is exactly symmetric.  A non-finite entry in
    # row i, or an overflow in row i, makes s[i, i] non-finite: the diagonal
    # check stands for a scan of the whole data matrix, and its error
    # replaces the floating-point warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        s = a @ a.T
        s /= n
    if not np.all(np.isfinite(np.diagonal(s))):
        raise InvalidInputError("data matrix has non-finite entries")
    return s


def sample_covariance(x) -> np.ndarray:
    """Normalized second-moment matrix X X^T / n of a p-by-n data matrix."""
    a = _data_matrix(x)
    return _row_gram(a, a.shape[1])


def gram(x) -> tuple[np.ndarray, int]:
    """The smaller Gram of a p-by-n data matrix, and p.

    X X^T / n (bit for bit ``sample_covariance(x)``) when p <= n, else
    X^T X / n.  Both share the nonzero eigenvalues of X X^T / n, so
    ``gram_esd`` recovers the ESD of the sample covariance from either;
    the caller may free X before that eigensolve.
    """
    a = _data_matrix(x)
    p, n = a.shape
    if p <= n:
        return sample_covariance(a), p
    return _row_gram(a.T, n), p


def gram_esd(g, p: int) -> Spectrum:
    """ESD of a p-by-p sample covariance from its exactly symmetric Gram ``g``.

    ``g`` is as ``gram`` returns it.  The eigensolve runs only on the block
    whose eigenvalues are not known exactly.  A coordinate whose row of g has
    no off-diagonal nonzero is an eigenvector, so its diagonal entry is an
    eigenvalue; this covers the zero rows of X.  The p - k eigenvalues that
    a k-by-k Gram lacks are exact zeros.  Roundoff negatives are clamped as
    by ``esd(..., psd=True)``, which gives the same bits when nothing is
    deflated and g is p-by-p.
    """
    a = matcore.as_square(g)
    k = a.shape[0]
    if k > p:
        raise DomainError(f"a {k}-by-{k} Gram has no sample covariance of dimension {p}")
    diag = np.diagonal(a)
    isolated = np.count_nonzero(a, axis=1) - (diag != 0) == 0
    rest = np.flatnonzero(~isolated)
    block = a if rest.size == k else a[np.ix_(rest, rest)]
    vals = matcore.eigh(block, want_vectors=False).eigenvalues
    if rest.size < p:
        vals = np.sort(np.concatenate([diag[isolated], vals, np.zeros(p - k)]))
    return Spectrum(eigenvalues=matcore.clamp_psd_eigenvalues(vals))


def esd(m, psd: bool = False) -> Spectrum:
    """Eigenvalue distribution of a symmetric matrix.

    With ``psd=True`` tiny negative eigenvalues (roundoff from a Gram-type
    construction) are clamped to zero; genuine negativity raises.  For a data
    matrix, ``gram_esd(*gram(x))`` gives the same spectrum from less work.
    """
    spec = matcore.eigh(m, want_vectors=False)
    if psd:
        return Spectrum(eigenvalues=matcore.clamp_psd_eigenvalues(spec.eigenvalues))
    return spec


def ks_distance(e: Spectrum, law: MPLaw) -> float:
    """Kolmogorov sup-distance between the ESD and the law's distribution.

    Compares the law's cdf against the empirical cdf from both sides at every
    eigenvalue.  Tied eigenvalues are handled via their block boundaries, and
    the lower comparison uses the law's left limit, which differs from the cdf
    only at the origin (the law's sole possible atom).  With both corrections
    the maximum over sample points is the exact supremum over the whole line,
    since both cdfs are flat between eigenvalues.
    """
    lam = e.eigenvalues
    p = lam.size
    if p == 0:
        raise DomainError("empty spectrum")
    fvals = law.cdf(lam)
    fleft = np.where(lam == 0.0, fvals - law.atom0, fvals)
    below = np.searchsorted(lam, lam, side="left").astype(np.float64)
    at_or_below = np.searchsorted(lam, lam, side="right").astype(np.float64)
    upper = np.abs(at_or_below / p - fvals)
    lower = np.abs(below / p - fleft)
    return float(max(np.max(upper), np.max(lower)))


def projected_covariance(frame, m) -> np.ndarray:
    """Compression C m C^T of a symmetric matrix along a row-orthonormal frame."""
    c = matcore.as_frame(frame)
    a = matcore.as_symmetric(m)
    if c.shape[1] != a.shape[0]:
        raise DomainError(f"frame width {c.shape[1]} != matrix dimension {a.shape[0]}")
    return matcore.as_symmetric(c @ a @ c.T)


def write_esd_csv(path, e: Spectrum) -> None:
    """Serialize an ESD as a one-column CSV of ascending eigenvalues."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eigenvalue"])
        for v in e.eigenvalues:
            writer.writerow([f"{float(v):.17g}"])

