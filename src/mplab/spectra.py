"""Empirical spectral distributions and their comparison with the limit law.

A data matrix X (p rows, n columns) is summarized by the normalized sample
covariance S = X X^T / n; its sorted eigenvalue list is the empirical
spectral distribution (ESD), held as a ``matcore.Spectrum``.  This module
computes sample covariances, the ESD of a data matrix and the Kolmogorov
sup-distance between an ESD and a limit law.  The ESD comes from the
smallest Gram of X: formed by BLAS from X, summed from X's nonzeros when they
are handed over as drawn, with no X, and few, or drawn in law with no X (a
standard Gaussian model's Laguerre tridiagonal).  It is solved one connected
block at a time, with the exactly known eigenvalues read off, not solved for.
The empirical Cauchy-Stieltjes transform of an ESD is ``matcore.resolvent_trace``.
"""

from __future__ import annotations

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
    """a a^T / n for the rows of a (X or X^T): one symmetric rank-k update, mirrored.

    The result is exactly symmetric.  A non-finite entry in row i, or an
    overflow in row i, makes s[i, i] non-finite: the diagonal check stands for
    a scan of the whole data matrix, and its error replaces the floating-point
    warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = a @ a.T
        s /= n
    if not np.all(np.isfinite(np.diagonal(s))):
        raise InvalidInputError("data matrix has non-finite entries")
    return s


PAIR_RATIO = 2048
PAIR_CHUNK = 1 << 18


def _pair_gram(rows, cols, vals, r: int, m: int) -> np.ndarray | None:
    """a a^T for the r-by-m a with nonzeros vals at (rows, cols), or None when the rule picks BLAS.

    With k_c nonzeros in column c, the Gram is summed from the same-column
    pairs of nonzeros when PAIR_RATIO * sum_c k_c**2 <= r * r * m, the
    multiply-adds of the dense product, PAIR_CHUNK products at a time.  The
    rule sits just on the dense side of the measured crossover: with one
    OpenBLAS thread, the two routes cost the same at r * r * m / sum_c k_c**2
    of about 1500 for r = 1024, m = 2048 and for r = 256, m = 512, and of
    about 2500 for r = 128, m = 256.  With the nonzeros in ascending column
    order, entry (i, j) sums a[i, c] * a[j, c] over the columns c in that
    order, as entry (j, i) does: the result is exactly symmetric.
    """
    per_col = np.bincount(cols, minlength=m)
    if PAIR_RATIO * int(per_col @ per_col) > r * r * m:
        return None
    # Entry e pairs with the k[e] entries of its column, which start at first[e].
    k = per_col[cols]
    first = np.cumsum(per_col)[cols] - k
    s = np.zeros(r * r)
    step = max(1, PAIR_CHUNK // int(k.max(initial=1)))
    for lo in range(0, rows.size, step):
        e = slice(lo, lo + step)
        ke = k[e]
        partner = np.arange(ke.sum()) - np.repeat(np.cumsum(ke) - ke - first[e], ke)
        np.add.at(s, np.repeat(rows[e] * r, ke) + rows[partner],
                  np.repeat(vals[e], ke) * vals[partner])
    return s.reshape(r, r)


def sample_covariance(x) -> np.ndarray:
    """Normalized second-moment matrix X X^T / n of a p-by-n data matrix."""
    a = _data_matrix(x)
    return _row_gram(a, a.shape[1])


def gram(x) -> tuple[np.ndarray, int]:
    """A Gram of a p-by-n data matrix with the nonzero eigenvalues of S, and p.

    X X^T / n (bit for bit ``sample_covariance(x)``) when p <= n.  When
    p > n it is R R^T / n for the r nonzero rows R of X if r < n, else
    X^T X / n.  Each shares the nonzero eigenvalues of S = X X^T / n, so
    ``gram_esd`` recovers the ESD of the sample covariance from it; the
    caller may free X before that eigensolve.
    """
    a = _data_matrix(x)
    p, n = a.shape
    if p <= n:
        return sample_covariance(a), p
    nonzero = a.any(axis=1)
    if np.count_nonzero(nonzero) < n:
        return _row_gram(a[nonzero], n), p
    return _row_gram(a.T, n), p


def gram_from_nonzeros(rows, cols, vals, p: int, n: int) -> tuple[np.ndarray, int]:
    """``gram``'s Gram of the p-by-n X with finite nonzeros vals at (rows, cols).

    Given in column-major order, they go to ``_pair_gram`` as those of X, of its
    nonzero rows or of X^T, as ``gram`` picks.  When its rule picks BLAS, X is
    built and the result is ``gram(x)`` bit for bit; otherwise it is the same
    Gram summed from the same-column pairs, in column order, with no X.
    """
    r, m, i, j, v = p, n, rows, cols, vals
    if p > n:
        kept, index = np.unique(rows, return_inverse=True)
        if kept.size < n:
            r, i = kept.size, index
        else:  # X^T, whose nonzeros go grouped by X's rows
            by_row = np.argsort(rows, kind="stable")
            r, m, i, j, v = n, p, cols[by_row], rows[by_row], vals[by_row]
    s = _pair_gram(i, j, v, r, m)
    if s is None:
        x = np.zeros((p, n))
        x[rows, cols] = vals
        return gram(x)
    s /= n
    return s, p


def gram_esd(g, p: int) -> Spectrum:
    """ESD of a p-by-p sample covariance from its exactly symmetric Gram ``g``.

    ``g`` is as ``gram`` returns it, k-by-k.  Its eigenvalues are those of
    the connected blocks of its off-diagonal nonzero pattern, so each block
    is solved alone.  A coordinate with no off-diagonal nonzero is a block of
    its own whose diagonal entry is read off; this covers the zero rows of X.
    The p - k eigenvalues that g lacks are exact zeros.  Roundoff negatives
    are clamped by ``matcore.clamp_psd_eigenvalues``.  When the pattern is
    connected and g is p-by-p, the result is bit for bit the clamped
    eigenvalues of g.
    """
    a = matcore.as_square(g)
    k = a.shape[0]
    if k > p:
        raise DomainError(f"a {k}-by-{k} Gram has no sample covariance of dimension {p}")
    isolated, blocks = _blocks(a)
    # g was validated above, so the blocks go to the eigensolver unchecked.
    # np.ix_ makes no |b|-by-k slab of rows (4.5 MiB in a sparse-spike trial at
    # 1024x2048, whose copies took 2.6 ms against 1.4 ms with a[b].take(b, 1)).
    vals = [matcore._eigh(a if b.size == k else a[np.ix_(b, b)], want_vectors=False)
            .eigenvalues for b in blocks]
    if len(blocks) == 1 and blocks[0].size == p:
        lam = vals[0]
    else:
        lam = np.sort(np.concatenate([np.diagonal(a)[isolated], *vals, np.zeros(p - k)]))
    return Spectrum(eigenvalues=matcore.clamp_psd_eigenvalues(lam))


def _blocks(a: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The isolated coordinates and the larger connected blocks of ``a``.

    The blocks are those of the off-diagonal nonzero pattern of a symmetric
    k-by-k matrix: the coordinates with no off-diagonal nonzero, ascending,
    and the ascending coordinates of each block of more than one coordinate.
    """
    k = a.shape[0]
    edge = a != 0
    np.fill_diagonal(edge, False)
    degree = np.count_nonzero(edge, axis=1)
    if k > 1 and 2 * int(degree.min()) >= k - 1:
        # Two coordinates that are not neighbours have more than the k - 2
        # others as neighbours between them, so they share one: connected.
        return np.arange(0), [np.arange(k)]
    j = np.flatnonzero(edge) % k
    del edge
    rest = np.flatnonzero(degree)
    starts = np.cumsum(degree[rest]) - degree[rest]
    # Each coordinate's label is the least coordinate known to share its
    # block: take the least label among neighbours, then jump pointers to
    # a fixed point; stop when a round changes nothing.
    label = np.arange(k)
    while True:
        new = label.copy()
        new[rest] = np.minimum(label[rest], np.minimum.reduceat(label[j], starts))
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, label):
            break
        label = new
    lab = label[rest]
    order = np.argsort(lab, kind="stable")
    blocks = np.split(rest[order], np.flatnonzero(np.diff(lab[order])) + 1) if rest.size else []
    return np.flatnonzero(degree == 0), blocks


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
