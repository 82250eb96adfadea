"""Empirical spectral distributions and their comparison with the limit law.

The empirical spectral distribution (ESD) of a p-by-n data matrix X is the
sorted eigenvalue list of its sample covariance S = X X^T / n, held as a
``matcore.Spectrum``.  It is solved one connected block of a Gram at a time,
with the exactly known eigenvalues read off: from the smallest Gram of X
(``gram_esd``), or from X's few nonzeros, summed with no X and no Gram
(``esd_from_nonzeros``).  The module also gives the Kolmogorov distance of an
ESD to a limit law; its Cauchy-Stieltjes transform is ``matcore.resolvent_trace``.
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


def esd_from_nonzeros(rows, cols, vals, p: int, n: int) -> Spectrum:
    """ESD of X X^T / n for the p-by-n X with finite nonzeros vals at (rows, cols).

    Given in column-major order, they are those of X, of its nonzero rows or
    of X^T, as ``gram`` picks: r-by-m.  With k_c of them in column c, X is
    built for ``gram_esd(*gram(x))`` when PAIR_RATIO * sum_c k_c**2 > r * r * m,
    the multiply-adds of the dense product (with one OpenBLAS thread the routes
    cost the same at a ratio of about 1500 for r, m = 1024, 2048 or 256, 512,
    and 2500 for 128, 256).  Else each distinct Gram entry is summed once from
    the same-column pairs in column order, with no X and no r-by-r Gram, and
    each block of its nonzero off-diagonal sums is densified alone: the result
    is ``gram_esd``'s of the Gram summed column by column, bit for bit.
    """
    r, m, i, j, v = p, n, rows, cols, vals
    if p > n:
        kept, index = np.unique(rows, return_inverse=True)
        if kept.size < n:
            r, i = kept.size, index
        else:  # X^T, whose nonzeros go grouped by X's rows
            by_row = np.argsort(rows, kind="stable")
            r, m, i, j, v = n, p, cols[by_row], rows[by_row], vals[by_row]
    per_col = np.bincount(j, minlength=m)
    if PAIR_RATIO * int(per_col @ per_col) > r * r * m:
        x = np.zeros((p, n))
        x[rows, cols] = vals
        return gram_esd(*gram(x))
    # Entry e pairs with the k[e] entries of its column, which start at first[e].
    k = per_col[j]
    first = np.cumsum(per_col)[j] - k
    partner = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k - first, k)
    keys, at = np.unique(np.repeat(i * r, k) + i[partner], return_inverse=True)
    s = np.zeros(keys.size)
    np.add.at(s, at, np.repeat(v, k) * v[partner])
    s /= n
    if not np.all(np.isfinite(s)):
        raise InvalidInputError("data matrix has non-finite entries")
    i, j = np.divmod(keys, r)
    keep = (i == j) | (s != 0)  # an off-diagonal sum that cancels to 0.0 is no edge
    i, j, s = i[keep], j[keep], s[keep]
    isolated, blocks = _components(r, i[i != j], j[i != j])
    row = np.searchsorted(i, np.arange(r + 1))  # row x's entries are row[x]:row[x + 1]

    def densified():
        for b in blocks:
            count = row[b + 1] - row[b]
            e = np.arange(count.sum()) + np.repeat(row[b] - np.cumsum(count) + count, count)
            g = np.zeros((b.size, b.size))
            g[np.repeat(np.arange(b.size), count), np.searchsorted(b, j[e])] = s[e]
            yield g

    diagonal = np.zeros(r)
    diagonal[i[i == j]] = s[i == j]
    return block_esd(densified(), p, diagonal[isolated])


def gram_esd(g, p: int) -> Spectrum:
    """ESD of a p-by-p sample covariance from its exactly symmetric k-by-k Gram ``g``.

    ``g`` is as ``gram`` returns it.  The connected blocks of its off-diagonal
    nonzero pattern go to ``block_esd``, which reads X's zero rows off.
    """
    a = matcore.as_square(g)
    k = a.shape[0]
    if k > p:
        raise DomainError(f"a {k}-by-{k} Gram has no sample covariance of dimension {p}")
    isolated, blocks = _blocks(a)
    # g was validated above; np.ix_ copies each block with no |b|-by-k slab of rows.
    return block_esd((a if b.size == k else a[np.ix_(b, b)] for b in blocks), p,
                     np.diagonal(a)[isolated])


def block_esd(blocks, p: int, read_off=()) -> Spectrum:
    """ESD of a p-by-p sample covariance from its Gram's connected blocks, each solved alone.

    ``blocks`` are exactly symmetric finite matrices and ``read_off`` the diagonal
    entries of the isolated coordinates; the p - k eigenvalues that these k
    coordinates lack are exact zeros.  Roundoff negatives are clamped by
    ``matcore.clamp_psd_eigenvalues``, and one p-by-p block gives its own bits.
    """
    vals = [matcore._eigh(g, want_vectors=False).eigenvalues for g in blocks]
    if len(vals) == 1 and vals[0].size == p:
        lam = vals[0]
    else:
        k = len(read_off) + sum(v.size for v in vals)
        lam = np.sort(np.concatenate([read_off, *vals, np.zeros(p - k)]))
    return Spectrum(eigenvalues=matcore.clamp_psd_eigenvalues(lam))


def _blocks(a: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """``_components`` of the off-diagonal nonzero pattern of a symmetric k-by-k matrix."""
    k = a.shape[0]
    edge = a != 0
    np.fill_diagonal(edge, False)
    if k > 1 and 2 * int(np.count_nonzero(edge, axis=1).min()) >= k - 1:
        # Two coordinates that are not neighbours have more than the k - 2
        # others as neighbours between them, so they share one: connected.
        return np.arange(0), [np.arange(k)]
    return _components(k, *np.nonzero(edge))


def _components(k: int, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The isolated coordinates and larger blocks, ascending, of range(k) joined by edges (i, j).

    Each edge is listed both ways, by ascending i.
    """
    degree = np.bincount(i, minlength=k)
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
