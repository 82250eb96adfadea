"""Tests for empirical spectral distributions and distance-to-law machinery."""

from __future__ import annotations

import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from mplab.cli.config import ExperimentConfig
from mplab.cli.experiments import run_experiment
from mplab.ensembles import (
    GaussianCov,
    Identity,
    IIDSparseSpike,
    WeakDependent,
    _laguerre_draw,
    derive_rng,
    parse_model_spec,
    sample_data_matrix,
)
from mplab.matcore import (
    DomainError,
    InvalidInputError,
    Spectrum,
    as_symmetric,
    haar_frame,
    resolvent_trace,
)
from mplab.mp_law import MPLaw
from mplab.cli.records import write_esd_csv
from mplab import spectra
from mplab.spectra import (
    PAIR_RATIO,
    _blocks,
    block_esds,
    blocks,
    ks_distance,
    nonzero_blocks,
    sample_covariance,
)
from oracles import (
    column_outer_sum,
    esd,
    gram,
    gram_blocks,
    gram_esd,
    laguerre_gram,
    projected_covariance,
    same_problem,
)


def solve(problem) -> Spectrum:
    """The ESD of one problem (blocks, p, read_off): ``block_esds`` of it alone."""
    (e,) = block_esds([problem])
    return e


def law_quantiles(law: MPLaw, p: int) -> np.ndarray:
    """Eigenvalue list sitting at the law's (k - 1/2)/p quantiles, by bisection.

    An ESD built this way has empirical cdf within 1/(2p) of the law at every
    point, so its Kolmogorov distance to the law is exactly 1/(2p) up to the
    bisection tolerance.  Serves as an independent check of ks_distance.
    """
    lo0, hi0 = 0.0, law.b + 1.0
    out = np.empty(p)
    for k in range(p):
        target = (k + 0.5) / p
        lo, hi = lo0, hi0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if law.cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        out[k] = 0.5 * (lo + hi)
    return out


# ---------------------------------------------------------------------------
# sample covariance


def test_sample_covariance_hand_example():
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    s = sample_covariance(x)
    # S = X X^T / n with n = 2 columns, worked by hand.
    assert np.allclose(s, [[2.5, 0.5], [0.5, 5.0]])
    assert np.array_equal(s, s.T)


def test_sample_covariance_single_column_is_outer_product():
    v = np.array([[2.0], [1.0], [-1.0]])
    assert np.allclose(sample_covariance(v), np.outer(v[:, 0], v[:, 0]))


def test_sample_covariance_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        sample_covariance(np.ones(4))
    with pytest.raises(DomainError):
        sample_covariance(np.ones((3, 0)))
    # Finiteness is read off the diagonal of the Gram: a bad entry anywhere,
    # or entries whose squares overflow, must still be caught.
    for bad in (np.nan, np.inf, -np.inf, 1e200):
        for i, j in ((0, 0), (2, 4), (4, 6)):
            x = np.ones((5, 7))
            x[i, j] = bad
            for a in (x, np.asfortranarray(x)):
                with pytest.raises(InvalidInputError):
                    sample_covariance(a)


def on_nonzero_route(x) -> bool:
    """Whether ``nonzero_blocks`` sums X X^T from X's nonzeros: its stated rule."""
    k = np.count_nonzero(x, axis=0)
    return PAIR_RATIO * int(k @ k) <= x.shape[0] ** 2 * x.shape[1]


@pytest.mark.parametrize("p, n", [(5, 7), (1, 9), (9, 1), (64, 129), (257, 1000), (1024, 2048)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_sample_covariance_is_the_mirrored_product_bit_for_bit(p, n, order):
    # A dense matrix's Gram is numpy's symmetric product, the same bits as the
    # mirrored product a @ a.T / n, however sparse the matrix.  Sparse entries
    # with random signs make signed zeros in the products.
    rng = derive_rng(17, p, n)
    x = np.asarray(IIDSparseSpike().sample(p, n, rng) * rng.standard_normal((p, n)), order=order)
    s = sample_covariance(x)
    assert np.array_equal(s.view(np.uint64), as_symmetric(x @ x.T / n).view(np.uint64))
    assert np.array_equal(s.view(np.uint64), s.T.view(np.uint64))


# ---------------------------------------------------------------------------
# esd


def test_esd_sorted_ascending_known_matrix():
    e = esd(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(e.eigenvalues, [1.0, 3.0])
    assert e.p == 2


def test_esd_psd_clamps_roundoff():
    m = np.eye(3)
    m[0, 0] = -1e-14
    e = esd(m, psd=True)
    assert e.eigenvalues[0] == 0.0
    with pytest.raises(InvalidInputError):
        esd(np.diag([-1.0, 1.0, 1.0]), psd=True)


def test_esd_of_sample_covariance_is_nonnegative():
    x = sample_data_matrix(GaussianCov(Identity()), 30, 20, derive_rng(0))
    e = esd(sample_covariance(x), psd=True)
    assert np.all(e.eigenvalues >= 0)
    # p > n: rank deficiency forces at least p - n (near-)zero eigenvalues.
    assert np.count_nonzero(e.eigenvalues < 1e-12) >= 10


# ---------------------------------------------------------------------------
# blocks of a Gram and their ESD

MODELS = ["iid-gauss", "iid-rademacher", "sparse-spike", "block-xi", "gauss-cov:identity",
          "gauss-cov:toeplitz:0.5", "gauss-cov:spiked:3,0", "weak-ma:1,0.5"]

#: The spellings of the one model whose ``sample_blocks`` is drawn in law, a
#: Laguerre tridiagonal: ``GaussianCov(Identity())``.
IN_LAW = ["iid-gauss", "gauss-cov:identity"]


@pytest.mark.parametrize("spec", MODELS)
@pytest.mark.parametrize("p, n", [(24, 40), (32, 32), (40, 24), (4, 10), (10, 4), (4, 1)])
def test_gram_esd_matches_full_eigensolve(spec, p, n):
    check_gram_esd_against_full_eigensolve(parse_model_spec(spec), p, n)


@pytest.mark.parametrize("spec", ["iid-gauss", "sparse-spike"])
@pytest.mark.parametrize("n", [1, 5])
def test_gram_esd_of_one_row(spec, n):
    check_gram_esd_against_full_eigensolve(parse_model_spec(spec), 1, n)


def check_gram_esd_against_full_eigensolve(model, p, n):
    for seed in (3, 4):
        x = sample_data_matrix(model, p, n, derive_rng(seed, p, n))
        s = sample_covariance(x)
        want = esd(s, psd=True).eigenvalues
        # The package's problem is that of the oracle's Gram, bit for bit.
        g, dim = gram(x)
        problem = blocks(x)
        assert same_problem(problem, gram_blocks(g, dim))
        got = solve(problem).eigenvalues
        drawn = solve(model.sample_blocks(p, n, derive_rng(seed, p, n))).eigenvalues
        if model == GaussianCov(Identity()):
            # The model's own ESD is that of the min(p, n)-square Laguerre
            # tridiagonal, of gram(x)'s law
            # (test_standard_gaussian_sample_gram_has_the_dense_law).
            c2, s2 = _laguerre_draw(p, n, derive_rng(seed, p, n))
            t = laguerre_gram(c2, s2, n)
            assert t.shape == (min(p, n),) * 2
            assert drawn.tobytes() == gram_esd(t, p).eigenvalues.tobytes()
        else:
            # The model's own ESD, drawn on the same stream, is gram(x)'s bit for bit.
            assert drawn.tobytes() == got.tobytes()
        assert dim == p and got.size == p
        assert np.all(np.diff(got) >= 0) and np.all(got >= 0)
        assert np.max(np.abs(got - want)) <= 1e-12 * want[-1], (model, p, n, seed)
        # p - n eigenvalues are exact zeros; so are those of the zero rows of X.
        zero_rows = int(np.sum(~x.any(axis=1)))
        assert np.count_nonzero(got == 0.0) >= max(p - n, zero_rows)
        if p <= n:
            assert np.array_equal(g.view(np.uint64), s.view(np.uint64))
            if pattern_is_connected(s):  # one block, solved whole: the same bits
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        else:
            # X^T X / n, or the Gram of the nonzero rows when they are fewer.
            k = min(n, p - zero_rows)
            assert g.shape == (k, k)
            assert np.array_equal(g.view(np.uint64), g.T.view(np.uint64))


@pytest.mark.parametrize("spec", IN_LAW)
@pytest.mark.parametrize("p, n", [(24, 48), (48, 24)])
def test_standard_gaussian_sample_gram_has_the_dense_law(spec, p, n):
    # The Laguerre tridiagonal against gram of a dense draw: two-sample KS
    # distance of the per-trial KS distance and of the largest eigenvalue,
    # 2000 trials a side, below the 1% critical value.
    model, draws = parse_model_spec(spec), 2000
    crit = 1.63 * np.sqrt(2.0 / draws)
    law = MPLaw(p / n)
    sides = []
    for in_law, seed in ((True, 71), (False, 72)):
        side = []
        for k in range(draws):
            rng = derive_rng(seed, p, k)
            e = solve(model.sample_blocks(p, n, rng) if in_law else blocks(model.sample(p, n, rng)))
            side.append((ks_distance(e, law), e.eigenvalues[-1]))
        sides.append(np.array(side))
    for j in range(2):
        assert ks_2samp(sides[0][:, j], sides[1][:, j]).statistic < crit


def bfs_blocks(s) -> list[list[int]]:
    """Connected blocks of the off-diagonal nonzero pattern of s, by breadth-first search."""
    blocks, seen = [], set()
    for root in range(s.shape[0]):
        if root in seen:
            continue
        block, queue = [root], deque([root])
        seen.add(root)
        while queue:
            for j in np.flatnonzero(s[queue.popleft()]).tolist():
                if j not in seen:
                    seen.add(j)
                    block.append(j)
                    queue.append(j)
        blocks.append(sorted(block))
    return blocks


def pattern_is_connected(s) -> bool:
    return len(bfs_blocks(s)) == 1


@pytest.mark.parametrize("k, density", [(1, 0.0), (2, 0.0), (2, 1.0), (9, 0.1), (40, 0.02),
                                        (40, 0.05), (40, 0.6), (200, 0.004), (200, 0.01)])
def test_blocks_are_the_breadth_first_components(k, density):
    for seed in range(5):
        rng = derive_rng(6, k, seed)
        upper = np.triu(rng.random((k, k)) < density, 1)
        s = np.diag(rng.random(k) + 0.5) + (upper | upper.T)
        isolated, blocks = _blocks(s)
        want = bfs_blocks(s)
        assert isolated.tolist() == [b[0] for b in want if len(b) == 1], (k, density, seed)
        assert [b.tolist() for b in blocks] == [b for b in want if len(b) > 1], (k, density, seed)


@pytest.mark.parametrize("p, n", [(6, 4), (4, 6), (5, 5)])
def test_gram_esd_of_zero_data_is_all_zeros(p, n):
    got = solve(blocks(np.zeros((p, n)))).eigenvalues
    assert np.array_equal(got, np.zeros(p))


def test_gram_esd_wider_than_tall_hand_case():
    # p = n + 1: S = X X^T / 2 has rank 2, and X^T X / 2 = [[1, 1/2], [1/2, 1]]
    # has eigenvalues 1/2 and 3/2; the third eigenvalue of S is exactly 0.
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    mats, p, read_off = blocks(x)
    assert p == 3 and len(mats) == 1 and np.array_equal(mats[0], [[1.0, 0.5], [0.5, 1.0]])
    assert len(read_off) == 0
    lam = solve((mats, p, read_off)).eigenvalues
    assert lam[0] == 0.0
    assert np.allclose(lam, [0.0, 0.5, 1.5], rtol=0, atol=1e-15)


def test_gram_esd_solves_a_row_with_one_off_diagonal_entry():
    # Column 2 has two nonzeros, so rows 1 and 2 of the Gram each carry
    # exactly one off-diagonal entry and must be solved together; row 0 has
    # none, so its diagonal 1/3 is read off.  S = [[1, 0, 0], [0, 5, 1],
    # [0, 1, 1]] / 3 has eigenvalues 1/3 and (3 -+ sqrt 5) / 3.
    x = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 1.0]])
    lam = solve(blocks(x)).eigenvalues
    r5 = np.sqrt(5.0)
    assert np.allclose(lam, [(3.0 - r5) / 3.0, 1.0 / 3.0, (3.0 + r5) / 3.0], rtol=0, atol=1e-15)
    assert lam[1] == sample_covariance(x)[0, 0]


def test_gram_esd_reads_isolated_coordinates_off_exactly():
    # Rows 0 and 3 of X are zero and row 2 shares no column with another row.
    x = np.array([[0.0, 0.0, 0.0, 0.0],
                  [1.0, 2.0, 0.0, 0.0],
                  [0.0, 0.0, 3.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0],
                  [2.0, -1.0, 0.0, 0.0]])
    lam = solve(blocks(x)).eigenvalues
    # Rows 1 and 4 are orthogonal with squared norm 5; row 2 has squared norm 9.
    assert np.array_equal(lam, np.array([0.0, 0.0, 5.0, 5.0, 9.0]) / 4.0)


def test_gram_rejects_bad_input_in_both_orientations():
    with pytest.raises(InvalidInputError):
        blocks(np.ones(4))
    with pytest.raises(DomainError):
        blocks(np.ones((3, 0)))
    for shape in ((5, 7), (7, 5)):
        for bad in (np.nan, np.inf, -np.inf, 1e200):
            for i, j in ((0, 0), (2, 4), (4, 3)):
                x = np.ones(shape)
                x[i, j] = bad
                for a in (x, np.asfortranarray(x)):
                    with pytest.raises(InvalidInputError):
                        blocks(a)


def test_gram_esd_rejects_bad_input():
    # ``block_esds`` refuses an indefinite read-off diagonal.  A Gram handed
    # over whole is validated by the oracle that the tests solve Grams with,
    # whose last case reaches that refusal too.
    with pytest.raises(InvalidInputError):
        block_esds([([], 3, np.array([-1.0, 1.0]))])
    with pytest.raises(InvalidInputError):
        gram_esd(np.ones((2, 3)), 3)
    with pytest.raises(InvalidInputError):
        gram_esd(np.array([[1.0, np.nan], [np.nan, 1.0]]), 2)
    with pytest.raises(DomainError):
        gram_esd(np.eye(3), 2)
    with pytest.raises(InvalidInputError):
        gram_esd(np.diag([-1.0, 1.0]), 3)


def block_hand_case(p: int, n: int) -> np.ndarray:
    """A p-by-n X (p >= 7, n >= 7) whose S = X X^T / n is block diagonal up to a permutation.

    Rows 0 and 3 form the block [[1, 1], [1, 2]], with eigenvalues
    (3 -+ sqrt 5) / 2; rows 1, 4 and 5 form J + I, with eigenvalues 4, 1, 1;
    row 2 is isolated with 9; every other row of X is zero.  All over n.
    """
    x = np.zeros((p, n))
    x[[0, 3], 0] = 1.0
    x[3, 1] = 1.0
    x[[1, 4, 5], 2] = 1.0
    x[[1, 4, 5], [3, 4, 5]] = 1.0
    x[2, 6] = 3.0
    return x


@pytest.mark.parametrize("p, n, nonzero_route", [(7, 8, False), (64, 128, True),
                                                 (128, 64, False)])
def test_gram_esd_of_a_permuted_block_diagonal_hand_case(p, n, nonzero_route):
    x = block_hand_case(p, n)
    # Scatter the coordinates so that the blocks interleave.
    x = x[derive_rng(5, p).permutation(p)]
    # The Gram of X, and the Gram of its nonzeros on the route the rule picks.
    assert on_nonzero_route(gram_rows(x)) == nonzero_route
    cols, rows = np.nonzero(x.T)
    g, dim = gram(x)
    # At p > n only the 6 nonzero rows of X enter the Gram.
    assert dim == p and g.shape == ((6, 6) if p > n else (p, p))
    assert same_problem(blocks(x), gram_blocks(g, dim))
    for lam in (solve(blocks(x)).eigenvalues,
                solve(nonzero_blocks(rows, cols, x[rows, cols], p, n)).eigenvalues):
        r5 = np.sqrt(5.0)
        solved = np.array([(3.0 - r5) / 2.0, 1.0, 1.0, (3.0 + r5) / 2.0, 4.0]) / n
        want = np.sort(np.concatenate([np.zeros(p - 6), solved, [9.0 / n]]))
        assert np.allclose(lam, want, rtol=0, atol=1e-15)
        # The zero rows and the isolated row are exact.
        assert np.count_nonzero(lam == 0.0) == p - 6
        assert lam[-1] == 9.0 / n


def test_gram_of_few_nonzero_rows_is_their_gram():
    # p = 6 > n = 4 with two nonzero rows: the Gram is theirs, 2-by-2, and
    # the other four eigenvalues are exact zeros, not roundoff.
    x = np.zeros((6, 4))
    x[1, 0], x[4, 2] = 1.0, 2.0
    g, p = gram(x)
    assert p == 6 and np.array_equal(g, [[0.25, 0.0], [0.0, 1.0]])
    assert same_problem(blocks(x), gram_blocks(g, p))
    assert np.array_equal(solve(blocks(x)).eigenvalues, [0.0, 0.0, 0.0, 0.0, 0.25, 1.0])


def test_gram_esd_labels_long_paths():
    # Two interleaved path-shaped blocks of 40 coordinates each: a block's
    # diameter is 39, far beyond one round of label propagation.
    p, n = 80, 160
    x = np.zeros((p, n))
    for start in (0, 1):
        path = np.arange(start, p, 2)
        x[path[:-1], path[:-1] + 80] = 1.0
        x[path[1:], path[:-1] + 80] = 1.0
    x[:, :80] += 2.0 * np.eye(p)
    # Shuffled, so that labels do not fall along each path in order.
    x = x[derive_rng(7).permutation(p)]
    g, dim = gram(x)
    assert not pattern_is_connected(g)
    assert same_problem(blocks(x), gram_blocks(g, dim))
    got = solve(blocks(x)).eigenvalues
    want = esd(sample_covariance(x), psd=True).eigenvalues
    assert np.max(np.abs(got - want)) <= 1e-12 * want[-1]


def gram_rows(x) -> np.ndarray:
    """The matrix whose rows ``blocks`` multiplies: X, X^T or X's nonzero rows."""
    p, n = x.shape
    nonzero = x.any(axis=1)
    if p <= n:
        return x
    return x[nonzero] if np.count_nonzero(nonzero) < n else x.T


def one_per_row(p: int, n: int) -> np.ndarray:
    """A p-by-n X (p > n) with one nonzero per row, so X^T X / n is diagonal."""
    x = np.zeros((p, n))
    x[np.arange(p), np.arange(p) % n] = 1.0 + np.arange(p) % 3
    return x


def spiky_real(p: int, n: int) -> np.ndarray:
    """sparse-spike's pattern with Gaussian values, whose sums of many terms round."""
    rng = derive_rng(31, p, n)
    return IIDSparseSpike().sample(p, n, rng) * rng.standard_normal((p, n))


ROUTE_CASES = [
    (block_hand_case(64, 128), True),   # X X^T from X's nonzeros
    (block_hand_case(7, 9), False),     # X X^T dense
    (one_per_row(256, 64), True),       # X^T X from X's nonzeros
    (block_hand_case(9, 7), False),     # the Gram of X's nonzero rows, dense
]
ROUTE_IDS = ["nonzero-XXt", "dense-XXt", "nonzero-XtX", "dense-rows"]


@pytest.mark.parametrize("x, nonzero_route", [
    *ROUTE_CASES,
    (np.vstack([one_per_row(256, 512), np.zeros((344, 512))]), True),  # nonzero rows' Gram
    (one_per_row(12, 4), False),        # X^T X dense
    (spiky_real(128, 2048), True),      # X X^T, about 16 terms to a diagonal entry
    (spiky_real(2048, 128), True),      # X^T X, the same
], ids=[*ROUTE_IDS, "nonzero-rows", "dense-XtX", "nonzero-XXt-rounding", "nonzero-XtX-rounding"])
def test_gram_of_given_nonzeros_is_gram_bit_for_bit(x, nonzero_route):
    # Handed X's nonzeros in column-major order, nonzero_blocks takes
    # blocks's choice of X, its nonzero rows or X^T.  On the nonzero route its
    # ESD's bits are gram_esd's of the column-by-column outer product sum of
    # those rows; only the dense route builds X, and gives blocks(x)'s bits.
    assert on_nonzero_route(gram_rows(x)) == nonzero_route
    check_nonzero_blocks(x, nonzero_route)


def check_nonzero_blocks(x, nonzero_route, e=None):
    """The ESD of ``nonzero_blocks`` of X's nonzeros, or e, is the oracle's bit for bit."""
    p, n = x.shape
    if e is None:
        cols, rows = np.nonzero(x.T)
        e = solve(nonzero_blocks(rows, cols, x[rows, cols], p, n))
    want = gram_esd(column_outer_sum(gram_rows(x), n), p) if nonzero_route else solve(blocks(x))
    assert e.eigenvalues.tobytes() == want.eigenvalues.tobytes()


@pytest.mark.parametrize("p, n, seed, rows, nonzero_route", [
    (256, 512, 0, "X", True),
    (8, 16, 0, "X", False),       # small p: the rule picks the dense product
    (1024, 300, 0, "R", True),    # fewer nonzero rows than columns
    (40, 24, 0, "R", False),
    (300, 40, 5, "X^T", True),    # at least n nonzero rows
    (6, 3, 0, "X^T", False),
    (2, 1, 3, "R", True),         # no spike at all: a 0-by-0 Gram
])
def test_sparse_spike_gram_from_its_drawn_nonzeros_is_gram_bit_for_bit(
        p, n, seed, rows, nonzero_route):
    x = sample_data_matrix(IIDSparseSpike(), p, n, derive_rng(seed, p, n))
    a = gram_rows(x)
    assert ("X" if a is x else "R" if a.shape[1] == n else "X^T") == rows
    assert on_nonzero_route(a) == nonzero_route
    e = solve(IIDSparseSpike().sample_blocks(p, n, derive_rng(seed, p, n)))
    check_nonzero_blocks(x, nonzero_route, e)


@pytest.mark.parametrize("p, n, q, nonzero_route", [
    (512, 1024, 256, True), (1024, 256, 512, True), (1024, 512, 300, True),
    (16, 16, 8, False), (64, 32, 40, False),
])
def test_sparse_spike_esd_of_first_rows_is_theirs_bit_for_bit(p, n, q, nonzero_route):
    # The ESD of the first q rows of a draw: the oracle's on those rows.
    for seed in range(3):
        x = sample_data_matrix(IIDSparseSpike(), p, n, derive_rng(seed, p, n))[:q]
        assert on_nonzero_route(gram_rows(x)) == nonzero_route
        e = solve(IIDSparseSpike().sample_blocks(p, n, derive_rng(seed, p, n), q))
        assert e.p == q
        check_nonzero_blocks(x, nonzero_route, e)


def solved_blocks(monkeypatch, esd_of) -> tuple[list[np.ndarray], Spectrum]:
    """The matrices that ``esd_of()`` hands the eigensolver, and its result."""
    seen, eigvalsh = [], spectra.matcore._eigvalsh
    with monkeypatch.context() as patch:
        patch.setattr(spectra.matcore, "_eigvalsh",
                      lambda mats: seen.extend(a.copy() for a in mats) or eigvalsh(mats))
        return seen, esd_of()


def test_an_off_diagonal_sum_that_cancels_splits_the_blocks(monkeypatch):
    # Rows 0 and 1 share columns 0 and 1, whose products 1 and -1 cancel to
    # exactly 0.0: they are two isolated coordinates, read off, not a block.
    # Rows 2 and 3 share column 2 only and are solved together.
    p, n = 64, 128
    x = np.zeros((p, n))
    x[[0, 0, 1], [0, 1, 0]] = 1.0
    x[1, 1] = -1.0
    x[[2, 3, 2], [2, 2, 3]] = [1.0, 2.0, 3.0]
    assert on_nonzero_route(x) and column_outer_sum(x)[0, 1] == 0.0
    cols, rows = np.nonzero(x.T)
    got, e = solved_blocks(monkeypatch, lambda: solve(nonzero_blocks(rows, cols, x[rows, cols], p, n)))
    want, oracle = solved_blocks(monkeypatch, lambda: gram_esd(column_outer_sum(x), p))
    assert [b.shape for b in got] == [b.shape for b in want] == [(2, 2)]
    assert got[0].tobytes() == want[0].tobytes()
    assert e.eigenvalues.tobytes() == oracle.eigenvalues.tobytes()
    assert np.count_nonzero(e.eigenvalues == 2.0 / n) == 2


@pytest.mark.parametrize("spec", IN_LAW)
@pytest.mark.parametrize("p, n, q", [(48, 96, None), (96, 48, None), (64, 64, 32), (5, 1, None)])
def test_standard_gaussian_esd_solves_its_tridiagonal_whole(monkeypatch, spec, p, n, q):
    # T is handed over as one block, so no label search runs, and the ESD is
    # gram_esd's of T, which is connected.
    model, m = parse_model_spec(spec), min(q or p, n)
    monkeypatch.setattr(spectra, "_components", None)
    seen, e = solved_blocks(monkeypatch, lambda: solve(model.sample_blocks(p, n, derive_rng(9, p, n), q)))
    monkeypatch.undo()
    t = laguerre_gram(*_laguerre_draw(q or p, n, derive_rng(9, p, n)), n)
    assert [b.tobytes() for b in seen] == [t.tobytes()] and t.shape == (m, m)
    assert e.eigenvalues.tobytes() == gram_esd(t, q or p).eigenvalues.tobytes()


def test_sparse_spike_esd_trial_holds_no_dense_draw():
    # The trial draws the nonzeros and solves their blocks: its traced peak
    # stays below one p-by-n float64 matrix.
    p, n = 512, 2048
    cfg = ExperimentConfig(experiment="esd", model="sparse-spike", p=p, n=n, trials=1, seed=19)
    tracemalloc.start()
    try:
        run_experiment(cfg, rules=[])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * p * n


def test_sparse_spike_esd_forms_no_p_by_p_gram():
    # At 1024x2048 the rule sums the Gram's entries from the nonzeros, and the
    # traced peak of one ESD stays below one p-by-p float64 matrix.
    p, n = 1024, 2048
    for seed in range(3):
        rng = derive_rng(seed, p, n)
        tracemalloc.start()
        try:
            e = solve(IIDSparseSpike().sample_blocks(p, n, rng))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.p == p and peak < 8 * p * p, (seed, peak)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
@pytest.mark.parametrize("x", [x for x, _ in ROUTE_CASES], ids=ROUTE_IDS)
def test_both_routes_reject_bad_entries_in_sparse_data(x, bad):
    p, n = x.shape
    for i, j in ((0, 0), (2, 6), (p - 1, n - 1)):  # nonzero and zero entries of x
        y = x.copy()
        y[i, j] = bad
        for a in (y, np.asfortranarray(y)):
            with pytest.raises(InvalidInputError):
                blocks(a)
            with pytest.raises(InvalidInputError):
                sample_covariance(a)


def gaussian_fourth_moment(model, p: int) -> float:
    """E|x|^4 = (tr Sigma)^2 + 2 tr Sigma^2 for x ~ N(0, Sigma)."""
    tr = np.sum(model.cov.diagonal(p))
    return tr * tr + 2.0 * model.cov.square_trace(p)


def moving_average_fourth_moment(model, p: int) -> float:
    """E|x|^4 for x = M eps with iid signs eps: the Gaussian value less 2 sum_k (M^T M)_kk^2.

    Row i of M holds c_j at column i + order - j, as ``WeakDependent.sample``
    sums its innovations.
    """
    c = model.coeffs
    order = len(c) - 1
    m = np.zeros((p, p + order))
    for j, cj in enumerate(c):
        m[np.arange(p), np.arange(p) + order - j] = cj
    col_sq = np.sum(m * m, axis=0)
    return gaussian_fourth_moment(model, p) - 2.0 * (col_sq @ col_sq)


# E|x|^4 of each model at dimension p.
FOURTH_MOMENT = {
    "iid-gauss": lambda model, p: p * p + 2 * p,
    "iid-rademacher": lambda model, p: p * p,
    "sparse-spike": lambda model, p: 2 * p * p - p,
    "block-xi": lambda model, p: p * p + 4 * p,
    "gauss-cov:identity": gaussian_fourth_moment,
    "gauss-cov:toeplitz:0.5": gaussian_fourth_moment,
    "gauss-cov:spiked:2,4": gaussian_fourth_moment,
    "weak-ma:1,0.5": moving_average_fourth_moment,
    "gauss-cov:toeplitz:-0.7": gaussian_fourth_moment,
    "gauss-cov:toeplitz:0.99": gaussian_fourth_moment,
    "twin:weak-ma:1,0.5": gaussian_fourth_moment,
}

# Models outside the grammar, by the name they are tested under.
UNPARSED = {"twin:weak-ma:1,0.5": GaussianCov(WeakDependent((1.0, 0.5)).cov)}


@pytest.mark.parametrize("spec, p, n", [("iid-gauss", 64, 128), ("iid-rademacher", 64, 128),
                                        ("sparse-spike", 128, 256), ("block-xi", 64, 128),
                                        ("gauss-cov:identity", 64, 128),
                                        ("gauss-cov:toeplitz:0.5", 64, 128),
                                        ("gauss-cov:spiked:2,4", 64, 128),
                                        ("weak-ma:1,0.5", 64, 128),
                                        ("gauss-cov:toeplitz:-0.7", 64, 128),
                                        ("gauss-cov:toeplitz:0.99", 64, 128),
                                        ("twin:weak-ma:1,0.5", 64, 128)])
def test_spectral_moments_match_their_exact_finite_n_values(spec, p, n):
    # For iid columns with E x x^T = Sigma (Bai & Silverstein 2010, ch. 3):
    #   E[tr S / p]   = tr Sigma / p,
    #   E[tr S^2 / p] = E|x|^4 / (p n) + (1 - 1/n) tr Sigma^2 / p.
    # The seed, the 800 trials and the |z| <= 4 bar were fixed before the
    # first run of each model.  Gaussian columns in place of Rademacher ones
    # raise the second moment by 2/n, about 9 standard errors here; sign
    # innovations in place of Gaussian ones, or a mis-scaled moving average,
    # fail the bar as well.
    model = UNPARSED[spec] if spec in UNPARSED else parse_model_spec(spec)
    trials = 800
    m1, m2 = np.empty(trials), np.empty(trials)
    for t in range(trials):
        if spec == "block-xi" and t == 0:  # the blocks are solved alone
            assert not pattern_is_connected(gram(model.sample(p, n, derive_rng(15, t)))[0])
        lam = solve(model.sample_blocks(p, n, derive_rng(15, t))).eigenvalues
        m1[t], m2[t] = lam.sum() / p, lam @ lam / p
    tr1 = np.sum(model.cov.diagonal(p)) / p
    tr2 = model.cov.square_trace(p) / p
    want = (tr1, FOURTH_MOMENT[spec](model, p) / (p * n) + (1.0 - 1.0 / n) * tr2)
    for got, exact in zip((m1, m2), want):
        # Rademacher's tr S / p is 1 up to rounding, so the error is floored.
        se = max(got.std(ddof=1) / np.sqrt(trials), 1e-12)
        assert abs(got.mean() - exact) <= 4.0 * se, (spec, got.mean(), exact, se)


def test_esd_experiment_above_ratio_one_grades_the_law():
    # At p = 2n half the eigenvalues of S are exactly zero, matching the
    # law's atom 1/2.  Rounded to +-1e-16 they used to put the KS near 0.25.
    cfg = ExperimentConfig(experiment="esd", model="iid-gauss", p=256, n=128, trials=4,
                           seed=1)
    ks_mean = run_experiment(cfg, rules=[]).summary["metrics"]["ks_mean"]
    assert ks_mean <= 0.03


# ---------------------------------------------------------------------------
# ks distance


def test_ks_distance_point_mass_vs_law():
    law = MPLaw(0.5)
    # All eigenvalues at one interior point t: sup gap is max(F(t), 1 - F(t)).
    t = 1.0
    e = Spectrum(eigenvalues=np.full(7, t))
    expected = max(law.cdf(t), 1.0 - law.cdf(t))
    assert ks_distance(e, law) == pytest.approx(expected, abs=1e-12)


def test_ks_distance_two_atoms_hand_value():
    law = MPLaw(0.5)
    e = Spectrum(eigenvalues=np.array([0.5, 2.0]))
    f1, f2 = law.cdf(0.5), law.cdf(2.0)
    expected = max(abs(0.5 - f1), f1, abs(f2 - 0.5), 1.0 - f2)
    assert ks_distance(e, law) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("rho", [0.25, 0.5, 1.0, 2.0])
def test_ks_distance_of_quantile_spectrum_is_half_over_p(rho):
    law = MPLaw(rho)
    p = 40
    lam = law_quantiles(law, p)
    if law.atom0 > 0:
        # Replace the below-atom quantile points with exact zeros, as a
        # rank-deficient sample covariance would have.
        n_zero = int(round(law.atom0 * p))
        lam = np.sort(np.concatenate([np.zeros(n_zero), lam[n_zero:]]))
    d = ks_distance(Spectrum(eigenvalues=lam), law)
    assert d == pytest.approx(1.0 / (2 * p), abs=1e-6)


def ks_reference(lam, law: MPLaw) -> float:
    """Per-eigenvalue KS distance from the quadrature cdf, one point at a time.

    At each distinct eigenvalue v the empirical cdf jumps from #(< v)/p to
    #(<= v)/p; the law's left limit differs from its cdf only at the atom.
    """
    lam = sorted(float(v) for v in lam)
    p = len(lam)
    worst = 0.0
    for v in set(lam):
        f = law.cdf_quadrature(v)
        f_left = f - law.atom0 if v == 0.0 else f
        below = sum(1 for u in lam if u < v)
        at_or_below = sum(1 for u in lam if u <= v)
        worst = max(worst, abs(at_or_below / p - f), abs(below / p - f_left))
    return worst


@pytest.mark.parametrize(
    "rho, lam",
    [
        (0.5, [0.3, 0.3, 0.3, 1.0, 1.0, 2.5]),  # ties, one point off the support
        (2.0, [0.0, 0.0, 0.0, 0.4, 2.0, 2.0, 5.0]),  # zeros sit on the atom
        (4.0, [0.0] * 6 + [1.5, 3.0]),
        (1.0, [0.0, 1e-9, 3.999]),  # square case: support starts at zero
        (0.5, [1.0]),  # p = 1
        (2.0, [0.0]),  # p = 1, on the atom
    ],
)
def test_ks_distance_matches_quadrature_reference(rho, lam):
    law = MPLaw(rho)
    e = Spectrum(eigenvalues=np.array(lam))
    assert abs(ks_distance(e, law) - ks_reference(lam, law)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.lists(st.sampled_from([0.0, 0.01, 0.2, 0.5, 1.0, 1.7, 3.0, 9.0]),
             min_size=1, max_size=12),
    st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=12),
)
def test_ks_distance_matches_quadrature_reference_property(rho, tied, spread):
    lam = np.sort(np.array(tied + spread))
    law = MPLaw(rho)
    d = ks_distance(Spectrum(eigenvalues=lam), law)
    assert abs(d - ks_reference(lam, law)) <= 1e-12


def test_ks_distance_empty_rejected():
    with pytest.raises(DomainError):
        ks_distance(Spectrum(eigenvalues=np.array([])), MPLaw(0.5))


def test_ks_distance_shrinks_with_dimension():
    law = MPLaw(0.5)
    dists = []
    for p in (64, 256):
        x = sample_data_matrix(GaussianCov(Identity()), p, 2 * p, derive_rng(11, p))
        dists.append(ks_distance(esd(sample_covariance(x), psd=True), law))
    assert dists[1] < dists[0]
    assert dists[1] < 0.06


# ---------------------------------------------------------------------------
# empirical stieltjes transform: the resolvent trace of the ESD


def test_empirical_stieltjes_matches_direct_sum():
    lam = np.array([0.5, 1.0, 2.5])
    z = 0.3 + 0.7j
    expected = np.mean(1.0 / (lam - z))
    got = resolvent_trace(Spectrum(eigenvalues=lam), z)
    assert got == pytest.approx(expected, abs=1e-15)
    assert got.imag > 0


def test_empirical_stieltjes_requires_upper_half():
    with pytest.raises(DomainError):
        resolvent_trace(Spectrum(eigenvalues=np.ones(3)), 1.0 - 0.1j)


def test_empirical_stieltjes_near_law_for_large_p():
    law = MPLaw(0.5)
    p = 512
    x = sample_data_matrix(GaussianCov(Identity()), p, 2 * p, derive_rng(12))
    e = esd(sample_covariance(x), psd=True)
    z = 1.0 + 1.0j
    assert abs(resolvent_trace(e, z) - law.stieltjes(z)) < 0.02


# ---------------------------------------------------------------------------
# projections


def test_projected_covariance_coordinate_block():
    m = np.arange(16, dtype=np.float64).reshape(4, 4)
    m = (m + m.T) / 2
    c = np.eye(2, 4)
    assert np.array_equal(projected_covariance(c, m), m[:2, :2])


def test_projected_covariance_haar_preserves_trace_on_average():
    rng = derive_rng(13)
    p, q, reps = 24, 6, 4000
    m = np.diag(np.linspace(0.5, 2.0, p))
    acc = 0.0
    for _ in range(reps):
        c = haar_frame(q, p, rng)
        acc += np.trace(projected_covariance(c, m))
    # E tr(C M C^T) = (q/p) tr M for a Haar frame.
    expected = q / p * np.trace(m)
    assert abs(acc / reps - expected) < 0.05 * expected


def test_projected_covariance_dimension_mismatch():
    with pytest.raises(DomainError):
        projected_covariance(np.eye(2, 5), np.eye(4))


# ---------------------------------------------------------------------------
# csv round trip


def test_esd_csv_round_trip(tmp_path):
    vals = np.sort(derive_rng(14).uniform(0, 3, size=17))
    path = tmp_path / "esd.csv"
    write_esd_csv(path, Spectrum(eigenvalues=vals))
    with open(path) as fh:
        assert fh.readline() == "eigenvalue\n"
        back = np.loadtxt(fh, ndmin=1)
    assert np.array_equal(back, vals)
