"""Tests for the random-vector models, their covariances and the spec grammar."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplab.ensembles import (
    BlockXi,
    GaussianCov,
    IIDRademacher,
    IIDSparseSpike,
    Identity,
    MovingAverage,
    ParseError,
    Spiked,
    Toeplitz,
    WeakDependent,
    derive_rng,
    parse_cov_spec,
    parse_model_spec,
    sample_data_matrix,
    sample_vector,
)
from mplab.ensembles import _BLOCK_BYTES, _band_matrix
from mplab.matcore import DomainError
from mplab.spectra import block_esds

#: The model specs under test; ``iid-gauss`` and ``gauss-cov:identity`` spell one model.
ALL_MODELS = [
    "iid-gauss",
    "iid-rademacher",
    "sparse-spike",
    "block-xi",
    "gauss-cov:identity",
    "gauss-cov:spiked:2,5.0",
    "gauss-cov:toeplitz:0.5",
    WeakDependent((1.0, 0.5)).spec(),
]


def model_params(*extra) -> list:
    """ALL_MODELS parsed, each under its spelling, then the extra models under their spec."""
    return ([pytest.param(parse_model_spec(s), id=s) for s in ALL_MODELS]
            + [pytest.param(m, id=m.spec()) for m in extra])


# ---------------------------------------------------------------------------
# stream derivation


def test_derive_rng_reproducible():
    a = derive_rng(7, 1, 3).standard_normal(5)
    b = derive_rng(7, 1, 3).standard_normal(5)
    assert np.array_equal(a, b)


def test_derive_rng_distinct_paths_differ():
    a = derive_rng(7, 1, 3).standard_normal(5)
    b = derive_rng(7, 1, 4).standard_normal(5)
    c = derive_rng(8, 1, 3).standard_normal(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# sampling shapes and basic structure


@pytest.mark.parametrize("model", model_params())
def test_sample_vector_shape_dtype(model):
    x = sample_vector(model, 16, derive_rng(0, 1))
    assert x.shape == (16,)
    assert x.dtype == np.float64
    assert np.all(np.isfinite(x))


def test_rademacher_entries_are_signs():
    x = sample_vector(IIDRademacher(), 1000, derive_rng(1))
    assert set(np.unique(x)) == {-1.0, 1.0}


def test_sparse_spike_entries_and_rate():
    p, reps = 16, 20000
    rng = derive_rng(2)
    scale = np.sqrt(float(p))
    nonzero = 0
    for _ in range(reps):
        x = sample_vector(IIDSparseSpike(), p, rng)
        vals = set(np.unique(np.abs(x)))
        assert vals <= {0.0, scale}
        nonzero += int(np.count_nonzero(x))
    # Each entry is nonzero with probability 1/p; binomial 4-sigma band.
    freq = nonzero / (reps * p)
    se = np.sqrt((1 / p) * (1 - 1 / p) / (reps * p))
    assert abs(freq - 1 / p) < 4 * se


@pytest.mark.parametrize("p, n", [(1, 1), (1, 9), (16, 1), (1024, 300), (1000, 300), (300, 40)])
def test_sparse_spike_nonzeros_are_the_nonzeros_of_its_sample(p, n):
    # ``nonzeros`` is the one sampler: its rows, columns and values are those
    # of np.nonzero of ``sample`` in column-major order, bit for bit, and both
    # leave the stream at the same place.  (300, 40) has p > n.
    model = IIDSparseSpike()
    rng_nz, rng_x = derive_rng(23, p, n), derive_rng(23, p, n)
    rows, cols, vals = model.nonzeros(p, n, rng_nz)
    x = model.sample(p, n, rng_x)
    want_cols, want_rows = np.nonzero(x.T)
    assert rows.dtype == cols.dtype == np.intp and vals.dtype == np.float64
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert vals.tobytes() == x[want_rows, want_cols].tobytes()
    assert rng_nz.random() == rng_x.random()
    if p == 1:
        assert rows.size == n  # every entry of a one-row draw is a spike


def test_sparse_spike_nonzero_count_is_binomial():
    # Flat positions k p + i come distinct and strictly ascending, and the
    # count K of a (64, 128) draw has the mean and variance of Binomial(p n,
    # 1/p) within 4 standard errors over 4000 draws.  The standard error of
    # the sample variance is sqrt((mu4 - var^2 (D - 3) / (D - 1)) / D), with
    # the binomial's fourth central moment mu4 = var (1 + 3 (N - 2) pi (1 - pi))
    # for N = p n trials of probability pi = 1/p.
    model, p, n, draws = IIDSparseSpike(), 64, 128, 4000
    counts = np.empty(draws)
    for t in range(draws):
        rows, cols, _ = model.nonzeros(p, n, derive_rng(29, t))
        assert np.all(np.diff(cols * p + rows) > 0)
        counts[t] = rows.size
    big_n, pi = p * n, 1.0 / p
    var = big_n * pi * (1.0 - pi)
    mu4 = var * (1.0 + 3.0 * (big_n - 2) * pi * (1.0 - pi))
    var_se = np.sqrt((mu4 - var * var * (draws - 3) / (draws - 1)) / draws)
    assert abs(counts.mean() - big_n * pi) <= 4.0 * np.sqrt(var / draws)
    assert abs(counts.var(ddof=1) - var) <= 4.0 * var_se


def test_block_xi_structure():
    p = 12
    rng = derive_rng(3)
    saw_low, saw_high = False, False
    for _ in range(50):
        x = sample_vector(BlockXi(), p, rng)
        lo, hi = x[: p // 2], x[p // 2 :]
        lo_zero, hi_zero = np.all(lo == 0), np.all(hi == 0)
        assert lo_zero != hi_zero  # exactly one half carries the mass
        saw_low |= hi_zero
        saw_high |= lo_zero
    assert saw_low and saw_high


def test_block_xi_needs_even_dimension():
    with pytest.raises(DomainError):
        sample_vector(BlockXi(), 7, derive_rng(0))
    with pytest.raises(DomainError):
        sample_data_matrix(BlockXi(), 7, 3, derive_rng(0))


def test_weak_ma_normalizes_coefficients():
    m = WeakDependent((3.0, 4.0))
    assert np.isclose(sum(c * c for c in m.coeffs), 1.0)
    assert m.coeffs == (0.6, 0.8)


def test_weak_ma_autocovariances_match_direct_sum():
    m = WeakDependent((1.0, 0.5, 0.25))
    c = np.array(m.coeffs)
    expected = [float(np.dot(c[: c.size - h], c[h:])) for h in range(c.size)]
    assert np.allclose(m.cov.autocovariances(), expected, atol=1e-15)
    assert m.cov.autocovariances()[0] == pytest.approx(1.0)


def test_weak_ma_rejects_degenerate_coeffs():
    with pytest.raises(DomainError):
        WeakDependent(())
    with pytest.raises(DomainError):
        WeakDependent((0.0, 0.0))


def test_weak_ma_is_moving_average_of_sign_innovations():
    # One column takes p + order signs from the stream and convolves them
    # with the coefficients, bitwise as np.convolve does.
    m = WeakDependent((1.0, -0.5, 0.25))
    eps = derive_rng(4).integers(0, 2, size=42).astype(np.float64) * 2.0 - 1.0
    manual = np.convolve(eps, np.array(m.coeffs), mode="valid")
    assert np.array_equal(sample_vector(m, 40, derive_rng(4)), manual)


def test_sample_vector_rejects_bad_dimension():
    with pytest.raises(DomainError):
        sample_vector(GaussianCov(Identity()), 0, derive_rng(0))


@pytest.mark.parametrize("model", model_params())
def test_sample_esd_checks_its_row_count_alike(model):
    # Every model's ``sample_blocks`` takes 1 <= q <= p rows, q = p being the
    # whole draw, and rejects any other q with the same error before it draws.
    p, n = 4, 6

    def esd(*q):
        (e,) = block_esds([model.sample_blocks(p, n, derive_rng(2, p, n), *q)])
        return e

    assert esd().eigenvalues.tobytes() == esd(p).eigenvalues.tobytes()
    assert esd(2).p == 2
    for q in (0, 5, -1, True, 2.0, np.int64(0)):
        with pytest.raises(DomainError, match="1 <= q <= p"):
            model.sample_blocks(p, n, derive_rng(2, p, n), q)


# ---------------------------------------------------------------------------
# moments: isotropy and dependence


@pytest.mark.parametrize("spec", ["iid-gauss", "iid-rademacher", "sparse-spike", "block-xi"])
def test_isotropic_models_have_identity_covariance(spec):
    model = parse_model_spec(spec)
    p, reps = 16, 100_000
    rng = derive_rng(5)
    acc = np.zeros((p, p))
    for _ in range(reps):
        x = sample_vector(model, p, rng)
        acc += np.outer(x, x)
    acc /= reps
    # Entry variances are O(1) (sparse-spike diagonal has variance ~ p);
    # allow 4 sigma of the largest entry's Monte Carlo error.
    worst_se = np.sqrt((2.0 + p) / reps)
    assert np.max(np.abs(acc - np.eye(p))) < 4 * worst_se
    assert model.cov == Identity()


def test_gaussian_cov_matches_spec():
    spec = Toeplitz(0.6)
    p, reps = 8, 120_000
    rng = derive_rng(6)
    model = GaussianCov(spec)
    acc = np.zeros((p, p))
    for _ in range(reps):
        x = sample_vector(model, p, rng)
        acc += np.outer(x, x)
    acc /= reps
    target = spec.matrix(p)
    se = np.sqrt(2.0 / reps)  # entrywise MC error scale for unit-variance marginals
    assert np.max(np.abs(acc - target)) < 5 * se


def test_weak_ma_empirical_autocovariance():
    m = WeakDependent((1.0, 0.7, 0.2))
    gammas = m.cov.autocovariances()
    p, reps = 64, 4000
    rng = derive_rng(7)
    acc = np.zeros(len(gammas) + 1)
    count = np.zeros_like(acc)
    for _ in range(reps):
        x = sample_vector(m, p, rng)
        for h in range(len(acc)):
            acc[h] += float(np.dot(x[: p - h], x[h:]))
            count[h] += p - h
    est = acc / count
    for h, g in enumerate(gammas):
        se = 2.0 / np.sqrt(count[h])
        assert abs(est[h] - g) < 4 * se
    # Beyond the moving-average order the autocovariance vanishes.
    assert abs(est[len(gammas)]) < 4 * (2.0 / np.sqrt(count[-1]))


# ---------------------------------------------------------------------------
# covariance matrices and factors


def test_covariance_matrix_values():
    assert np.array_equal(Identity().matrix(3), np.eye(3))
    spiked = Spiked(2, 7.0).matrix(4)
    assert np.array_equal(np.diag(spiked), [7.0, 7.0, 1.0, 1.0])
    toep = Toeplitz(0.5).matrix(3)
    assert np.allclose(toep, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
    band = _band_matrix((1.0, 0.3), 3)
    assert np.allclose(band, [[1, 0.3, 0], [0.3, 1, 0.3], [0, 0.3, 1]])
    # c = (1, 1/2): gamma_0 = 5/4 and gamma_1 = 1/2, both exact.
    ma = MovingAverage((1.0, 0.5)).matrix(3)
    assert np.array_equal(ma, [[1.25, 0.5, 0], [0.5, 1.25, 0.5], [0, 0.5, 1.25]])


def _band_by_eye_sums(gammas, p):
    """The band matrix summed from shifted identities, one lag at a time."""
    sig = np.zeros((p, p))
    for h, g in enumerate(gammas[:p]):
        sig += g * (np.eye(p, k=h) + (np.eye(p, k=-h) if h else 0.0))
    return sig


@pytest.mark.parametrize("gammas, p", [
    ((1.0,), 5),
    ((1.0, 0.3), 7),
    ((2.0, -0.5, 0.25, -0.0, 1e-300), 6),
    ((-0.0, 3.0), 4),
    ((1.0, 0.5, 0.25, 0.125), 2),  # more lags than the dimension
    ((1.0, 0.2), 1),
])
def test_band_toeplitz_matrix_matches_eye_sums_bitwise(gammas, p):
    got = _band_matrix(gammas, p)
    assert got.tobytes() == _band_by_eye_sums(gammas, p).tobytes()


def test_band_toeplitz_matrix_builds_no_temporaries():
    p = 512
    band = MovingAverage((1.0, 0.5, 0.25, 0.125, 0.1))
    tracemalloc.start()
    try:
        band.matrix(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * p * p


def test_covariance_matrix_rejects_oversized_spike():
    with pytest.raises(DomainError):
        Spiked(5, 2.0).matrix(4)
    with pytest.raises(DomainError):
        Spiked(5, 2.0).color(np.ones((4, 1)))


def factor(spec, p):
    """The factor F of a spec in dimension p: its coloring of the identity."""
    return spec.color(np.eye(spec.width(p)))


def test_cov_sqrt_squares_to_covariance():
    # F F^T against the dense Sigma.  The Toeplitz factor is the lower
    # Cholesky factor, built by the AR(1) recursion.
    for p in (1, 2, 64, 1025):
        for spec in (Identity(), Spiked(1, 9.0), Toeplitz(0.5), Toeplitz(-0.7), Toeplitz(0.99),
                     MovingAverage((1.0, 0.45)), WeakDependent((1.0, -0.5, 0.25)).cov):
            f, target = factor(spec, p), spec.matrix(p)
            assert f.shape == (p, spec.width(p))
            if isinstance(spec, Toeplitz):
                assert np.array_equal(f, np.tril(f)), (spec, p)
            assert np.max(np.abs(f @ f.T - target)) <= 1e-14, (spec, p)


def test_cov_spec_validation():
    with pytest.raises(DomainError):
        Spiked(0, 1.0)
    with pytest.raises(DomainError):
        Spiked(1, -1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(DomainError):
            Spiked(1, bad)
        with pytest.raises(DomainError):
            MovingAverage((1.0, bad))
    with pytest.raises(DomainError):
        Toeplitz(1.0)
    with pytest.raises(DomainError):
        MovingAverage(())


# Every spec kind, with a band that has more lags than the smallest dimensions.
ALL_COV_SPECS = (
    Identity(),
    Spiked(1, 2048.0),
    Spiked(3, 2.0),
    Spiked(3, 2.7),
    Toeplitz(0.5),
    Toeplitz(-0.7),
    Toeplitz(0.99),
    MovingAverage((1.0, 0.3)),
    MovingAverage((2.0, -0.5, 0.25, 0.125, 0.1)),
    WeakDependent((1.0, 0.5)).cov,
)


@pytest.mark.parametrize("spec", ALL_COV_SPECS, ids=lambda c: c.spec())
def test_cov_spec_algebra_matches_dense_matrix(spec):
    # The closed forms against the dense Sigma: diagonal(p) bit for bit, and
    # square_trace(p) against the entrywise sum of Sigma * Sigma.  Identity and
    # integer spikes sum exactly and phi = 1/2 has dyadic terms, so those agree
    # bit for bit; elsewhere the two sums round differently.
    exact = spec in (Identity(), Toeplitz(0.5)) or (
        isinstance(spec, Spiked) and spec.s == int(spec.s)
    )
    for p in (1, 2, 3, 64, 1025):
        if isinstance(spec, Spiked) and spec.k > p:
            with pytest.raises(DomainError):
                spec.square_trace(p)
            continue
        m = spec.matrix(p)
        diag = spec.diagonal(p)
        assert diag.tobytes() == np.diagonal(m).tobytes(), p
        dense, closed = float(np.sum(m * m)), spec.square_trace(p)
        assert type(closed) is float
        if exact:
            assert closed == dense, p
        else:
            assert abs(closed - dense) <= 1e-14 * dense, p
        if spec == Identity():
            assert closed / (p * p) == 1.0 / p  # the isotropic spread, bit for bit


def test_population_covariance_weak_ma_is_banded():
    m = WeakDependent((1.0, 0.5))
    sig = m.cov.matrix(5)
    g0, g1 = m.cov.autocovariances()
    assert np.allclose(np.diag(sig), g0)
    assert np.allclose(np.diag(sig, 1), g1)
    assert np.allclose(np.diag(sig, 2), 0.0)


# ---------------------------------------------------------------------------
# data matrices


def test_data_matrix_first_column_matches_single_draw():
    for model in map(parse_model_spec, ALL_MODELS):
        a = sample_data_matrix(model, 8, 1, derive_rng(9))
        b = sample_vector(model, 8, derive_rng(9))
        assert np.array_equal(a[:, 0], b), model.spec()


def sparse_spike_reference(p, n, rng):
    """A p-by-n sparse-spike draw by its recipe, in the stream order the model promises.

    The count K ~ Binomial(p n, 1/p), then K distinct flat positions k p + i
    (column-major), sorted, then K fair signs.
    """
    k = rng.binomial(p * n, 1.0 / p)
    flat = np.sort(rng.choice(p * n, k, replace=False, shuffle=False))
    x = np.zeros(p * n)
    x[flat] = np.sqrt(float(p)) * (rng.integers(0, 2, k) * 2.0 - 1.0)
    return x.reshape(n, p).T


def reference_column(model, p, rng):
    """One column drawn entry by entry in the stream order the models promise."""
    if isinstance(model, IIDRademacher):
        return rng.integers(0, 2, size=p).astype(np.float64) * 2.0 - 1.0
    if isinstance(model, IIDSparseSpike):
        return sparse_spike_reference(p, 1, rng)[:, 0]
    if isinstance(model, BlockXi):
        x, q = np.zeros(p), p // 2
        low = bool(rng.integers(0, 2))
        x[slice(0, q) if low else slice(q, p)] = rng.standard_normal(q) * np.sqrt(2.0)
        return x
    if isinstance(model, GaussianCov):
        cov = model.cov
        g = rng.standard_normal(cov.width(p))
        if isinstance(cov, Toeplitz):
            # The AR(1) recursion, one entry at a time.
            x, s = g.copy(), np.sqrt((1.0 - cov.phi) * (1.0 + cov.phi))
            for k in range(1, p):
                x[k] = cov.phi * x[k - 1] + s * g[k]
            return x
        if isinstance(cov, MovingAverage):
            return np.convolve(g, np.array(cov.coeffs), mode="valid")
        return np.sqrt(cov.diagonal(p)) * g
    order = len(model.coeffs) - 1
    eps = rng.integers(0, 2, size=p + order).astype(np.float64) * 2.0 - 1.0
    return np.convolve(eps, np.array(model.coeffs), mode="valid")


@pytest.mark.parametrize(
    "model", model_params(WeakDependent((1.0, -0.5, 0.25)), GaussianCov(MovingAverage((1.0, 0.3))))
)
def test_data_matrix_shape_and_column_order(model):
    # A batch draw is the column stack of one-column draws on one stream, and
    # of the per-column reference, bit for bit: every factor acts on each
    # column separately.  sparse-spike draws all p n entries at once: its
    # columns are iid, and the one-column draws of the stream when n = 1.
    # block-xi needs even p; two spikes need p >= 2.
    if isinstance(model, BlockXi):
        dims = (2, 62, 64, 66)
    elif model == GaussianCov(Spiked(2, 5.0)):
        dims = (2, 63, 64, 65)
    else:
        dims = (1, 63, 64, 65)
    cases = [(p, n) for p in dims for n in (1, 2, 7)]
    standard = model == GaussianCov(Identity())
    if standard or isinstance(model, (IIDRademacher, IIDSparseSpike, WeakDependent)):
        # These but sparse-spike fill the matrix from row blocks of an n-by-p
        # draw: span at least three blocks, the last one ragged.
        step = _BLOCK_BYTES // (8 * 1024)
        assert 300 >= 3 * step and 300 % step
        cases += [(1024, 300), (1000, 300)]
    for p, n in cases:
        x = sample_data_matrix(model, p, n, derive_rng(10, p, n))
        rng = derive_rng(10, p, n)
        cols = np.column_stack([sample_vector(model, p, rng) for _ in range(n)])
        rng = derive_rng(10, p, n)
        if isinstance(model, IIDSparseSpike):
            ref = sparse_spike_reference(p, n, rng)
            others = (cols, ref) if n == 1 else (ref,)
        else:
            ref = np.column_stack([reference_column(model, p, rng) for _ in range(n)])
            others = (cols, ref)
        assert x.shape == (p, n) and x.dtype == np.float64
        assert x.flags.c_contiguous
        for other in others:
            assert np.array_equal(x, other), (p, n)


# ---------------------------------------------------------------------------
# grammar


@pytest.mark.parametrize("model", model_params())
def test_model_spec_round_trip(model):
    assert parse_model_spec(model.spec()) == model


def test_model_spec_round_trip_odd_floats():
    m = WeakDependent((1.0, 1.0 / 3.0))
    assert parse_model_spec(m.spec()) == m
    g = GaussianCov(Toeplitz(1.0 / 3.0))
    assert parse_model_spec(g.spec()) == g


def test_parse_model_spec_examples():
    assert parse_model_spec("iid-gauss") == GaussianCov(Identity())
    assert parse_model_spec("iid-gauss").spec() == "gauss-cov:identity"
    assert parse_model_spec(" block-xi ") == BlockXi()
    assert parse_model_spec("gauss-cov:spiked:1,2048") == GaussianCov(Spiked(1, 2048.0))
    assert parse_model_spec("weak-ma:3,4") == WeakDependent((0.6, 0.8))


def test_parse_errors_name_the_offending_token():
    with pytest.raises(ParseError, match="frobnicate"):
        parse_model_spec("frobnicate")
    with pytest.raises(ParseError, match="sinusoid"):
        parse_cov_spec("sinusoid:3")
    with pytest.raises(ParseError):
        parse_model_spec("iid-gauss:2")
    with pytest.raises(ParseError):
        parse_model_spec("weak-ma:one,two")
    with pytest.raises(ParseError):
        parse_cov_spec("spiked:3")


def test_cov_spec_round_trip():
    for spec in (Identity(), Spiked(3, 2.5), Toeplitz(-0.25)):
        assert parse_cov_spec(spec.spec()) == spec
    # Moving averages are not in the grammar.
    with pytest.raises(ParseError, match="unknown covariance spec"):
        parse_cov_spec(MovingAverage((1.0, 0.5)).spec())
    with pytest.raises(ParseError, match="unknown covariance spec 'band'"):
        parse_cov_spec("band:1.0,0.5")


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=5).filter(
        lambda cs: sum(c * c for c in cs) > 1e-6
    )
)
def test_weak_ma_unit_variance_property(coeffs):
    m = WeakDependent(tuple(coeffs))
    assert sum(c * c for c in m.coeffs) == pytest.approx(1.0, abs=1e-12)
    assert m.cov.autocovariances()[0] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-0.95, max_value=0.95), st.integers(min_value=1, max_value=12))
def test_toeplitz_matrix_is_psd(phi, p):
    sig = Toeplitz(phi).matrix(p)
    vals = np.linalg.eigvalsh(sig)
    assert vals.min() > -1e-10
