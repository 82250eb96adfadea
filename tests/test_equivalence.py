"""Tests for the Gaussian-swap resolvent-gap machinery."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from mplab import matcore, spectra
from mplab.cli.config import EXPERIMENTS, ExperimentConfig
from mplab.cli.experiments import run_experiment
from mplab.ensembles import (
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
    parse_model_spec,
)
from mplab.ensembles import _laguerre_draw
from mplab.equivalence import (
    ConstantColumns,
    RandomPSDUnitNorm,
    ScaledIdentity,
    SwapConfig,
    average_spread,
    parse_column_spec,
    parse_offset_spec,
    resolvent_gap,
)
from mplab.equivalence import _column_groups, _laguerre_traces, _scale_each_column
from mplab.matcore import DomainError, resolvent_trace, spectral_norm
from oracles import dense_traces, gram_esd, laguerre_gram, laguerre_trace, swap_gaps_dense


# ---------------------------------------------------------------------------
# twins


def test_paired_gaussian_mappings():
    # iid-gauss is the standard Gaussian model, its own twin.
    standard = parse_model_spec("iid-gauss")
    assert GaussianCov(standard.cov) == standard == GaussianCov(Identity())
    assert GaussianCov(IIDRademacher().cov) == GaussianCov(Identity())
    g = GaussianCov(Toeplitz(0.3))
    assert GaussianCov(g.cov) == g
    m = WeakDependent((1.0, 0.5))
    assert GaussianCov(m.cov) == GaussianCov(MovingAverage(m.coeffs))


# ---------------------------------------------------------------------------
# offsets


def test_offset_matrix_scaled_identity():
    # B = beta I is a shift of z, never a matrix.
    cfg = SwapConfig(GaussianCov(Identity()), 4, 3, (1j,), b_spec=ScaledIdentity(0.5))
    assert cfg.shift == 0.5 and cfg.b is None
    cfg = SwapConfig(GaussianCov(Identity()), 4, 3, (1j,))
    assert cfg.shift == 0.0 and cfg.b is None and cfg.c is None


def test_offset_matrix_psd_is_deterministic_unit_norm():
    b1 = RandomPSDUnitNorm(7).build(16)
    b2 = RandomPSDUnitNorm(7).build(16)
    b3 = RandomPSDUnitNorm(8).build(16)
    assert np.array_equal(b1, b2)
    assert not np.array_equal(b1, b3)
    assert spectral_norm(b1) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(b1).min() > -1e-12


def test_column_offset_constant_columns():
    # One p-by-1 column, which broadcasts over the n columns of X.
    c = ConstantColumns(2.0).build(4)
    assert c.shape == (4, 1)
    assert np.allclose(c, 2.0 / np.sqrt(4.0))
    assert np.allclose(np.linalg.norm(c[:, 0]) ** 2, 4.0)  # gamma^2 per column


def test_offset_grammar_round_trips():
    for spec in (ScaledIdentity(0.5), ScaledIdentity(1.0 / 3.0), ScaledIdentity(-2.5e-300),
                 RandomPSDUnitNorm(0), RandomPSDUnitNorm(12), RandomPSDUnitNorm(2**62)):
        assert parse_offset_spec(spec.spec()) == spec
    for c in (ConstantColumns(1.0 / 3.0), ConstantColumns(0.1 + 0.2), ConstantColumns(-0.0)):
        assert parse_column_spec(c.spec()) == c


def test_offsets_reject_negative_seed_and_non_finite_scale():
    with pytest.raises(DomainError):
        RandomPSDUnitNorm(-1)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError):
            ScaledIdentity(bad)
        with pytest.raises(DomainError):
            ConstantColumns(bad)


def test_offset_grammar_errors():
    with pytest.raises(ParseError):
        parse_offset_spec("diag:1,2")
    for text in ("id:one", "psd:-1", "id:nan", "id:inf"):
        with pytest.raises(ParseError):
            parse_offset_spec(text)
    with pytest.raises(ParseError):
        parse_column_spec("rows:0.5")
    for text in ("const:x", "const:nan"):
        with pytest.raises(ParseError):
            parse_column_spec(text)


# ---------------------------------------------------------------------------
# config validation


def test_swap_config_validation():
    with pytest.raises(DomainError):
        SwapConfig(GaussianCov(Identity()), 0, 8, (1j,))
    with pytest.raises(DomainError):
        SwapConfig(GaussianCov(Identity()), 8, 8, (1.0 - 1j,))
    with pytest.raises(DomainError):
        SwapConfig(GaussianCov(Identity()), 8, 8, ())
    with pytest.raises(DomainError):
        SwapConfig(GaussianCov(Identity()), 8, 8, (1j, 0.5 + 0.0j))
    with pytest.raises(DomainError):
        SwapConfig(GaussianCov(Identity()), 8, 4, (1j,), hetero=(Identity(),) * 3)
    with pytest.raises(DomainError):  # per-column covariances need an isotropic base
        SwapConfig(GaussianCov(Toeplitz(0.5)), 8, 4, (1j,), hetero=(Identity(),) * 4)
    # A moving average of order 1 reads p + 1 innovations per column, so its
    # factor is not square; order 0 is a square scaling.
    ma = WeakDependent((1.0, 0.5)).cov
    with pytest.raises(DomainError, match="square factor"):
        SwapConfig(GaussianCov(Identity()), 8, 4, (1j,), hetero=(Identity(), ma) * 2)
    SwapConfig(GaussianCov(Identity()), 8, 4, (1j,), hetero=(MovingAverage((0.5,)),) * 4)
    nan, inf = float("nan"), float("inf")
    for z in (complex(nan, 1.0), complex(0.0, inf), complex(inf, 1.0), complex(0.0, nan)):
        with pytest.raises(DomainError):
            SwapConfig(GaussianCov(Identity()), 8, 8, (z,))


def test_swap_config_rejects_a_point_the_offset_shifts_to_infinity():
    # Both sides are read at z - beta, so each such point is checked with the
    # config, before any trial draws, naming the z and the offset as given.
    b = ScaledIdentity(-1e308)
    with pytest.raises(DomainError, match=r"\(1e\+308\+1j\) shifted by offset id:-1e\+308"):
        SwapConfig(GaussianCov(Identity()), 4, 4, (1j, 1e308 + 1j), b_spec=b)
    assert SwapConfig(GaussianCov(Identity()), 4, 4, (-1e308 + 1j,), b_spec=b).shift == -1e308


# ---------------------------------------------------------------------------
# gap values


def test_gap_respects_deterministic_norm_bound():
    zs = (1j, 0.5 + 0.25j, -1.0 + 2.0j)
    cfg = SwapConfig(IIDSparseSpike(), 32, 64, zs)
    for t in range(5):
        gaps = resolvent_gap(cfg, derive_rng(1, t))
        assert len(gaps) == len(zs)
        for z, d in zip(zs, gaps):
            assert abs(d) <= 2.0 / z.imag + 1e-12


def test_gap_of_gaussian_against_itself_is_small_not_zero():
    # The twin of iid-gauss is an independent Gaussian draw: the gap is a
    # nonzero random variable, just a concentrating one.
    cfg = SwapConfig(GaussianCov(Identity()), 64, 128, (1j,))
    d = resolvent_gap(cfg, derive_rng(2))[0]
    assert d != 0
    assert abs(d) < 0.2


def test_gap_shrinks_with_dimension_for_rademacher():
    meds = []
    for p in (64, 256):
        cfg = SwapConfig(IIDRademacher(), p, 2 * p, (1j,))
        gaps = [abs(resolvent_gap(cfg, derive_rng(3, p, t))[0]) for t in range(5)]
        meds.append(float(np.median(gaps)))
    assert meds[1] < meds[0]


def test_gap_identity_offset_matches_shifted_z():
    # B = beta I only shifts the spectrum: the gap at (B, z) is the gap at
    # (no offset, z - beta) for the same stream, bit for bit.
    beta, z = 0.5, 0.3 + 1j
    base = dict(model=IIDRademacher(), p=24, n=48)
    with_b = SwapConfig(**base, zs=(z,), b_spec=ScaledIdentity(beta))
    without = SwapConfig(**base, zs=(z - beta,))
    d1 = resolvent_gap(with_b, derive_rng(4))[0]
    d2 = resolvent_gap(without, derive_rng(4))[0]
    assert d1 == d2


def test_gap_reproducible_and_column_offset_changes_it():
    cfg = SwapConfig(GaussianCov(Identity()), 16, 32, (1j,))
    assert resolvent_gap(cfg, derive_rng(5))[0] == resolvent_gap(cfg, derive_rng(5))[0]
    shifted = SwapConfig(GaussianCov(Identity()), 16, 32, (1j,), c_spec=ConstantColumns(1.0))
    assert resolvent_gap(shifted, derive_rng(5))[0] != resolvent_gap(cfg, derive_rng(5))[0]


def test_offsets_are_built_once_per_run_and_shared_read_only(monkeypatch):
    cfg = SwapConfig(IIDRademacher(), 16, 32, (1j,), b_spec=RandomPSDUnitNorm(3),
                     c_spec=ConstantColumns(0.5))
    assert np.array_equal(cfg.b, RandomPSDUnitNorm(3).build(16))
    assert np.array_equal(cfg.c, ConstantColumns(0.5).build(16)) and cfg.c.shape == (16, 1)
    assert not cfg.b.flags.writeable and not cfg.c.flags.writeable

    calls = []
    build = RandomPSDUnitNorm.build

    def counted(self, p):
        calls.append(p)
        return build(self, p)

    monkeypatch.setattr(RandomPSDUnitNorm, "build", counted)
    # A library config builds its offsets once, however many gaps it draws.
    cfg = SwapConfig(IIDRademacher(), 16, 32, (1j,), b_spec=RandomPSDUnitNorm(3))
    assert resolvent_gap(cfg, derive_rng(9)) == resolvent_gap(cfg, derive_rng(9))
    assert len(calls) == 1
    calls.clear()
    run = ExperimentConfig(experiment="equivalence", model="iid-rademacher", p=16, n=32,
                           trials=3, seed=1, zs=(1j, -1 + 0.5j), b_spec="psd:3")
    assert len(run_experiment(run, rules=[]).records) == 6
    assert len(calls) == 1


def test_multi_z_records_come_from_one_draw_per_trial():
    zs = (1j, -1 + 0.5j)
    run = ExperimentConfig(experiment="equivalence", model="iid-rademacher", p=16, n=32,
                           trials=3, seed=5, zs=zs)
    result = run_experiment(run, rules=[])
    assert len(result.records) == 6 and result.summary["trials"] == 3
    for t in range(3):
        rows = result.records[2 * t : 2 * t + 2]
        assert [r.trial for r in rows] == [t, t]
        for z, r in zip(zs, rows):
            one = SwapConfig(IIDRademacher(), 16, 32, (z,))
            d = resolvent_gap(one, derive_rng(5, EXPERIMENTS["equivalence"].code, t))[0]
            assert (r.z_re, r.z_im) == (z.real, z.imag)
            assert (r.value, r.value_im) == (d.real, d.imag)


#: |gap - dense-recipe gap| allowed where the spectra differ in roundoff only.
GAP_PATH_TOL = 1e-13
#: Relative gap between the Laguerre pivot recurrence and its dense eigensolve
#: for im(z) >= 0.05, and at im(z) = 1e-3, where the eigensolve loses digits.
LAGUERRE_TOL, LAGUERRE_TOL_NEAR_AXIS = 1e-13, 1e-9


def twin_sides(model, p, n, zs, rng):
    """X's dense-recipe traces and the twin's recurrence traces, on one stream.

    The twin's traces are checked against the tridiagonal oracle on the same
    chi-square draws.
    """
    x_traces = dense_traces(model.sample(p, n, rng), zs)
    c2, s2 = _laguerre_draw(p, n, rng)
    twin = _laguerre_traces(c2, s2, p, n, zs)
    for z, t in zip(zs, twin):
        assert abs(t - laguerre_trace(c2, s2, p, n, z)) <= LAGUERRE_TOL * abs(t)
    return x_traces, twin


@pytest.mark.parametrize("model, p, n", [
    (IIDSparseSpike(), 64, 128),  # zero rows of X deflate
    (IIDSparseSpike(), 64, 16),   # the n-by-n Gram, and deflation
    (IIDRademacher(), 48, 24),    # the n-by-n Gram
    (WeakDependent((1.0, 0.5)), 32, 64),
])
def test_gap_without_offsets_matches_the_dense_recipe(model, p, n):
    # An isotropic model's twin is drawn in law: its X side still follows the
    # dense recipe, its Z side the tridiagonal oracle.
    zs = (1j, 0.5 + 0.1j, -1.0 + 2.0j)
    cfg = SwapConfig(model, p, n, zs)
    for t in range(3):
        rng = derive_rng(31, t)
        if not cfg.twin_in_law:
            x = model.sample(p, n, rng)
            zmat = GaussianCov(model.cov).sample(p, n, rng)
            want = swap_gaps_dense(x, zmat, zs)
        else:
            x_traces, twin = twin_sides(model, p, n, zs, rng)
            want = tuple(tx - tz for tx, tz in zip(x_traces, twin))
        got = resolvent_gap(cfg, derive_rng(31, t))
        assert max(abs(g - w) for g, w in zip(got, want)) <= GAP_PATH_TOL


def test_gap_without_offsets_is_the_dense_recipe_bitwise_when_nothing_deflates():
    # p <= n and no zero rows: X's problem is sample_covariance as one block,
    # solved whole, so the X side is the dense recipe's bit for bit.
    model, p, n, zs = IIDRademacher(), 32, 64, (1j, -1.0 + 0.5j)
    x_traces, twin = twin_sides(model, p, n, zs, derive_rng(32))
    assert resolvent_gap(SwapConfig(model, p, n, zs), derive_rng(32)) == tuple(
        tx - tz for tx, tz in zip(x_traces, twin))


def test_twin_is_drawn_in_law_exactly_when_it_is_standard_gaussian():
    p, n, zs = 8, 4, (1j,)
    law = [
        (SwapConfig(IIDRademacher(), p, n, zs), 0.0),
        (SwapConfig(GaussianCov(Identity()), p, n, zs), 0.0),
        (SwapConfig(IIDSparseSpike(), p, n, zs, b_spec=ScaledIdentity(0.5)), 0.5),
        (SwapConfig(GaussianCov(Identity()), p, n, zs, hetero=(Identity(),) * n), 0.0),
    ]
    for cfg, beta in law:
        assert cfg.twin_in_law and cfg.shift == beta
    dense = [
        SwapConfig(WeakDependent((1.0, 0.5)), p, n, zs),
        SwapConfig(GaussianCov(Toeplitz(0.5)), p, n, zs),
        SwapConfig(IIDRademacher(), p, n, zs, b_spec=RandomPSDUnitNorm(1)),
        SwapConfig(IIDRademacher(), p, n, zs, c_spec=ConstantColumns(1.0)),
        SwapConfig(GaussianCov(Identity()), p, n, zs, hetero=(Identity(), Toeplitz(0.5)) * 2),
        SwapConfig(GaussianCov(Toeplitz(0.5)), p, n, zs, b_spec=ScaledIdentity(0.5)),
    ]
    for cfg in dense:
        assert not cfg.twin_in_law


def laguerre_points(p, n):
    """(zs, tol) at three heights: z inside the support, at its edges and outside it."""
    lo, hi = (1.0 - np.sqrt(p / n)) ** 2, (1.0 + np.sqrt(p / n)) ** 2
    for im, tol in ((1.0, LAGUERRE_TOL), (0.05, LAGUERRE_TOL), (1e-3, LAGUERRE_TOL_NEAR_AXIS)):
        yield [complex(re, im) for re in ((lo + hi) / 2, lo, hi, -1.0, hi + 2.0)], tol


@pytest.mark.parametrize("p, n", [(1, 1), (1, 5), (5, 1), (48, 96), (96, 48), (300, 300)])
def test_laguerre_recurrence_matches_the_tridiagonal_eigensolve(p, n):
    c2, s2 = _laguerre_draw(p, n, derive_rng(41, p, n))
    for zs, tol in laguerre_points(p, n):
        for z, got in zip(zs, _laguerre_traces(c2, s2, p, n, zs)):
            want = laguerre_trace(c2, s2, p, n, z)
            assert abs(got - want) <= tol * abs(want), (z, got, want)


@pytest.mark.parametrize("spec", ["iid-gauss", "gauss-cov:identity"])
@pytest.mark.parametrize("p, n", [(1, 1), (1, 5), (5, 1), (48, 96), (96, 48)])
def test_laguerre_gram_is_the_twins_tridiagonal(spec, p, n):
    # A standard Gaussian model's ESD is the oracle's of the exactly symmetric
    # m-by-m tridiagonal of the chi-square draws the twin reads, m = min(p, n):
    # it holds exactly p - m padded zeros, and its resolvent trace is the
    # twin's pivot recurrence on the same draws.
    model, m = parse_model_spec(spec), min(p, n)
    c2, s2 = _laguerre_draw(p, n, derive_rng(43, p, n))
    t = laguerre_gram(c2, s2, n)
    assert t.shape == (m, m) and np.array_equal(t.view(np.uint64), t.T.view(np.uint64))
    (e,) = spectra.block_esds([model.sample_blocks(p, n, derive_rng(43, p, n))])
    assert e.eigenvalues.tobytes() == gram_esd(t, p).eigenvalues.tobytes()
    assert np.count_nonzero(e.eigenvalues == 0.0) == p - m
    for zs, tol in laguerre_points(p, n):
        for z, got in zip(zs, _laguerre_traces(c2, s2, p, n, zs)):
            want = resolvent_trace(e, z)
            assert abs(got - want) <= tol * abs(want), (z, got, want)


@pytest.mark.parametrize("p, n", [(24, 48), (48, 24)])
def test_laguerre_twin_has_the_dense_twins_law(p, n):
    # Two-sample KS distance of 2000 draws a side, below its 1% critical value.
    draws = 2000
    crit = 1.63 * np.sqrt(2.0 / draws)
    zs = (1j, -1.0 + 0.5j)
    twin = np.array([_laguerre_traces(*_laguerre_draw(p, n, derive_rng(51, p, k)), p, n, zs)
                     for k in range(draws)])
    dense = []
    for k in range(draws):
        zmat = GaussianCov(Identity()).sample(p, n, derive_rng(52, p, k))
        (spec,) = spectra.block_esds([spectra.blocks(zmat)])
        dense.append([resolvent_trace(spec, z) for z in zs])
    dense = np.array(dense)
    for j in range(len(zs)):
        for part in (np.real, np.imag):
            assert ks_2samp(part(twin[:, j]), part(dense[:, j])).statistic < crit


# ---------------------------------------------------------------------------
# heterogeneous columns


def test_hetero_identity_matches_homogeneous_gap_bitwise():
    p, n = 16, 32
    homo = SwapConfig(GaussianCov(Identity()), p, n, (1j,))
    het = SwapConfig(GaussianCov(Identity()), p, n, (1j,), hetero=(Identity(),) * n)
    d_homo = resolvent_gap(homo, derive_rng(6))[0]
    assert resolvent_gap(het, derive_rng(6))[0] == d_homo
    assert average_spread(het.hetero, p) == pytest.approx(1.0 / p, rel=1e-15)


def test_hetero_avg_spread_hand_formula():
    p, n = 8, 6
    phi = 0.5
    specs = tuple(Identity() if k % 2 == 0 else Toeplitz(phi) for k in range(n))
    cfg = SwapConfig(GaussianCov(Identity()), p, n, (1j,), hetero=specs)
    # tr(I^2) = p; tr(Toeplitz^2) = p + 2 sum_{h=1}^{p-1} (p - h) phi^{2h}.
    tr_toep = p + 2 * sum((p - h) * phi ** (2 * h) for h in range(1, p))
    expected = (3 * p + 3 * tr_toep) / (n * p * p)
    assert average_spread(specs, p) == pytest.approx(expected, rel=1e-12)
    assert abs(resolvent_gap(cfg, derive_rng(7))[0]) <= 2.0 + 1e-12


def test_hetero_gap_bound_holds_for_spiked_columns():
    p, n = 16, 8
    cfg = SwapConfig(
        IIDRademacher(), p, n, (0.5 + 0.5j,), hetero=(Spiked(1, 4.0),) * n
    )
    assert abs(resolvent_gap(cfg, derive_rng(8))[0]) <= 2.0 / 0.5 + 1e-12


def test_grouped_column_scaling_matches_per_column_products():
    # Each distinct factor colors all of its columns at once.  Every factor
    # acts on each column separately, so the result keeps the per-column bits.
    p, n = 12, 11
    pattern = (Identity(), Toeplitz(0.5), Spiked(2, 3.0), Identity(), Toeplitz(-0.7),
               MovingAverage((0.6,)))
    covs = tuple(pattern[k % len(pattern)] for k in range(n))
    m = derive_rng(21).standard_normal((p, n))
    want = m.copy()
    for k, spec in enumerate(covs):
        want[:, k : k + 1] = spec.color(m[:, k : k + 1])
    got = m.copy()
    _scale_each_column(_column_groups(covs), got)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("b_spec", [None, ScaledIdentity(0.5)], ids=["no-offset", "id"])
def test_sparse_swap_gap_holds_no_dense_draw(b_spec):
    # X's Gram is formed from the drawn nonzeros and its twin is drawn in law,
    # B = beta I or not, so the trial's traced peak stays below one p-by-n
    # float64 matrix.
    p, n = 512, 2048
    cfg = SwapConfig(IIDSparseSpike(), p, n, (1j, 0.5 + 1j), b_spec=b_spec)
    tracemalloc.start()
    try:
        resolvent_gap(cfg, derive_rng(24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * p * n


def test_hetero_gap_with_diagonal_roots_matches_per_column_reference_bitwise():
    p, n = 16, 12
    covs = tuple((Identity(), Spiked(3, 2.5))[k % 2] for k in range(n))
    cfg = SwapConfig(IIDRademacher(), p, n, (0.5 + 1j,), hetero=covs)
    rng = derive_rng(22)
    x = IIDRademacher().sample(p, n, rng)
    zmat = GaussianCov(Identity()).sample(p, n, rng)
    for k, spec in enumerate(covs):
        x[:, k : k + 1] = spec.color(x[:, k : k + 1])
        zmat[:, k : k + 1] = spec.color(zmat[:, k : k + 1])
    z = cfg.zs[0]
    (esd_x,), (esd_z,) = (spectra.block_esds([spectra.blocks(m)]) for m in (x, zmat))
    want = resolvent_trace(esd_x, z) - resolvent_trace(esd_z, z)
    assert resolvent_gap(cfg, derive_rng(22))[0] == want


# ---------------------------------------------------------------------------
# one eigensolve call per trial


HETERO = (Identity(), Toeplitz(0.5))


def dense_twin_configs(p=24, n=48, zs=(1j, -1.0 + 0.5j)):
    """The benchmark's two dense-twin swaps, small (eq-hetero and eq-multiz-psd), two plain
    ones, a column offset and a shifted one."""
    return [SwapConfig(GaussianCov(Identity()), p, n, zs, hetero=HETERO * (n // 2)),
            SwapConfig(IIDRademacher(), p, n, zs, b_spec=RandomPSDUnitNorm(2)),
            SwapConfig(GaussianCov(Toeplitz(0.5)), p, n, zs),
            SwapConfig(WeakDependent((1.0, 0.5)), p, n, zs),
            SwapConfig(IIDRademacher(), p, n, zs, c_spec=ConstantColumns(1.0)),
            SwapConfig(GaussianCov(Toeplitz(0.5)), p, n, zs, b_spec=ScaledIdentity(0.5))]


DENSE_TWIN_IDS = ["hetero", "psd", "toeplitz", "weak-ma", "const", "toeplitz-id"]


def eigvalsh_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """The shape of every argument ``np.linalg.eigvalsh`` is given from here on."""
    shapes, solve = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or solve(a))
    return shapes


@pytest.mark.parametrize("cfg", dense_twin_configs(), ids=DENSE_TWIN_IDS)
def test_a_dense_twin_trial_solves_both_sides_in_one_stacked_call(monkeypatch, cfg):
    shapes = eigvalsh_shapes(monkeypatch)
    resolvent_gap(cfg, derive_rng(6))
    assert shapes == [(2, cfg.p, cfg.p)]


@pytest.mark.parametrize("b_spec", [None, ScaledIdentity(0.5)])
def test_a_laguerre_twin_trial_stacks_nothing(monkeypatch, b_spec):
    cfg = SwapConfig(IIDRademacher(), 24, 48, (1j,), b_spec=b_spec)
    assert cfg.twin_in_law
    shapes = eigvalsh_shapes(monkeypatch)
    resolvent_gap(cfg, derive_rng(6))
    # One call on X's matrix alone, whether or not it comes as a stack of one.
    assert [(int(np.prod(s[:-2])), s[-2:]) for s in shapes] == [(1, (24, 24))]


@pytest.mark.parametrize("cfg", dense_twin_configs(), ids=DENSE_TWIN_IDS)
def test_a_dense_twin_gap_is_the_by_hand_recipe_bitwise(cfg):
    # Draw X, color it, add C, take its matrix S + B, then draw Z from the
    # same stream; solve each alone, and read both at z - beta.
    def solved(model, rng):
        x = model.sample(cfg.p, cfg.n, rng)
        for k, spec in enumerate(cfg.hetero or ()):
            x[:, k : k + 1] = spec.color(x[:, k : k + 1])
        if cfg.c is not None:
            x = x + cfg.c
        s = spectra.sample_covariance(x)
        return matcore.clamp_psd_eigenvalues(np.linalg.eigvalsh(s if cfg.b is None else s + cfg.b))

    beta = cfg.b_spec.beta if isinstance(cfg.b_spec, ScaledIdentity) else 0.0
    for t in range(3):
        rng = derive_rng(40, t)
        x_vals = solved(cfg.model, rng)
        z_vals = solved(GaussianCov(cfg.model.cov), rng)
        want = tuple(resolvent_trace(matcore.Spectrum(x_vals), z - beta)
                     - resolvent_trace(matcore.Spectrum(z_vals), z - beta) for z in cfg.zs)
        assert resolvent_gap(cfg, derive_rng(40, t)) == want
