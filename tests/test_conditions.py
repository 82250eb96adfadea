"""Tests for the concentration diagnostics.

Closed-form oracles used here:

* Gaussian truncated second moment: for X ~ N(0,1) and c > 0,
  E X^2 1{|X| > c} = 2 (c phi(c) + Q(c)) with phi the standard normal pdf
  and Q(c) = 1 - Phi(c), by integration by parts.
* Half-support squared norms: a block-xi vector has x^T x = 2 chi2_{p/2}
  exactly, so norm-drift band probabilities are chi-square cdf differences.
* Gaussian identity quadratic form: x^T x ~ chi2_p, so the chebyshev
  statistic's exceedance frequency has an exact chi-square value.

The Monte Carlo estimates go through ``run_experiment``, the one trial loop.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp, norm

from mplab.cli.config import ExperimentConfig
from mplab.cli.experiments import run_experiment
from mplab.conditions import (
    FixedHalfProjectorFamily,
    HaarProjectorFamily,
    IdentityFamily,
    RandomPSDFamily,
    SquaredResolventFamily,
    chebyshev_bound,
    mp_property_trial,
    norm_drift_stat,
    parse_family_spec,
    quadform_sigma,
    quadform_trial,
    standard_error,
)
from mplab.ensembles import (
    BlockXi,
    GaussianCov,
    IIDRademacher,
    Identity,
    ParseError,
    Toeplitz,
    WeakDependent,
    derive_rng,
    parse_model_spec,
    sample_data_matrix,
)
from mplab.ensembles import _laguerre_draw
from mplab.matcore import (
    DomainError,
    InvalidInputError,
    as_symmetric,
    haar_frame,
    spectral_norm,
)
from mplab.mp_law import MPLaw
from mplab.spectra import block_esds, blocks, ks_distance, sample_covariance
from oracles import as_frame, esd, gram, gram_esd, laguerre_gram, projected_covariance


def gaussian_tail_second_moment(c: float) -> float:
    return 2.0 * (c * norm.pdf(c) + norm.sf(c))


def conditions(seed: int = 0, **kwargs) -> dict:
    """Summary metrics of an ungraded conditions run."""
    cfg = ExperimentConfig(experiment="conditions", seed=seed, **kwargs)
    return run_experiment(cfg, rules=[]).summary["metrics"]


# ---------------------------------------------------------------------------
# lindeberg


def test_lindeberg_gaussian_matches_closed_form():
    p, eps, trials = 16, 0.25, 20_000
    out = run_experiment(
        ExperimentConfig(experiment="conditions", model="iid-gauss", stat="lindeberg",
                         p=p, eps=eps, trials=trials), rules=[]
    ).summary
    m = out["metrics"]
    expected = gaussian_tail_second_moment(eps * np.sqrt(p))  # c = 1.0
    assert expected == pytest.approx(0.80127, abs=5e-5)  # frozen from the oracle
    assert abs(m["tail_mean"] - expected) < 4 * m["tail_se"]
    assert out["trials"] == trials


def test_lindeberg_rademacher_is_exact_indicator():
    # cut above 1: no entry ever exceeds, tail mass identically zero.
    m = conditions(1, model="iid-rademacher", stat="lindeberg", p=16, eps=0.5, trials=50)
    assert m["tail_mean"] == 0.0 and m["tail_se"] == 0.0 and m["tail_max"] == 0.0
    # cut below 1: every entry exceeds, statistic is exactly 1 each trial.
    m = conditions(1, model="iid-rademacher", stat="lindeberg", p=16, eps=0.2, trials=50)
    assert m["tail_mean"] == 1.0 and m["tail_se"] == 0.0 and m["tail_max"] == 1.0


def test_lindeberg_sparse_counts_spikes():
    p, trials = 32, 8000
    m = conditions(2, model="sparse-spike", stat="lindeberg", p=p, eps=0.5, trials=trials)
    # Every nonzero entry has magnitude sqrt(p) > 0.5 sqrt(p) and contributes
    # p/p = 1, so the statistic equals the spike count: mean 1, variance ~ 1.
    assert abs(m["tail_mean"] - 1.0) < 4 * m["tail_se"]
    assert m["tail_se"] == pytest.approx(1.0 / np.sqrt(trials), rel=0.15)


def test_lindeberg_rejects_bad_args():
    # eps and trials are checked once, where a run is configured.
    for eps in (-0.1, 0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="eps"):
            ExperimentConfig(experiment="conditions", model="iid-gauss", stat="lindeberg",
                             p=8, eps=eps, trials=10)
    with pytest.raises(InvalidInputError, match="trials"):
        ExperimentConfig(experiment="conditions", model="iid-gauss", stat="lindeberg",
                         p=8, eps=0.5, trials=0)


def test_single_trial_estimate_has_infinite_se():
    assert standard_error(np.array([0.25])) == np.inf
    m = conditions(3, model="iid-gauss", stat="lindeberg", p=8, eps=0.5, trials=1)
    assert m["tail_se"] is None and "inf" in m["tail_se_reason"]


# ---------------------------------------------------------------------------
# quadform


def test_quadform_rademacher_identity_is_exactly_zero():
    p = 24
    model = IIDRademacher()
    sigma = quadform_sigma(model, RandomPSDFamily(), p)
    assert quadform_trial(model, np.eye(p), sigma, derive_rng(4)) == 0.0
    m = conditions(4, model="iid-rademacher", stat="quadform", family="identity",
                   p=p, eps=1e-300, trials=5)
    assert m["abs_max"] == 0.0 and m["exceed_freq"] == 0.0


def test_quadform_gaussian_spiked_matrix_centers_correctly():
    p, trials = 16, 6000
    model = GaussianCov(Identity())
    a = np.diag(np.concatenate([[2.0], np.ones(p - 1)]))
    sigma = quadform_sigma(model, RandomPSDFamily(), p)
    rng = derive_rng(5)
    vals = np.array([quadform_trial(model, a, sigma, rng) for _ in range(trials)])
    assert abs(vals.mean()) < 4 * standard_error(vals)


def test_quadform_nonisotropic_centering():
    # For GaussianCov the centering is tr(Sigma A), not tr(A).
    p, trials = 8, 6000
    model = GaussianCov(Toeplitz(0.5))
    assert quadform_sigma(model, IdentityFamily(), p) is not None
    cfg = ExperimentConfig(experiment="conditions", model=model.spec(), stat="quadform",
                           family="identity", p=p, eps=0.5, trials=trials, seed=6)
    vals = np.array([r.value for r in run_experiment(cfg, rules=[]).records])
    assert vals.size == trials
    assert abs(vals.mean()) < 4 * standard_error(vals)


@pytest.mark.parametrize("family", [IdentityFamily(), FixedHalfProjectorFamily()])
def test_diagonal_draw_trial_matches_dense_trial(family):
    # A fixed family's 1-d draw takes the O(p) path of quadform_trial with
    # diag(Sigma); its dense np.diag takes the matrix path with the dense Sigma
    # a random family gets, on the same stream.  Where diag(Sigma) sums exactly
    # the two agree bit for bit; elsewhere tr(Sigma A) may be summed in another
    # order, so they agree to rounding of tr(Sigma).
    exact = ["iid-gauss", "iid-rademacher", "sparse-spike", "block-xi", "gauss-cov:identity",
             "gauss-cov:spiked:1,{p}"]
    rounded = ["gauss-cov:toeplitz:0.5", "gauss-cov:spiked:3,2.7", "weak-ma:1,0.5"]
    eps = np.finfo(np.float64).eps
    for p in (1, 2, 63, 64, 1025):
        for spec in exact + rounded:
            if (spec == "block-xi" and p % 2) or (spec.endswith("3,2.7") and p < 3):
                continue
            model = parse_model_spec(spec.format(p=p))
            diag = quadform_sigma(model, family, p)
            dense = quadform_sigma(model, RandomPSDFamily(), p)
            assert (diag is None) == (dense is None) == model.isotropic
            if diag is not None:
                assert diag.ndim == 1 and np.array_equal(diag, np.diagonal(dense))
            draw = family.draw(p, None)
            got = quadform_trial(model, draw, diag, derive_rng(17, p))
            want = quadform_trial(model, np.diag(draw), dense, derive_rng(17, p))
            if spec in exact:
                assert got == want, (spec, p)
            else:
                assert abs(got - want) <= 2 * eps * abs(np.sum(diag)) / p, (spec, p)


@pytest.mark.parametrize("model, family", [("gauss-cov:identity", "identity"),
                                           ("block-xi", "fixed-half"),
                                           ("gauss-cov:spiked:1,2048", "identity"),
                                           ("gauss-cov:toeplitz:0.5", "fixed-half")])
def test_fixed_family_quadform_run_builds_no_dense_matrix(model, family):
    p = 2048
    cfg = ExperimentConfig(experiment="conditions", model=model, stat="quadform", family=family,
                           p=p, eps=0.5, trials=3, seed=18)
    # Every model is colored column by column, so not even a non-diagonal
    # Sigma builds a p-by-p array.
    tracemalloc.start()
    try:
        run_experiment(cfg, rules=[])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * p * p  # one p-by-p float64


# ---------------------------------------------------------------------------
# quadform exceedance frequency over a test-matrix family


def test_probe_identity_family_rademacher_never_exceeds():
    m = conditions(7, model="iid-rademacher", stat="quadform", family="identity",
                   p=32, eps=0.1, trials=40)
    assert m["exceed_freq"] == 0.0 and m["exceed_se"] == 0.0


def test_probe_is_deterministic_given_stream():
    cfg = ExperimentConfig(experiment="conditions", model="iid-gauss", stat="quadform",
                           family="random-psd", p=16, eps=0.05, trials=25, seed=8)
    a, b = run_experiment(cfg, rules=[]), run_experiment(cfg, rules=[])
    assert a == b
    assert 0.0 <= a.summary["metrics"]["exceed_freq"] <= 1.0


def test_probe_small_dimension_gaussian_exceeds_often():
    # At p = 4 the normalized quadratic form has std ~ sqrt(2/p) = 0.71,
    # so exceedances at eps = 0.1 are common — sanity check direction.
    m = conditions(9, model="iid-gauss", stat="quadform", family="identity",
                   p=4, eps=0.1, trials=400)
    assert m["exceed_freq"] > 0.5


# ---------------------------------------------------------------------------
# the chebyshev bound


def test_chebyshev_bound_hand_recompute_and_exact_frequency():
    p, eps, trials = 64, 0.5, 4000
    m = conditions(10, model="gauss-cov:identity", stat="chebyshev", family="identity",
                   p=p, eps=eps, trials=trials)
    # Bound: 2 * 1 * tr(I) / (eps p)^2 = 2 / (eps^2 p).
    assert m["bound"] == pytest.approx(2.0 / (eps * eps * p), rel=1e-12)
    assert chebyshev_bound(IdentityFamily(), 1.0 / p, eps) == m["bound"]
    # The bound scales with the family's squared norm bound, and stays finite.
    assert chebyshev_bound(SquaredResolventFamily(0.5j), 0.25, 0.5) == 2.0 * 16 * 0.25 / 0.25
    assert chebyshev_bound(IdentityFamily(), 1.0, 1e-200) == 1e300
    # Exact exceedance for x^T x ~ chi2_p.
    exact = 1.0 - (chi2.cdf(p * (1 + eps), df=p) - chi2.cdf(p * (1 - eps), df=p))
    se = np.sqrt(exact * (1 - exact) / trials)
    assert abs(m["exceed_freq"] - exact) < 4 * se
    assert m["slack"] == m["bound"] + 4 * m["exceed_se"] - m["exceed_freq"] >= 0.0


def test_chebyshev_rejects_mismatched_matrix():
    # A test matrix that does not fit dimension p is refused.
    cfg = ExperimentConfig(experiment="conditions", model="gauss-cov:identity",
                           stat="chebyshev", family="haar-proj:9", p=8, eps=0.5, trials=2)
    with pytest.raises(DomainError, match="projector rank 9"):
        run_experiment(cfg, rules=[])


# ---------------------------------------------------------------------------
# norm_drift_stat


def test_norm_drift_rademacher_is_zero():
    assert norm_drift_stat(IIDRademacher(), 32, derive_rng(11)) == 0.0


def test_norm_drift_rejects_nonisotropic():
    with pytest.raises(DomainError):
        norm_drift_stat(GaussianCov(Toeplitz(0.5)), 8, derive_rng(0))
    with pytest.raises(DomainError):
        norm_drift_stat(WeakDependent((1.0, 0.5)), 8, derive_rng(0))


def test_norm_drift_block_xi_matches_chi_square_band():
    # x^T x = 2 chi2_{p/2} exactly, so P(|drift| <= 0.1) is a cdf difference.
    p, trials = 2048, 3000
    q = p // 2
    exact = chi2.cdf(0.55 * p, df=q) - chi2.cdf(0.45 * p, df=q)
    assert exact == pytest.approx(0.976355, abs=5e-6)  # frozen from the oracle
    rng = derive_rng(12)
    hits = sum(
        1 for _ in range(trials) if abs(norm_drift_stat(BlockXi(), p, rng)) <= 0.1
    )
    freq = hits / trials
    se = np.sqrt(exact * (1 - exact) / trials)
    assert abs(freq - exact) < 4 * se


# ---------------------------------------------------------------------------
# mp_property_trial


GAUSSIAN_SPECS = ("iid-gauss", "gauss-cov:identity")


def test_mp_property_fixed_half_reproducible_by_hand():
    # Standard Gaussian data is compressed in law: the trial's spectrum is
    # that of the Laguerre tridiagonal of a q-by-n draw, from the trial
    # stream, solved whole by the dense oracle, bit for bit.
    model, p, n, q = GaussianCov(Identity()), 30, 60, 15
    got = mp_property_trial(model, p, n, q, derive_rng(13), frame_mode="fixed-half")
    e = esd(laguerre_gram(*_laguerre_draw(q, n, derive_rng(13)), n), psd=True)
    assert got == ks_distance(e, MPLaw(q / n))


@pytest.mark.parametrize("spec", GAUSSIAN_SPECS)
@pytest.mark.parametrize("frame_mode", ["haar", "fixed-half"])
def test_mp_property_standard_gaussian_draws_only_the_compressed_data(spec, frame_mode):
    # Both frames take the same Laguerre draw of q-by-n data and nothing more
    # from the stream.
    model, p, n, q = parse_model_spec(spec), 40, 24, 30
    rng = derive_rng(15)
    got = mp_property_trial(model, p, n, q, rng, frame_mode=frame_mode)
    by_hand = derive_rng(15)
    e = gram_esd(laguerre_gram(*_laguerre_draw(q, n, by_hand), n), q)
    assert got == ks_distance(e, MPLaw(q / n))
    assert rng.random() == by_hand.random()


@pytest.mark.parametrize(
    "spec",
    ["iid-gauss", "iid-rademacher", "sparse-spike", "block-xi", "gauss-cov:identity",
     "gauss-cov:toeplitz:0.5", "gauss-cov:spiked:3,0", "weak-ma:1,0.5"],
)
def test_mp_property_fixed_half_matches_coordinate_frame(spec):
    # The trial slices the first q rows of X; multiplying by the coordinate
    # frame selects the same rows and gives the same bits.  A standard
    # Gaussian model draws the Gram of those q rows in law, as the Laguerre
    # tridiagonal of a q-by-n draw.  The oracle's spectrum takes
    # the trial's path, which reads the eigenvalues of zero rows off exactly,
    # so only the slicing is under test.
    model = parse_model_spec(spec)
    for p, n, q in ((30, 60, 15), (64, 33, 32), (10, 7, 1)):
        for seed in (13, 14):
            got = mp_property_trial(model, p, n, q, derive_rng(seed), frame_mode="fixed-half")
            if spec in GAUSSIAN_SPECS:
                g = laguerre_gram(*_laguerre_draw(q, n, derive_rng(seed)), n), q
            else:
                x = sample_data_matrix(model, p, n, derive_rng(seed))
                g = gram(as_frame(np.eye(q, p)) @ x)
            e = gram_esd(*g)
            assert got == ks_distance(e, MPLaw(q / n)), (p, n, q, seed)


@pytest.mark.parametrize("frame_mode", ["haar", "fixed-half"])
def test_mp_property_matches_projected_covariance_oracle(frame_mode):
    # The trial compresses the data before the Gram; the oracle compresses
    # the Gram, C (X X^T / n) C^T.  The two differ only in rounding.  Sign
    # data is not Gaussian, so the trial draws the frame and all of X.
    model, p, n, q = IIDRademacher(), 96, 80, 48
    for seed in range(5):
        got = mp_property_trial(model, p, n, q, derive_rng(seed), frame_mode=frame_mode)
        rng = derive_rng(seed)
        frame = haar_frame(q, p, rng) if frame_mode == "haar" else np.eye(q, p)
        s = sample_covariance(sample_data_matrix(model, p, n, rng))
        e = esd(projected_covariance(frame, s), psd=True)
        assert abs(got - ks_distance(e, MPLaw(q / n))) <= 1e-12


@pytest.mark.parametrize("p, n, q", [(48, 96, 24), (96, 48, 32)])
def test_mp_property_gaussian_in_law_draw_has_the_frame_paths_law(p, n, q):
    # C X for a Haar frame C and Gaussian X against the trial's Laguerre draw
    # of q-by-n data: two-sample KS distance of the per-trial KS distance and
    # of the largest eigenvalue, 2000 trials a side, below the 1% critical
    # value.
    draws = 2000
    crit = 1.63 * np.sqrt(2.0 / draws)
    law = MPLaw(q / n)
    direct, frame = [], []
    for k in range(draws):
        d = mp_property_trial(GaussianCov(Identity()), p, n, q, derive_rng(61, p, k))
        e = gram_esd(laguerre_gram(*_laguerre_draw(q, n, derive_rng(61, p, k)), n), q)
        assert ks_distance(e, law) == d
        direct.append((d, e.eigenvalues[-1]))
        rng = derive_rng(62, p, k)
        c = haar_frame(q, p, rng)
        (e,) = block_esds([blocks(c @ sample_data_matrix(GaussianCov(Identity()), p, n, rng))])
        frame.append((ks_distance(e, law), e.eigenvalues[-1]))
    direct, frame = np.array(direct), np.array(frame)
    for j in range(2):
        assert ks_2samp(direct[:, j], frame[:, j]).statistic < crit


def test_mp_property_haar_small_case_in_range():
    val = mp_property_trial(GaussianCov(Identity()), 40, 80, 20, derive_rng(14))
    assert 0.0 < val < 0.5
    again = mp_property_trial(GaussianCov(Identity()), 40, 80, 20, derive_rng(14))
    assert val == again


def test_mp_property_validates_frame_args():
    with pytest.raises(DomainError):
        mp_property_trial(GaussianCov(Identity()), 8, 16, 0, derive_rng(0))
    with pytest.raises(DomainError):
        mp_property_trial(GaussianCov(Identity()), 8, 16, 9, derive_rng(0))
    with pytest.raises(DomainError):
        mp_property_trial(GaussianCov(Identity()), 8, 16, 4, derive_rng(0), frame_mode="dyadic")
    # Dimensions are checked before any draw, including p, which a standard
    # Gaussian model never draws at.
    for p, n, q in ((8, 16, True), (8.0, 16, 4), (8, 16, 4.0), (8, 0, 4), (True, 16, 1)):
        for model in (GaussianCov(Identity()), IIDRademacher()):
            with pytest.raises(DomainError, match="positive integer"):
                mp_property_trial(model, p, n, q, derive_rng(0))


# ---------------------------------------------------------------------------
# matrix families and their grammar


def test_family_draws_have_claimed_structure():
    rng = derive_rng(15)
    p = 12
    # The fixed families draw their diagonal; np.diag of it is the dense matrix.
    ident = IdentityFamily().draw(p, None)
    assert np.array_equal(ident, np.ones(p))
    assert np.array_equal(np.diag(ident), np.eye(p))
    half = FixedHalfProjectorFamily().draw(p, None)
    assert np.array_equal(half, [1.0] * 6 + [0.0] * 6)
    assert np.array_equal(np.diag(half), np.diag([1.0] * 6 + [0.0] * 6))
    proj = HaarProjectorFamily(5).draw(p, rng)
    assert np.allclose(proj @ proj, proj, atol=1e-12)
    assert np.trace(proj) == pytest.approx(5.0, abs=1e-10)
    w = RandomPSDFamily().draw(p, rng)
    vals = np.linalg.eigvalsh(w)
    assert vals.min() > -1e-12 and vals.max() == pytest.approx(1.0, abs=1e-12)
    sq = SquaredResolventFamily(0.5 + 2.0j).draw(p, rng)
    assert np.max(np.abs(np.linalg.eigvalsh(sq))) <= 1.0 / 4.0 + 1e-12


def test_gram_family_draws_are_exactly_symmetric_and_unchanged():
    # c^T c and g g^T come out of one symmetric product; mirroring the lower
    # triangle, as earlier versions did, changes no bit.
    for p in (1, 2, 7, 64, 65, 130):
        for family in (HaarProjectorFamily(max(1, p // 2)), RandomPSDFamily()):
            got = family.draw(p, derive_rng(16, p))
            rng = derive_rng(16, p)
            if isinstance(family, HaarProjectorFamily):
                c = haar_frame(family.q, p, rng)
                expected = as_symmetric(c.T @ c)
            else:
                g = rng.standard_normal((p, p))
                w = as_symmetric(g @ g.T)
                expected = w / spectral_norm(w)
            assert got.tobytes() == expected.tobytes(), (family, p)
            assert got.tobytes() == got.T.copy().tobytes(), (family, p)


def test_family_norm_bounds():
    assert IdentityFamily().norm_bound == 1.0
    assert FixedHalfProjectorFamily().norm_bound == 1.0
    assert HaarProjectorFamily(3).norm_bound == 1.0
    assert RandomPSDFamily().norm_bound == 1.0
    assert SquaredResolventFamily(1.0 + 0.5j).norm_bound == pytest.approx(4.0)


def test_family_randomness_flags():
    assert not IdentityFamily().random
    assert not FixedHalfProjectorFamily().random
    assert HaarProjectorFamily(2).random
    assert RandomPSDFamily().random
    assert SquaredResolventFamily(1j).random


@pytest.mark.parametrize(
    "family",
    [
        IdentityFamily(),
        HaarProjectorFamily(8),
        FixedHalfProjectorFamily(),
        RandomPSDFamily(),
        SquaredResolventFamily(0.5 + 2.0j),
        SquaredResolventFamily(0.1234567 + 1.0000001j),
    ],
    ids=["identity", "haar-proj:8", "fixed-half", "random-psd", "sq-resolvent:0.5,2",
         "sq-resolvent:0.1234567,1.0000001"],
)
def test_family_spec_round_trip(family):
    assert parse_family_spec(family.spec()) == family


def test_family_parse_errors_name_token():
    with pytest.raises(ParseError, match="wavelet"):
        parse_family_spec("wavelet:3")
    with pytest.raises(ParseError):
        parse_family_spec("haar-proj:two")
    with pytest.raises(ParseError):
        parse_family_spec("sq-resolvent:1.0")
    with pytest.raises(ParseError, match="takes no arguments"):
        parse_family_spec("identity:3")
    for text in ("sq-resolvent:nan,1", "sq-resolvent:0,inf", "sq-resolvent:0,1e-200"):
        with pytest.raises(ParseError):
            parse_family_spec(text)


def test_sq_resolvent_requires_upper_half_z():
    # im(z) = 1e-200 squares to 0.0, where the norm bound 1 / im(z)^2 divides by zero.
    for z in (1.0 - 0.5j, complex(float("nan"), 1.0), complex(0.0, float("inf")),
              complex(0.0, 1e-200)):
        with pytest.raises(DomainError):
            SquaredResolventFamily(z)
