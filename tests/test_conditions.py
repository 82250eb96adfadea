"""Tests for the concentration diagnostics.

Closed-form oracles used here:

* Gaussian truncated second moment: for X ~ N(0,1) and c > 0,
  E X^2 1{|X| > c} = 2 (c phi(c) + Q(c)) with phi the standard normal pdf
  and Q(c) = 1 - Phi(c), by integration by parts.
* Half-support squared norms: a block-xi vector has x^T x = 2 chi2_{p/2}
  exactly, so norm-drift band probabilities are chi-square cdf differences.
* Gaussian identity quadratic form: x^T x ~ chi2_p, so the exceedance
  frequency in chebyshev_bound_check has an exact chi-square value.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chi2, norm

from mplab.conditions import (
    FixedHalfProjectorFamily,
    HaarProjectorFamily,
    IdentityFamily,
    RandomPSDFamily,
    SquaredResolventFamily,
    chebyshev_bound_check,
    concentration_probe,
    cov_spread_stat,
    draw_family_matrix,
    family_is_random,
    family_norm_bound,
    family_spec_string,
    lindeberg_stat,
    mp_property_trial,
    norm_drift_stat,
    parse_family_spec,
    quadform_stat,
)
from mplab.ensembles import (
    BlockXi,
    GaussianCov,
    IIDGaussian,
    IIDRademacher,
    IIDSparseSpike,
    Identity,
    ParseError,
    Spiked,
    Toeplitz,
    WeakDependent,
    derive_rng,
    sample_data_matrix,
)
from mplab.matcore import DomainError, InvalidInputError, coordinate_frame, haar_frame
from mplab.mp_law import MPLaw
from mplab.spectra import esd, ks_distance, projected_covariance, sample_covariance


def gaussian_tail_second_moment(c: float) -> float:
    return 2.0 * (c * norm.pdf(c) + norm.sf(c))


# ---------------------------------------------------------------------------
# lindeberg_stat


def test_lindeberg_gaussian_matches_closed_form():
    p, eps, trials = 16, 0.25, 20_000
    est = lindeberg_stat(IIDGaussian(), p, eps, trials, derive_rng(0))
    expected = gaussian_tail_second_moment(eps * np.sqrt(p))  # c = 1.0
    assert expected == pytest.approx(0.80127, abs=5e-5)  # frozen from the oracle
    assert abs(est.value - expected) < 4 * est.se
    assert est.trials == trials


def test_lindeberg_rademacher_is_exact_indicator():
    # cut above 1: no entry ever exceeds, tail mass identically zero.
    est = lindeberg_stat(IIDRademacher(), 16, 0.5, 50, derive_rng(1))
    assert est.value == 0.0 and est.se == 0.0
    # cut below 1: every entry exceeds, statistic is exactly 1 each trial.
    est = lindeberg_stat(IIDRademacher(), 16, 0.2, 50, derive_rng(1))
    assert est.value == 1.0 and est.se == 0.0


def test_lindeberg_sparse_counts_spikes():
    p, trials = 32, 8000
    rng = derive_rng(2)
    est = lindeberg_stat(IIDSparseSpike(), p, 0.5, trials, rng)
    # Every nonzero entry has magnitude sqrt(p) > 0.5 sqrt(p) and contributes
    # p/p = 1, so the statistic equals the spike count: mean 1, variance ~ 1.
    assert abs(est.value - 1.0) < 4 * est.se
    assert est.se == pytest.approx(1.0 / np.sqrt(trials), rel=0.15)


def test_lindeberg_rejects_bad_args():
    with pytest.raises(DomainError):
        lindeberg_stat(IIDGaussian(), 8, -0.1, 10, derive_rng(0))
    with pytest.raises(DomainError):
        lindeberg_stat(IIDGaussian(), 8, 0.5, 0, derive_rng(0))


def test_single_trial_estimate_has_infinite_se():
    est = lindeberg_stat(IIDGaussian(), 8, 0.5, 1, derive_rng(3))
    assert est.se == np.inf


# ---------------------------------------------------------------------------
# quadform_stat


def test_quadform_rademacher_identity_is_exactly_zero():
    p = 24
    out = quadform_stat(IIDRademacher(), np.eye(p), derive_rng(4))
    assert out.value == 0.0
    assert out.p == p
    assert out.model == "iid-rademacher"
    assert out.family == "explicit"


def test_quadform_gaussian_spiked_matrix_centers_correctly():
    p, trials = 16, 6000
    a = np.diag(np.concatenate([[2.0], np.ones(p - 1)]))
    rng = derive_rng(5)
    vals = np.array([quadform_stat(IIDGaussian(), a, rng).value for _ in range(trials)])
    se = vals.std(ddof=1) / np.sqrt(trials)
    assert abs(vals.mean()) < 4 * se


def test_quadform_nonisotropic_centering():
    # For GaussianCov the centering is tr(Sigma A), not tr(A).
    p, trials = 8, 6000
    cov = Toeplitz(0.5)
    model = GaussianCov(cov)
    a = np.eye(p)
    rng = derive_rng(6)
    vals = np.array([quadform_stat(model, a, rng).value for _ in range(trials)])
    se = vals.std(ddof=1) / np.sqrt(trials)
    assert abs(vals.mean()) < 4 * se


# ---------------------------------------------------------------------------
# concentration_probe


def test_probe_identity_family_rademacher_never_exceeds():
    est = concentration_probe(IIDRademacher(), IdentityFamily(), 32, 0.1, 40, derive_rng(7))
    assert est.value == 0.0


def test_probe_is_deterministic_given_stream():
    a = concentration_probe(IIDGaussian(), RandomPSDFamily(), 16, 0.05, 25, derive_rng(8))
    b = concentration_probe(IIDGaussian(), RandomPSDFamily(), 16, 0.05, 25, derive_rng(8))
    assert a == b
    assert 0.0 <= a.value <= 1.0


def test_probe_small_dimension_gaussian_exceeds_often():
    # At p = 4 the normalized quadratic form has std ~ sqrt(2/p) = 0.71,
    # so exceedances at eps = 0.1 are common — sanity check direction.
    est = concentration_probe(IIDGaussian(), IdentityFamily(), 4, 0.1, 400, derive_rng(9))
    assert est.value > 0.5


# ---------------------------------------------------------------------------
# cov_spread_stat and chebyshev_bound_check


def test_cov_spread_identity_and_spiked():
    p = 256
    assert cov_spread_stat(np.eye(p)) == 1.0 / p
    s = Spiked(1, float(p)).matrix(p)
    assert cov_spread_stat(s) == pytest.approx((p * p + p - 1) / p**2, rel=1e-14)


def test_cov_spread_rejects_asymmetric_matrix():
    s = np.eye(4)
    s[3, 0] = 0.5
    with pytest.raises(InvalidInputError):
        cov_spread_stat(s)


def test_chebyshev_bound_hand_recompute_and_exact_frequency():
    p, eps, trials = 64, 0.5, 4000
    out = chebyshev_bound_check(Identity(), np.eye(p), p, eps, trials, derive_rng(10))
    # Bound: 2 * 1 * tr(I)/ (eps p)^2 = 2 / (eps^2 p).
    assert out.bound == pytest.approx(2.0 / (eps * eps * p), rel=1e-12)
    # Exact exceedance for x^T x ~ chi2_p.
    exact = 1.0 - (chi2.cdf(p * (1 + eps), df=p) - chi2.cdf(p * (1 - eps), df=p))
    se = np.sqrt(exact * (1 - exact) / trials)
    assert abs(out.observed - exact) < 4 * se
    assert out.observed <= out.bound + 4 * out.se


def test_chebyshev_rejects_mismatched_matrix():
    with pytest.raises(DomainError):
        chebyshev_bound_check(Identity(), np.eye(4), 8, 0.5, 10, derive_rng(0))


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


def test_mp_property_fixed_half_reproducible_by_hand():
    model, p, n, q = IIDGaussian(), 30, 60, 15
    got = mp_property_trial(model, p, n, q, derive_rng(13), frame_mode="fixed-half")
    x = sample_data_matrix(model, p, n, derive_rng(13))
    s = sample_covariance(x)
    e = esd(np.ascontiguousarray(s[:q, :q]), psd=True)
    assert got == ks_distance(e, MPLaw(q / n))


@pytest.mark.parametrize("frame_mode", ["haar", "fixed-half"])
def test_mp_property_matches_projected_covariance_oracle(frame_mode):
    # The trial compresses the data before the Gram; the oracle compresses
    # the Gram, C (X X^T / n) C^T.  The two differ only in rounding.
    model, p, n, q = IIDGaussian(), 96, 80, 48
    for seed in range(5):
        got = mp_property_trial(model, p, n, q, derive_rng(seed), frame_mode=frame_mode)
        rng = derive_rng(seed)
        frame = haar_frame(q, p, rng) if frame_mode == "haar" else coordinate_frame(q, p)
        s = sample_covariance(sample_data_matrix(model, p, n, rng))
        e = esd(projected_covariance(frame, s), psd=True)
        assert abs(got - ks_distance(e, MPLaw(q / n))) <= 1e-12


def test_mp_property_haar_small_case_in_range():
    val = mp_property_trial(IIDGaussian(), 40, 80, 20, derive_rng(14))
    assert 0.0 < val < 0.5
    again = mp_property_trial(IIDGaussian(), 40, 80, 20, derive_rng(14))
    assert val == again


def test_mp_property_validates_frame_args():
    with pytest.raises(DomainError):
        mp_property_trial(IIDGaussian(), 8, 16, 0, derive_rng(0))
    with pytest.raises(DomainError):
        mp_property_trial(IIDGaussian(), 8, 16, 9, derive_rng(0))
    with pytest.raises(DomainError):
        mp_property_trial(IIDGaussian(), 8, 16, 4, derive_rng(0), frame_mode="dyadic")


# ---------------------------------------------------------------------------
# matrix families and their grammar


def test_family_draws_have_claimed_structure():
    rng = derive_rng(15)
    p = 12
    assert np.array_equal(draw_family_matrix(IdentityFamily(), p, rng), np.eye(p))
    half = draw_family_matrix(FixedHalfProjectorFamily(), p, rng)
    assert np.array_equal(np.diag(half), [1.0] * 6 + [0.0] * 6)
    proj = draw_family_matrix(HaarProjectorFamily(5), p, rng)
    assert np.allclose(proj @ proj, proj, atol=1e-12)
    assert np.trace(proj) == pytest.approx(5.0, abs=1e-10)
    w = draw_family_matrix(RandomPSDFamily(), p, rng)
    vals = np.linalg.eigvalsh(w)
    assert vals.min() > -1e-12 and vals.max() == pytest.approx(1.0, abs=1e-12)
    sq = draw_family_matrix(SquaredResolventFamily(0.5 + 2.0j), p, rng)
    assert np.max(np.abs(np.linalg.eigvalsh(sq))) <= 1.0 / 4.0 + 1e-12


def test_family_norm_bounds():
    assert family_norm_bound(IdentityFamily()) == 1.0
    assert family_norm_bound(HaarProjectorFamily(3)) == 1.0
    assert family_norm_bound(SquaredResolventFamily(1.0 + 0.5j)) == pytest.approx(4.0)


def test_family_randomness_flags():
    assert not family_is_random(IdentityFamily())
    assert not family_is_random(FixedHalfProjectorFamily())
    assert family_is_random(HaarProjectorFamily(2))
    assert family_is_random(RandomPSDFamily())
    assert family_is_random(SquaredResolventFamily(1j))


@pytest.mark.parametrize(
    "family",
    [
        IdentityFamily(),
        HaarProjectorFamily(8),
        FixedHalfProjectorFamily(),
        RandomPSDFamily(),
        SquaredResolventFamily(0.5 + 2.0j),
    ],
    ids=family_spec_string,
)
def test_family_spec_round_trip(family):
    assert parse_family_spec(family_spec_string(family)) == family


def test_family_parse_errors_name_token():
    with pytest.raises(ParseError, match="wavelet"):
        parse_family_spec("wavelet:3")
    with pytest.raises(ParseError):
        parse_family_spec("haar-proj:two")
    with pytest.raises(ParseError):
        parse_family_spec("sq-resolvent:1.0")
    with pytest.raises(ParseError):
        parse_family_spec("identity:1")


def test_sq_resolvent_requires_upper_half_z():
    with pytest.raises(DomainError):
        SquaredResolventFamily(1.0 - 0.5j)
