"""Tests for empirical spectral distributions and distance-to-law machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplab.cli.config import ExperimentConfig
from mplab.cli.experiments import run_experiment
from mplab.ensembles import (
    IIDGaussian,
    IIDSparseSpike,
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
from mplab.spectra import gram, gram_esd, ks_distance, sample_covariance
from oracles import esd, projected_covariance


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


@pytest.mark.parametrize("p, n", [(5, 7), (1, 9), (9, 1), (64, 129), (257, 1000), (1024, 2048)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_sample_covariance_is_the_mirrored_product_bit_for_bit(p, n, order):
    # The old construction symmetrized a @ a.T / n by mirroring its lower
    # triangle; numpy's symmetric product must give the same bits unmirrored.
    # Sparse entries with random signs make signed zeros in the products.
    rng = derive_rng(17, p, n)
    x = np.asarray(IIDSparseSpike().sample(p, n, rng) * rng.standard_normal((p, n)), order=order)
    s = sample_covariance(x)
    old = as_symmetric(x @ x.T / n)
    assert np.array_equal(s.view(np.uint64), old.view(np.uint64))
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
    x = sample_data_matrix(IIDGaussian(), 30, 20, derive_rng(0))
    e = esd(sample_covariance(x), psd=True)
    assert np.all(e.eigenvalues >= 0)
    # p > n: rank deficiency forces at least p - n (near-)zero eigenvalues.
    assert np.count_nonzero(e.eigenvalues < 1e-12) >= 10


# ---------------------------------------------------------------------------
# gram and gram_esd

MODELS = ["iid-gauss", "iid-rademacher", "sparse-spike", "block-xi", "gauss-cov:identity",
          "gauss-cov:toeplitz:0.5", "gauss-cov:spiked:3,0", "weak-ma:1,0.5"]


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
        g, dim = gram(x)
        got = gram_esd(g, dim).eigenvalues
        assert dim == p and got.size == p
        assert np.all(np.diff(got) >= 0) and np.all(got >= 0)
        assert np.max(np.abs(got - want)) <= 1e-12 * want[-1], (model, p, n, seed)
        # p - n eigenvalues are exact zeros; so are those of the zero rows of X.
        zero_rows = int(np.sum(~x.any(axis=1)))
        assert np.count_nonzero(got == 0.0) >= max(p - n, zero_rows)
        if p <= n:
            assert np.array_equal(g.view(np.uint64), s.view(np.uint64))
            off_diagonal = np.count_nonzero(s - np.diag(np.diagonal(s)), axis=1)
            if np.all(off_diagonal > 0):  # nothing deflated: the same bits
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        else:
            assert g.shape == (n, n)
            assert np.array_equal(g.view(np.uint64), g.T.view(np.uint64))


@pytest.mark.parametrize("p, n", [(6, 4), (4, 6), (5, 5)])
def test_gram_esd_of_zero_data_is_all_zeros(p, n):
    got = gram_esd(*gram(np.zeros((p, n)))).eigenvalues
    assert np.array_equal(got, np.zeros(p))


def test_gram_esd_wider_than_tall_hand_case():
    # p = n + 1: S = X X^T / 2 has rank 2, and X^T X / 2 = [[1, 1/2], [1/2, 1]]
    # has eigenvalues 1/2 and 3/2; the third eigenvalue of S is exactly 0.
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    g, p = gram(x)
    assert p == 3 and np.array_equal(g, [[1.0, 0.5], [0.5, 1.0]])
    lam = gram_esd(g, p).eigenvalues
    assert lam[0] == 0.0
    assert np.allclose(lam, [0.0, 0.5, 1.5], rtol=0, atol=1e-15)


def test_gram_esd_solves_a_row_with_one_off_diagonal_entry():
    # Column 2 has two nonzeros, so rows 1 and 2 of the Gram each carry
    # exactly one off-diagonal entry and must be solved together; row 0 has
    # none, so its diagonal 1/3 is read off.  S = [[1, 0, 0], [0, 5, 1],
    # [0, 1, 1]] / 3 has eigenvalues 1/3 and (3 -+ sqrt 5) / 3.
    x = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 1.0]])
    lam = gram_esd(*gram(x)).eigenvalues
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
    lam = gram_esd(*gram(x)).eigenvalues
    # Rows 1 and 4 are orthogonal with squared norm 5; row 2 has squared norm 9.
    assert np.array_equal(lam, np.array([0.0, 0.0, 5.0, 5.0, 9.0]) / 4.0)


def test_gram_rejects_bad_input_in_both_orientations():
    with pytest.raises(InvalidInputError):
        gram(np.ones(4))
    with pytest.raises(DomainError):
        gram(np.ones((3, 0)))
    for shape in ((5, 7), (7, 5)):
        for bad in (np.nan, np.inf, -np.inf, 1e200):
            for i, j in ((0, 0), (2, 4), (4, 3)):
                x = np.ones(shape)
                x[i, j] = bad
                for a in (x, np.asfortranarray(x)):
                    with pytest.raises(InvalidInputError):
                        gram(a)


def test_gram_esd_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        gram_esd(np.ones((2, 3)), 3)
    with pytest.raises(InvalidInputError):
        gram_esd(np.array([[1.0, np.nan], [np.nan, 1.0]]), 2)
    with pytest.raises(DomainError):
        gram_esd(np.eye(3), 2)
    with pytest.raises(InvalidInputError):
        gram_esd(np.diag([-1.0, 1.0]), 3)


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
        x = sample_data_matrix(IIDGaussian(), p, 2 * p, derive_rng(11, p))
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
    x = sample_data_matrix(IIDGaussian(), p, 2 * p, derive_rng(12))
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
