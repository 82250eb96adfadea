"""Tests for the dense symmetric kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplab import matcore
from mplab.matcore import (
    DomainError,
    InvalidInputError,
    Spectrum,
    as_symmetric,
    eigh,
    haar_frame,
    rank_one_trace_update,
    resolvent_trace,
    spectral_norm,
)
from oracles import as_frame

# Guaranteed reconstruction accuracy ||Q diag(w) Q^T - A|| relative to ||A||.
RECON_TOL = 1e-9


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_psd(rng, p):
    g = rng.standard_normal((p, p))
    return as_symmetric(g @ g.T / p)


# ---------------------------------------------------------------------------
# construction and validation


def test_as_symmetric_mirrors_lower_triangle():
    m = np.array([[1.0, 99.0], [2.0, 3.0]])
    out = as_symmetric(m)
    expected = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(out, expected)


def test_as_symmetric_is_bitwise_symmetric():
    a = _rng(1).standard_normal((8, 8))
    out = as_symmetric(a)
    assert np.array_equal(out, out.T)


def test_as_symmetric_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        as_symmetric(np.ones((2, 3)))
    with pytest.raises(InvalidInputError):
        as_symmetric(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        as_symmetric(np.ones(4))


def test_as_frame_accepts_orthonormal_rows():
    f = as_frame(np.eye(2, 5))
    assert f.shape == (2, 5)


def test_as_frame_rejects_non_orthonormal():
    with pytest.raises(DomainError):
        as_frame(np.ones((2, 5)))
    with pytest.raises(InvalidInputError):
        as_frame(np.eye(5, 2))  # q > p


def test_require_upper_half():
    assert matcore.require_upper_half(1 + 2j) == 1 + 2j
    for z in (1.0, 1 - 1j, complex(0, 0)):
        with pytest.raises(DomainError):
            matcore.require_upper_half(z)


# ---------------------------------------------------------------------------
# eigendecomposition


def test_eigh_known_two_by_two():
    # [[2, 1], [1, 2]] has eigenvalues 1 and 3 with ± diagonal eigenvectors.
    s = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(s.eigenvalues, [1.0, 3.0], atol=1e-12)
    recon = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.T
    assert np.allclose(recon, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)


def test_eigh_ascending_and_orthonormal():
    m = _random_psd(_rng(2), 17)
    s = eigh(m)
    assert np.all(np.diff(s.eigenvalues) >= 0)
    assert np.allclose(s.eigenvectors.T @ s.eigenvectors, np.eye(17), atol=1e-10)
    recon = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.T
    scale = max(1.0, float(np.max(np.abs(m))))
    assert np.max(np.abs(recon - m)) <= RECON_TOL * scale


def test_eigh_values_only():
    m = _random_psd(_rng(3), 9)
    s = eigh(m, want_vectors=False)
    assert s.eigenvectors is None
    full = eigh(m)
    assert np.allclose(s.eigenvalues, full.eigenvalues, atol=1e-12)


def test_eigh_deterministic():
    m = _random_psd(_rng(4), 31)
    s1, s2 = eigh(m), eigh(m)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_eigh_reads_only_the_lower_triangle():
    m = _random_psd(_rng(5), 40)
    garbage = m.copy()
    garbage[np.triu_indices(40, 1)] = 7.0
    for want_vectors in (False, True):
        a, b = eigh(m, want_vectors), eigh(garbage, want_vectors)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert (a.eigenvectors is None) or np.array_equal(a.eigenvectors, b.eigenvectors)


def test_spectrum_p():
    assert Spectrum(eigenvalues=np.zeros(5)).p == 5


# ---------------------------------------------------------------------------
# PSD helpers


def test_clamp_psd_zeroes_roundoff_negatives():
    vals = np.array([-1e-16, 0.5, 2.0])
    out = matcore.clamp_psd_eigenvalues(vals)
    assert np.all(out >= 0) and out[2] == 2.0


def test_clamp_psd_rejects_indefinite():
    with pytest.raises(InvalidInputError):
        matcore.clamp_psd_eigenvalues(np.array([-1.0, 2.0]))


# ---------------------------------------------------------------------------
# resolvent traces


def test_resolvent_trace_matches_dense_inverse():
    m = _random_psd(_rng(6), 10)
    z = 0.3 + 0.7j
    s = eigh(m)
    direct = np.trace(np.linalg.inv(m.astype(complex) - z * np.eye(10))) / 10
    assert abs(resolvent_trace(s, z) - direct) < 1e-12


def test_resolvent_trace_norm_bound_and_halfplane():
    m = _random_psd(_rng(7), 20)
    s = eigh(m, want_vectors=False)
    for z in (1j, -2 + 0.25j, 3 + 2j):
        val = resolvent_trace(s, z)
        assert abs(val) <= 1.0 / z.imag + 1e-12
        assert val.imag > 0
    with pytest.raises(DomainError):
        resolvent_trace(s, 1.0 - 1j)


def test_rank_one_update_matches_recomputation():
    rng = _rng(8)
    m = _random_psd(rng, 15)
    w = rng.standard_normal(15)
    z = -0.5 + 0.4j
    s = eigh(m)
    updated = rank_one_trace_update(s, w, z)
    direct = np.trace(np.linalg.inv((m + np.outer(w, w)).astype(complex) - z * np.eye(15)))
    assert abs(updated - direct) < 1e-9 * (1 + abs(direct))


def test_rank_one_update_requires_vectors_and_matching_length():
    m = _random_psd(_rng(9), 6)
    values_only = eigh(m, want_vectors=False)
    with pytest.raises(InvalidInputError):
        rank_one_trace_update(values_only, np.ones(6), 1j)
    with pytest.raises(InvalidInputError):
        rank_one_trace_update(eigh(m), np.ones(7), 1j)


# ---------------------------------------------------------------------------
# frames


def test_haar_frame_is_orthonormal_and_deterministic():
    f = haar_frame(4, 11, _rng(10))
    assert f.shape == (4, 11)
    assert np.allclose(f @ f.T, np.eye(4), atol=1e-12)
    again = haar_frame(4, 11, _rng(10))
    assert np.array_equal(f, again)


def test_haar_frame_differs_across_seeds():
    assert not np.array_equal(haar_frame(3, 8, _rng(0)), haar_frame(3, 8, _rng(1)))


def test_haar_frame_second_moment():
    # E C^T C = (q/p) I: Monte Carlo check with a generous 4-sigma band.
    q, p, reps = 3, 6, 2000
    rng = _rng(11)
    acc = np.zeros((p, p))
    for _ in range(reps):
        f = haar_frame(q, p, rng)
        acc += f.T @ f
    acc /= reps
    # Diagonal entries of C^T C have variance O(1/p); 4 sigma ~ 0.02 here.
    assert np.max(np.abs(acc - (q / p) * np.eye(p))) < 0.03


def test_haar_frame_rejects_bad_dims():
    with pytest.raises(DomainError):
        haar_frame(5, 4, _rng(0))
    with pytest.raises(DomainError):
        haar_frame(0, 4, _rng(0))


# ---------------------------------------------------------------------------
# norms


def test_spectral_norm_known_values():
    assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)
    assert spectral_norm(np.zeros((2, 3))) == 0.0


def test_spectral_norm_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        spectral_norm(np.ones(3))
    with pytest.raises(InvalidInputError):
        spectral_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_as_symmetric_idempotent(p, seed):
    a = np.random.default_rng(seed).standard_normal((p, p))
    s = as_symmetric(a)
    assert np.array_equal(as_symmetric(s), s)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_resolvent_norm_bound_property(p, seed, v, u):
    m = _random_psd(np.random.default_rng(seed), p)
    val = resolvent_trace(eigh(m, want_vectors=False), complex(u, v))
    assert abs(val) <= 1.0 / v + 1e-9


# ---------------------------------------------------------------------------
# one values-only LAPACK entry point


def _random_symmetric(rng, k):
    g = rng.standard_normal((k, k))
    return g + g.T


@pytest.mark.parametrize("order", [1, 2, 3, 7, 256, 500, 501, 512])
def test_stacked_eigvalsh_is_each_matrix_alone_bit_for_bit(order):
    rng = _rng(order)
    mats = [_random_symmetric(rng, order) for _ in range(2)]
    for group in (mats, mats[:1]):  # one stacked call, and a lone matrix
        got = matcore._eigvalsh(group)
        assert [v.tobytes() for v in got] == [np.linalg.eigvalsh(a).tobytes() for a in group]


def test_stacked_eigvalsh_keeps_input_order_across_orders():
    rng = _rng(12)
    mats = [_random_symmetric(rng, k) for k in (7, 3, 256, 7, 1, 3, 7, 256)]
    got = matcore._eigvalsh(mats)
    assert [v.tobytes() for v in got] == [np.linalg.eigvalsh(a).tobytes() for a in mats]
    assert matcore._eigvalsh([]) == []


def test_stacked_eigvalsh_makes_one_call_per_order(monkeypatch):
    shapes, solve = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or solve(a))
    rng = _rng(13)
    matcore._eigvalsh([_random_symmetric(rng, k) for k in (4, 9, 4, 4)])
    assert sorted(shapes) == [(1, 9, 9), (3, 4, 4)]


def test_stacked_eigvalsh_failure_is_a_convergence_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(matcore.ConvergenceError):
        matcore._eigvalsh([np.eye(3), np.eye(3)])
    with pytest.raises(matcore.ConvergenceError):
        eigh(np.eye(3), want_vectors=False)
