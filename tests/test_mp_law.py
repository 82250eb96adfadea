"""Tests for the analytic limit law.

The oracles here are independent of the implementation: closed-form moment
polynomials in rho, direct quadrature of the density without the internal
substitution, scipy's adaptive quadratures in ``oracles``, and the defining
quadratic of the transform.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mplab.matcore import DomainError
from mplab.mp_law import MPLaw
from oracles import quad_cdf, quad_mass, quad_moment, quad_stieltjes

RHOS = (0.1, 0.5, 1.0, 2.0, 4.0)

Z_GRID = tuple(
    complex(re, im)
    for re in (-2.0, -0.5, 0.5, 1.5, 3.0)
    for im in (0.05, 0.3, 1.0, 5.0)
)


def closed_moments(rho: float) -> list[float]:
    """Moments of the law as polynomials in rho (mean is identically 1)."""
    return [
        1.0,
        1.0,
        1.0 + rho,
        1.0 + 3.0 * rho + rho**2,
        1.0 + 6.0 * rho + 6.0 * rho**2 + rho**3,
    ]


# ---------------------------------------------------------------------------
# support, atom, density


def test_support_endpoints():
    law = MPLaw(0.25)
    assert law.a == pytest.approx(0.25)
    assert law.b == pytest.approx(2.25)


def test_atom_mass():
    assert MPLaw(0.5).atom0 == 0.0
    assert MPLaw(1.0).atom0 == 0.0
    assert MPLaw(2.0).atom0 == pytest.approx(0.5)
    assert MPLaw(4.0).atom0 == pytest.approx(0.75)


def test_square_case_support_touches_zero():
    law = MPLaw(1.0)
    assert law.a == 0.0
    assert law.b == pytest.approx(4.0)
    assert law.density(0.0) == 0.0  # convention at the origin


def test_density_zero_off_support():
    law = MPLaw(0.5)
    assert law.density(law.a - 1e-6) == 0.0
    assert law.density(law.b + 1e-6) == 0.0
    assert law.density(-1.0) == 0.0


def test_density_positive_inside():
    law = MPLaw(0.5)
    xs = np.linspace(law.a + 1e-3, law.b - 1e-3, 50)
    assert all(law.density(x) > 0 for x in xs)


def test_density_rejects_nan():
    with pytest.raises(DomainError):
        MPLaw(0.5).density(float("nan"))


@pytest.mark.parametrize("rho", RHOS)
def test_density_integrates_to_continuous_mass(rho):
    law = MPLaw(rho)
    mass, _ = quad(law.density, law.a, law.b, limit=400)
    assert mass + law.atom0 == pytest.approx(1.0, abs=1e-9)


def test_invalid_rho():
    for rho in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(DomainError):
            MPLaw(rho)


def test_rho_with_no_float_support_width_rejected():
    # Far enough from 1, (1 -+ sqrt(rho))^2 round to the same float, so b - a
    # is 0 and the quadrature's boundary-layer split would divide by it.
    for rho in (1e40, 1e-40):
        with pytest.raises(DomainError, match="support width"):
            MPLaw(rho)
    for rho in (1e30, 1e-30):
        assert MPLaw(rho).b > MPLaw(rho).a


# ---------------------------------------------------------------------------
# cdf


@pytest.mark.parametrize("rho", RHOS)
def test_cdf_limits(rho):
    law = MPLaw(rho)
    assert law.cdf(-1.0) == 0.0
    assert law.cdf(law.b) == pytest.approx(1.0, abs=1e-10)
    assert law.cdf(law.b + 5.0) == pytest.approx(1.0, abs=1e-10)
    if law.a > 0:
        assert law.cdf(law.a / 2.0) == pytest.approx(law.atom0, abs=1e-12)


def test_cdf_includes_atom_at_zero():
    law = MPLaw(2.0)
    assert law.cdf(0.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("rho", (0.5, 1.0, 2.0))
def test_cdf_matches_direct_density_quadrature(rho):
    # Independent path: integrate the raw density, no substitution.
    law = MPLaw(rho)
    for frac in (0.1, 0.35, 0.6, 0.9):
        x = law.a + frac * (law.b - law.a)
        direct, _ = quad(law.density, law.a, x, limit=400)
        assert law.cdf(x) - law.atom0 == pytest.approx(direct, abs=1e-9)


def test_cdf_monotone():
    law = MPLaw(0.7)
    xs = np.linspace(-0.5, law.b + 0.5, 80)
    vals = [law.cdf(x) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_cdf_rejects_nan():
    with pytest.raises(DomainError):
        MPLaw(1.0).cdf(float("nan"))


# Ratios near 1 (tiny lower edge), at 1 (the second arctangent drops) and
# above 1 (atom at zero), plus the small-rho end where 1/rho amplifies rounding.
CLOSED_FORM_RHOS = (0.01, 0.1, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0, 4.0, 10.0)


def edge_grid(law: MPLaw) -> np.ndarray:
    """Points inside the support coming within 1e-14 (b - a) of both edges."""
    offs = np.concatenate([np.logspace(-14, -1, 14), np.linspace(0.1, 0.9, 9)])
    width = law.b - law.a
    return np.concatenate([law.a + offs * width, law.b - offs * width, [law.a]])


@pytest.mark.parametrize("rho", CLOSED_FORM_RHOS)
def test_cdf_closed_form_matches_quadrature_near_edges(rho):
    law = MPLaw(rho)
    xs = edge_grid(law)
    closed = law.cdf(xs)
    reference = np.array([law.cdf_quadrature(x) for x in xs])
    assert np.max(np.abs(closed - reference)) <= 1e-12


@pytest.mark.parametrize("rho", CLOSED_FORM_RHOS)
def test_cdf_exact_off_the_support(rho):
    law = MPLaw(rho)
    assert law.cdf(-1e-300) == 0.0
    assert law.cdf(-np.inf) == 0.0
    if law.a > 0:
        assert law.cdf(0.0) == law.atom0
        assert law.cdf(np.nextafter(law.a, 0.0)) == law.atom0
    assert law.cdf(law.b) == 1.0
    assert law.cdf(np.inf) == 1.0


def test_cdf_square_case_starts_at_zero():
    law = MPLaw(1.0)
    assert law.cdf(0.0) == pytest.approx(0.0, abs=1e-15)
    assert law.cdf(1e-12) > 0.0


def test_cdf_scalar_returns_float_array_returns_array():
    law = MPLaw(2.0)
    for x in (1.0, 0, np.float64(1.0), np.array(1.0)):
        assert type(law.cdf(x)) is float
    xs = np.array([[0.0, 0.5], [1.0, 7.0]])
    out = law.cdf(xs)
    assert isinstance(out, np.ndarray)
    assert out.shape == xs.shape
    expected = [[law.cdf(v) for v in row] for row in xs.tolist()]
    np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-15)


def test_cdf_rejects_nan_anywhere_in_array():
    law = MPLaw(0.5)
    with pytest.raises(DomainError):
        law.cdf(np.array([0.5, 1.0, np.nan, 2.0]))
    with pytest.raises(DomainError):
        law.cdf_quadrature(float("nan"))


@pytest.mark.parametrize("rho", (1.0 / 4096, 4096.0))
def test_cdf_closed_form_accurate_over_the_cli_ratio_range(rho):
    # The closed form loses accuracy as 1/rho grows (about 2e-12 at
    # rho = 1/4096, 1.4e-8 at 1e-6).  1/4096 and 4096 are the extreme ratios
    # the CLI allows: p = 1 against n = MAX_DIM, and the reverse.
    law = MPLaw(rho)
    xs = edge_grid(law)
    reference = np.array([law.cdf_quadrature(x) for x in xs])
    assert np.max(np.abs(law.cdf(xs) - reference)) <= 1e-10


@pytest.mark.parametrize("rho", CLOSED_FORM_RHOS)
def test_cdf_rule_matches_adaptive_quadrature(rho):
    law = MPLaw(rho)
    for x in edge_grid(law):
        assert abs(law.cdf_quadrature(x) - quad_cdf(law, x)) <= 1e-12, x


@pytest.mark.parametrize("rho", (1.0 - 1e-7, 1.0 - 1e-10))
def test_adaptive_quadrature_cdf_matches_closed_form_near_ratio_one(rho):
    # The boundary layer's tail reaches to pi / 2; an oracle seeded only at
    # layer * {1, 8, 64} is off by 5e-10 at rho = 1 - 1e-7 and 5e-13 at
    # 1 - 1e-10.  Seeded with the whole ladder it is within 4e-16 at both.
    law = MPLaw(rho)
    for x in edge_grid(law):
        assert abs(quad_cdf(law, x) - law.cdf(x)) <= 1e-14, x


@pytest.mark.parametrize("rho", CLOSED_FORM_RHOS)
def test_mass_rule_matches_adaptive_quadrature(rho):
    law = MPLaw(rho)
    assert abs(law.mass_quadrature() - quad_mass(law)) <= 1e-12
    assert abs(law.mass_quadrature() + law.atom0 - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_cdf_closed_form_matches_quadrature_property(rho, frac):
    law = MPLaw(rho)
    x = law.a + frac * (law.b - law.a)
    assert abs(law.cdf(x) - law.cdf_quadrature(x)) <= 1e-12


# ---------------------------------------------------------------------------
# moments


@pytest.mark.parametrize("rho", RHOS)
def test_moments_match_closed_forms(rho):
    law = MPLaw(rho)
    expected = closed_moments(rho)
    for k in range(5):
        assert law.moment(k) == pytest.approx(expected[k], abs=1e-9, rel=1e-9)


@pytest.mark.parametrize("rho", (1e-6, 0.1, 1.0, 4.0, 1e6))
def test_narayana_moments_match_adaptive_quadrature(rho):
    law = MPLaw(rho)
    for k in range(9):
        reference = quad_moment(law, k)
        assert abs(law.moment(k) - reference) <= 1e-12 * reference, k


def test_moment_of_any_order():
    law = MPLaw(1.0)
    # At rho = 1 the moments are the Catalan numbers.
    assert [law.moment(k) for k in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    assert law.moment(np.int64(3)) == 5.0


def test_moment_rejects_bad_order():
    law = MPLaw(1.0)
    for k in (-1, 1.5, True):
        with pytest.raises(DomainError):
            law.moment(k)


# ---------------------------------------------------------------------------
# Stieltjes transform


@pytest.mark.parametrize("rho", RHOS)
def test_stieltjes_matches_quadrature(rho):
    law = MPLaw(rho)
    for z in Z_GRID:
        closed = law.stieltjes(z)
        reference = law.stieltjes_quadrature(z)
        assert abs(closed - reference) < 1e-10


@pytest.mark.parametrize("rho", CLOSED_FORM_RHOS)
def test_stieltjes_rule_matches_adaptive_quadrature(rho):
    # The law grid, and the same real parts close to the axis, where the
    # integrand peaks sharply inside the support.
    law = MPLaw(rho)
    near_axis = tuple(complex(z.real, im) for z in Z_GRID[::4] for im in (1e-2, 1e-3))
    for z in Z_GRID + near_axis:
        assert abs(law.stieltjes_quadrature(z) - quad_stieltjes(law, z)) <= 1e-12, z


@pytest.mark.parametrize("rho", RHOS)
def test_stieltjes_solves_defining_quadratic(rho):
    law = MPLaw(rho)
    for z in Z_GRID:
        m = law.stieltjes(z)
        resid = rho * z * m * m + (z + rho - 1.0) * m + 1.0
        assert abs(resid) < 1e-12
        assert m.imag > 0


def test_stieltjes_large_argument_tail():
    # m(z) ~ -1/z far from the support; at z = 1e6 i the gap to -1/z is the
    # next term m_1/|z|^2 = 1e-12.
    for rho in RHOS:
        law = MPLaw(rho)
        z = complex(0.0, 1e6)
        assert abs(law.stieltjes(z) - (-1.0 / z)) <= 1e-9


def test_stieltjes_rejects_lower_half_plane():
    law = MPLaw(0.5)
    for z in (1.0, 1 - 1j, complex(2, 0)):
        with pytest.raises(DomainError):
            law.stieltjes(z)
    with pytest.raises(DomainError):
        law.stieltjes_quadrature(1 - 1j)


def test_stieltjes_is_continuous_in_z():
    law = MPLaw(1.0)
    m1 = law.stieltjes(0.5 + 0.5j)
    m2 = law.stieltjes(0.5001 + 0.5j)
    assert abs(m1 - m2) < 1e-2


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=-1.0, max_value=7.0),
)
def test_cdf_in_unit_interval(rho, x):
    law = MPLaw(rho)
    v = law.cdf(x)
    assert -1e-12 <= v <= 1.0 + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=-2.0, max_value=4.0),
    st.floats(min_value=0.05, max_value=4.0),
)
def test_stieltjes_upper_half_property(rho, u, v):
    m = MPLaw(rho).stieltjes(complex(u, v))
    assert m.imag > 0
    assert abs(m) <= 1.0 / v + 1e-9
