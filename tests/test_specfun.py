import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn, hyp1f1, roots_genlaguerre, sph_harm_y

from diracctx.specfun import (
    hyp1f1_terminating,
    quadrature_nodes,
    radial_nodes,
    spherical_harmonic,
)

FOUR_PI = 4.0 * math.pi


# --- terminating 1F1 --------------------------------------------------------

def test_hyp1f1_empty_tail():
    assert hyp1f1_terminating(0, 3.0, 2.5) == 1.0


def test_hyp1f1_two_terms():
    assert hyp1f1_terminating(-1, 3.0, 2.5) == pytest.approx(1.0 - 2.5 / 3.0, rel=1e-15)


def test_hyp1f1_three_terms_hand_oracle():
    # 1 - 2/5 + 1/30 summed by hand
    assert hyp1f1_terminating(-2, 5.0, 1.0) == pytest.approx(19.0 / 30.0, rel=1e-15)


@pytest.mark.parametrize("bad", [1, 3])
def test_hyp1f1_rejects_positive_first_argument(bad):
    with pytest.raises(ValueError):
        hyp1f1_terminating(bad, 3.0, 1.0)


def test_hyp1f1_rejects_non_integer_first_argument():
    with pytest.raises(ValueError):
        hyp1f1_terminating(-1.5, 3.0, 1.0)


def test_hyp1f1_rejects_non_positive_integer_q():
    with pytest.raises(ValueError):
        hyp1f1_terminating(-2, -1.0, 1.0)


def _hyp1f1_fraction_oracle(p, q_num, q_den, z_num, z_den):
    """Exact rational term-by-term Pochhammer sum, plus the sum of |terms|."""
    q = Fraction(q_num, q_den)
    z = Fraction(z_num, z_den)
    total = Fraction(1)
    scale = Fraction(1)
    term = Fraction(1)
    for k in range(-p):
        term *= Fraction(p + k) / (q + k) * z / (k + 1)
        total += term
        scale += abs(term)
    return total, scale


@given(
    p=st.integers(min_value=-20, max_value=0),
    q_num=st.integers(min_value=1, max_value=40),
    q_den=st.integers(min_value=1, max_value=4),
    z_num=st.integers(min_value=-30, max_value=30),
    z_den=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=200)
def test_hyp1f1_matches_exact_rational_sum(p, q_num, q_den, z_num, z_den):
    # float summation cannot beat its conditioning, so the 1e-14 agreement is
    # measured against the series scale sum(|terms|)
    exact, scale = _hyp1f1_fraction_oracle(p, q_num, q_den, z_num, z_den)
    got = hyp1f1_terminating(p, q_num / q_den, z_num / z_den)
    assert abs(got - float(exact)) <= 1e-14 * float(scale)


def test_hyp1f1_vectorizes_over_z():
    z = np.array([0.0, 0.5, 2.0])
    got = hyp1f1_terminating(-1, 3.0, z)
    assert np.allclose(got, 1.0 - z / 3.0)


@pytest.mark.parametrize("q", [1.3, 2.0, 3.5, 10.0])
def test_hyp1f1_at_n39_matches_scipy(q):
    # n = 39 is the largest n_tilde of the n <= 40 domain; term-by-term
    # summation cancels catastrophically out here
    z = np.array([0.5, 5.0, 20.0, 60.0, 120.0, 200.0])
    assert np.allclose(hyp1f1_terminating(-39, q, z), hyp1f1(-39, q, z), rtol=1e-12, atol=0.0)


# --- spherical harmonics -----------------------------------------------------

def test_y00_is_constant():
    assert spherical_harmonic(0, 0, 0.7, 1.3) == pytest.approx(1.0 / math.sqrt(FOUR_PI))


def test_y10_closed_form():
    theta = 0.9
    expected = math.sqrt(3.0 / FOUR_PI) * math.cos(theta)
    assert spherical_harmonic(1, 0, theta, 2.0) == pytest.approx(expected, rel=1e-14)


def test_out_of_range_m_raises():
    with pytest.raises(ValueError):
        spherical_harmonic(1, 2, 0.5, 0.5)


@pytest.mark.parametrize("l", range(5))
def test_spherical_harmonic_against_scipy(l):
    rng = np.random.default_rng(7)
    theta = rng.uniform(0.05, math.pi - 0.05, size=6)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=6)
    for m in range(-l, l + 1):
        ours = spherical_harmonic(l, m, theta, phi)
        ref = sph_harm_y(l, m, theta, phi)
        assert np.allclose(ours, ref, atol=1e-13)


def test_orthonormality_by_quadrature():
    # 16 Gauss-Legendre nodes in cos(theta) and a 16-point phi trapezoid are
    # exact for every product of two harmonics with l <= 3
    cos_theta, w_theta = np.polynomial.legendre.leggauss(16)
    theta = np.arccos(cos_theta)[:, None]
    phi = (np.arange(16) * (2.0 * math.pi / 16))[None, :]
    w = w_theta[:, None] * (2.0 * math.pi / 16)
    pairs = [(l, m) for l in range(4) for m in range(-l, l + 1)]
    vals = {lm: spherical_harmonic(*lm, theta, phi) for lm in pairs}
    for lm1 in pairs:
        for lm2 in pairs:
            overlap = np.sum(w * vals[lm1] * np.conj(vals[lm2]))
            expected = 1.0 if lm1 == lm2 else 0.0
            assert abs(overlap - expected) < 1e-12, (lm1, lm2)


@pytest.mark.parametrize("l", range(5))
def test_addition_theorem(l):
    rng = np.random.default_rng(l)
    for _ in range(4):
        theta = rng.uniform(0.01, math.pi - 0.01)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        total = sum(
            abs(spherical_harmonic(l, m, theta, phi)) ** 2 for m in range(-l, l + 1)
        )
        assert total == pytest.approx((2 * l + 1) / FOUR_PI, abs=1e-12)


# --- quadrature rules --------------------------------------------------------

def test_radial_rule_integrates_exponential():
    rho, w = radial_nodes(8, 0.0)
    assert np.sum(w * np.exp(-rho)) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("alpha", [0.01, 0.28, 1.0, 2.0, 5.5, 20.0, 79.9])
def test_radial_nodes_match_scipy(alpha):
    for k in range(1, 21):
        rho, w = radial_nodes(k, alpha)
        ref_rho, ref_w = roots_genlaguerre(k, alpha)
        assert np.allclose(rho, ref_rho, rtol=1e-12, atol=0.0)
        # plain weights carry e^rho rho^-alpha on top of the Gauss weights
        assert np.allclose(w * rho**alpha * np.exp(-rho), ref_w, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha", [0.01, 0.28, 1.0, 2.0, 5.5, 20.0, 79.9])
def test_radial_rule_reproduces_moments(alpha):
    # sum w rho^j rho^alpha e^-rho = Gamma(j + alpha + 1) for j <= 2k - 1
    for k in range(1, 21):
        rho, w = radial_nodes(k, alpha)
        for j in range(2 * k):
            moment = np.sum(w * rho ** (j + alpha) * np.exp(-rho))
            assert moment == pytest.approx(gamma_fn(j + alpha + 1.0), rel=1e-12), (k, j)


def test_cos_theta_rule_polynomial_exactness():
    nodes = quadrature_nodes(1, 2, 0.0)
    got = np.sum(nodes.cos_theta_weights * nodes.cos_theta**2)
    assert got == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_phi_rule_kills_single_winding():
    nodes = quadrature_nodes(1, 1, 0.0)
    got = np.sum(nodes.phi_weights * np.exp(1j * nodes.phi))
    assert abs(got) < 1e-14
    assert np.sum(nodes.phi_weights) == pytest.approx(2.0 * math.pi, rel=1e-15)
