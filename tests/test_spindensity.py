import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracctx.clifford import build_family, direction_observable
from diracctx.hydrogen import FINE_STRUCTURE_ALPHA as ALPHA
from diracctx.hydrogen import QuantumNumbers, eigenstate, sommerfeld_mu, valid_states
from diracctx.spindensity import (
    IncompatibleObservablesError,
    QuadratureError,
    ReducedSpinDensity,
    correlator,
    radial_weights,
    radial_weights_quadrature,
    reduce,
)

GAMMA = build_family("Gamma")
GAMMA_PRIME = build_family("GammaPrime")
I4 = np.eye(4, dtype=complex)


def _ground_density():
    return reduce(eigenstate(QuantumNumbers(1, 1, 0.5), ALPHA))


def test_ground_state_density_matches_hand_reduction():
    # angular orthonormality gives diag(w_f, 0, w_g/3, 2 w_g/3)
    mu = sommerfeld_mu(1, 1, ALPHA)
    expected = np.diag([(1 + mu) / 2, 0.0, (1 - mu) / 6, (1 - mu) / 3])
    density = _ground_density()
    assert np.abs(density.matrix - expected).max() < 1e-8


@pytest.mark.parametrize("n,kappa,m_j", [(1, 1, 0.5), (2, -1, 0.5), (3, 2, -1.5)])
def test_density_invariants(n, kappa, m_j):
    density = reduce(eigenstate(QuantumNumbers(n, kappa, m_j), ALPHA))
    assert density.trace == pytest.approx(1.0, abs=1e-10)
    assert density.hermiticity_defect() < 1e-10
    assert density.min_eigenvalue() > -1e-10


@pytest.mark.parametrize("n,kappa,m_j", [(2, 1, 0.5), (3, -2, 0.5), (4, 3, 2.5)])
def test_density_block_diagonal(n, kappa, m_j):
    # upper/lower spinor harmonics carry orbital l and l+1, so the cross
    # angular integrals vanish
    density = reduce(eigenstate(QuantumNumbers(n, kappa, m_j), ALPHA))
    off = density.matrix[:2, 2:]
    assert np.linalg.norm(off) < 1e-8


def test_correlator_identity_pair():
    density = _ground_density()
    assert correlator(density, I4, I4) == pytest.approx(1.0, abs=1e-12)


def test_ground_correlators_match_block_trace_oracle():
    # hand block-diagonal traces: <AB> = (w_f - w_g/3)/sqrt(2),
    # <DA> = (-w_f + w_g/3)/sqrt(2)
    density = _ground_density()
    w_f, w_g = radial_weights(QuantumNumbers(1, 1, 0.5), ALPHA)
    s = 1.0 / math.sqrt(2.0)
    a = GAMMA.x
    b = s * (GAMMA_PRIME.x - GAMMA_PRIME.z)
    d = -s * (GAMMA_PRIME.x + GAMMA_PRIME.z)
    assert correlator(density, a, b) == pytest.approx(s * (w_f - w_g / 3.0), abs=1e-10)
    assert correlator(density, d, a) == pytest.approx(s * (-w_f + w_g / 3.0), abs=1e-10)


def test_correlator_rejects_non_commuting_pair():
    density = _ground_density()
    with pytest.raises(IncompatibleObservablesError):
        correlator(density, GAMMA.x, GAMMA.z)


def test_correlator_rejects_non_hermitian():
    density = _ground_density()
    with pytest.raises(IncompatibleObservablesError):
        correlator(density, 1j * I4, I4)


@given(st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=60, deadline=None)
def test_pure_density_invariant_under_global_phase(phase):
    rng = np.random.default_rng(5)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    base = ReducedSpinDensity.from_pure(raw).matrix
    rotated = ReducedSpinDensity.from_pure(np.exp(1j * phase) * raw).matrix
    assert np.abs(base - rotated).max() < 1e-12


def test_single_observable_expectation_bounded():
    density = _ground_density()
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = rng.normal(size=3)
        obs = direction_observable(GAMMA, v / np.linalg.norm(v))
        value = correlator(density, obs, I4)
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


def test_radial_weights_rest_limit():
    assert radial_weights(QuantumNumbers(1, 1, 0.5), 0.0) == (1.0, 0.0)


def test_radial_weights_ground_substitution():
    w_f, w_g = radial_weights(QuantumNumbers(1, 1, 0.5), ALPHA)
    root = math.sqrt(1.0 - ALPHA**2)
    assert w_f == pytest.approx((1.0 + root) / 2.0, rel=1e-15)
    assert w_g == pytest.approx((1.0 - root) / 2.0, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_radial_weights_quadrature_agrees_with_analytic(n):
    for qn in (q for q in valid_states(n) if q.n == n and q.m_j == 0.5):
        analytic = radial_weights(qn, ALPHA)
        numeric = radial_weights_quadrature(qn, ALPHA)
        assert numeric[0] == pytest.approx(analytic[0], abs=1e-8)
        assert numeric[1] == pytest.approx(analytic[1], abs=1e-8)


def test_from_pure_normalizes_and_rejects_zero():
    density = ReducedSpinDensity.from_pure([2.0, 0.0, 0.0, 0.0])
    assert density.trace == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        ReducedSpinDensity.from_pure([0.0, 0.0, 0.0, 0.0])


def test_maximally_mixed():
    density = ReducedSpinDensity.maximally_mixed()
    assert density.trace == pytest.approx(1.0, rel=1e-15)
    assert np.array_equal(density.matrix, np.eye(4) / 4.0)


def test_reduce_flags_non_convergent_quadrature():
    # one radial node short of n_tilde + 1 leaves the degree-2 n_tilde radial
    # integrand inexact; the block-weight guard must fire
    state = eigenstate(QuantumNumbers(4, -2, 0.5), ALPHA)
    reduce(state, state.qn.n_tilde + 1)
    with pytest.raises(QuadratureError):
        reduce(state, state.qn.n_tilde)


def test_reduce_metadata():
    density = _ground_density()
    assert "n=1" in density.label


@st.composite
def _bound_states(draw):
    n = draw(st.integers(1, 40))
    abs_kappa = draw(st.integers(1, n))
    sign = 1 if abs_kappa == n else draw(st.sampled_from((1, -1)))
    twice_mj = draw(st.sampled_from(range(1 - 2 * abs_kappa, 2 * abs_kappa, 2)))
    return QuantumNumbers(n, sign * abs_kappa, twice_mj / 2.0)


@given(qn=_bound_states(), a=st.floats(1e-6, 0.99))
@settings(max_examples=200, deadline=None)
def test_density_is_the_closed_form_across_the_domain(qn, a):
    # diagonal: (1 +- mu)/2 times the Clebsch-Gordan weights of the A and B
    # harmonics, with the roles swapped for kappa < 0
    l, m = qn.l, qn.m
    up, down = radial_weights(qn, a)
    part_a = ((l + m + 1) / (2 * l + 1), (l - m) / (2 * l + 1))
    part_b = ((l - m + 1) / (2 * l + 3), (l + m + 2) / (2 * l + 3))
    upper, lower = (part_a, part_b) if qn.kappa > 0 else (part_b, part_a)
    expected = np.diag([up * upper[0], up * upper[1], down * lower[0], down * lower[1]])
    density = reduce(eigenstate(qn, a))
    assert np.abs(np.diag(density.matrix) - np.diag(expected)).max() < 1e-12
    assert np.abs(density.matrix - np.diag(np.diag(density.matrix))).max() < 1e-12
    assert density.trace == pytest.approx(1.0, abs=1e-12)
