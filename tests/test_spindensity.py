import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bound_states import valid_states
from diracctx.cli import EXIT_QUADRATURE, main
from diracctx.clifford import build_family, hermiticity_defect
from diracctx.contextuality import (
    XZ_PLANE,
    YZ_PLANE,
    plane_observables,
)
from diracctx.hydrogen import FINE_STRUCTURE_ALPHA as ALPHA
from diracctx.hydrogen import QuantumNumbers, eigenstate, sommerfeld_mu
from diracctx.spindensity import (
    IncompatibleObservablesError,
    analytic_densities,
    checked_observable,
    correlator,
    pure_density,
    reduce,
    state_label,
)
from diracctx.specfun import radial_nodes

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
    assert np.abs(density - expected).max() < 1e-8


@pytest.mark.parametrize("n,kappa,m_j", [(1, 1, 0.5), (2, -1, 0.5), (3, 2, -1.5)])
def test_density_invariants(n, kappa, m_j):
    density = reduce(eigenstate(QuantumNumbers(n, kappa, m_j), ALPHA))
    assert np.trace(density).real == pytest.approx(1.0, abs=1e-10)
    assert hermiticity_defect(density) < 1e-10
    assert np.linalg.eigvalsh(density).min() > -1e-10


@pytest.mark.parametrize("n,kappa,m_j", [(2, 1, 0.5), (3, -2, 0.5), (4, 3, 2.5)])
def test_density_block_diagonal(n, kappa, m_j):
    # upper/lower spinor harmonics carry orbital l and l+1, so the cross
    # angular integrals vanish
    density = reduce(eigenstate(QuantumNumbers(n, kappa, m_j), ALPHA))
    off = density[:2, 2:]
    assert np.linalg.norm(off) < 1e-8


def test_correlator_identity_pair():
    density = _ground_density()
    assert correlator(density, I4, I4) == pytest.approx(1.0, abs=1e-12)


def test_ground_correlators_match_block_trace_oracle():
    # hand block-diagonal traces: <AB> = (w_f - w_g/3)/sqrt(2),
    # <DA> = (-w_f + w_g/3)/sqrt(2)
    density = _ground_density()
    mu = sommerfeld_mu(1, 1, ALPHA)
    w_f, w_g = (1.0 + mu) / 2.0, (1.0 - mu) / 2.0
    s = 1.0 / math.sqrt(2.0)
    a = GAMMA["x"]
    b = s * (GAMMA_PRIME["x"] - GAMMA_PRIME["z"])
    d = -s * (GAMMA_PRIME["x"] + GAMMA_PRIME["z"])
    assert correlator(density, a, b) == pytest.approx(s * (w_f - w_g / 3.0), abs=1e-10)
    assert correlator(density, d, a) == pytest.approx(s * (-w_f + w_g / 3.0), abs=1e-10)


def test_correlator_rejects_non_commuting_pair():
    density = _ground_density()
    with pytest.raises(IncompatibleObservablesError):
        correlator(density, GAMMA["x"], GAMMA["z"])


def test_correlator_rejects_non_hermitian():
    # a correlator's observables pass checked_observable first, which holds
    # the Hermiticity check
    with pytest.raises(IncompatibleObservablesError, match="observable O1 is not Hermitian"):
        checked_observable("O1", 1j * I4)


def test_checked_observable_keeps_the_dtype_of_its_input():
    real = np.array(GAMMA_PRIME["z"].real)
    assert checked_observable("O", real).dtype == np.float64
    assert checked_observable("O", np.eye(4, dtype=int)).dtype == np.float64
    assert checked_observable("O", GAMMA["x"]).dtype == np.complex128
    assert checked_observable("O", real.astype(complex)).dtype == np.complex128
    stack = np.stack([real, -real])
    assert checked_observable("O", stack).dtype == np.float64


@given(st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=60, deadline=None)
def test_pure_density_invariant_under_global_phase(phase):
    rng = np.random.default_rng(5)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    base = pure_density(raw)
    rotated = pure_density(np.exp(1j * phase) * raw)
    assert np.abs(base - rotated).max() < 1e-12


def test_single_observable_expectation_bounded():
    density = _ground_density()
    rng = np.random.default_rng(17)
    for theta in rng.uniform(-math.pi, math.pi, size=10):
        for plane in (XZ_PLANE, YZ_PLANE):
            a, b, c, d = plane_observables(plane, math.cos(theta), math.sin(theta))
            for obs in (a, b, c, d):
                value = correlator(density, obs, I4)
                assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_radial_weights_quadrature_agrees_with_analytic(n):
    for qn in (q for q in valid_states(n) if q.n == n and q.m_j == 0.5):
        mu = sommerfeld_mu(qn.n, qn.kappa, ALPHA)
        analytic = (1.0 + mu) / 2.0, (1.0 - mu) / 2.0
        density = reduce(eigenstate(qn, ALPHA))
        numeric = (density[0, 0] + density[1, 1]).real, (density[2, 2] + density[3, 3]).real
        assert numeric[0] == pytest.approx(analytic[0], abs=1e-8)
        assert numeric[1] == pytest.approx(analytic[1], abs=1e-8)


def test_from_pure_normalizes_and_rejects_zero():
    density = pure_density([2.0, 0.0, 0.0, 0.0])
    assert density.shape == (4, 4)
    assert np.trace(density).real == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        pure_density([0.0, 0.0, 0.0, 0.0])


def test_pure_density_of_a_stack_is_each_spinor_alone():
    rng = np.random.default_rng(19)
    spinors = rng.normal(size=(500, 4)) + 1j * rng.normal(size=(500, 4))
    stack = pure_density(spinors)
    assert stack.shape == (500, 4, 4)
    assert np.array_equal(stack, np.array([pure_density(u) for u in spinors]))
    assert np.array_equal(pure_density(spinors.reshape(25, 20, 4)), stack.reshape(25, 20, 4, 4))


def test_pure_density_rejects_a_zero_row_and_other_shapes():
    spinors = np.ones((6, 4))
    spinors[3] = 0.0
    with pytest.raises(ValueError, match="zero spinor"):
        pure_density(spinors)
    for shape in ((3,), (2, 5)):
        with pytest.raises(ValueError):
            pure_density(np.ones(shape))


def test_maximally_mixed():
    # the even mixture of the pure densities of any orthonormal basis
    density = sum(pure_density(u) for u in np.eye(4)) / 4.0
    assert np.trace(density).real == pytest.approx(1.0, rel=1e-15)
    assert np.array_equal(density, np.eye(4) / 4.0)


def _one_node_short(state):
    """The state with the exact normalization but a density rule one radial
    node short of n_tilde + 1."""
    qn = state.qn
    nu = math.sqrt(qn.kappa * qn.kappa - state.a * state.a)
    return dataclasses.replace(state, rule=radial_nodes(qn.n_tilde, 2.0 * nu))


def _converge_on(monkeypatch, capsys, broken, *argv) -> str:
    """converge's stderr, run on broken(state) for the state of argv; it must
    exit 3 and write no report."""
    import diracctx.cli as cli_module

    monkeypatch.setattr(cli_module, "eigenstate", lambda qn, a: broken(eigenstate(qn, a)))
    assert main(["converge", *argv]) == EXIT_QUADRATURE
    out, err = capsys.readouterr()
    assert out == ""
    return err


def test_reduce_flags_non_convergent_quadrature(monkeypatch, capsys):
    # one radial node short of n_tilde + 1 leaves the degree-2 n_tilde radial
    # integrand inexact; converge's entry gap must fail
    err = _converge_on(monkeypatch, capsys, _one_node_short, "--n", "4", "--kappa", "-2")
    assert err.startswith("quadrature failure: ")


def test_reduce_flags_nan_block_weights(monkeypatch, capsys):
    # a nan gap compares false with the bound, and must fail all the same
    def nan_weights(state):
        rho, w = state.rule
        return dataclasses.replace(state, rule=(rho, w * np.nan))

    err = _converge_on(monkeypatch, capsys, nan_weights, "--n", "2", "--kappa", "-1")
    assert " by nan > " in err


def test_reduce_metadata(monkeypatch, capsys):
    # reduce returns the bare matrix; the state's label names it in a failure
    assert _ground_density().shape == (4, 4)
    qn = QuantumNumbers(4, -2, 0.5)
    label = state_label(qn.n, qn.kappa, qn.m_j)
    assert label == "n=4 kappa=-2 mj=0.5"
    err = _converge_on(monkeypatch, capsys, _one_node_short, "--n", "4", "--kappa", "-2")
    assert re.fullmatch(f"quadrature failure: {label}: .* on 2 radial nodes\n", err)


@st.composite
def _bound_states(draw):
    n = draw(st.integers(1, 40))
    abs_kappa = draw(st.integers(1, n))
    sign = 1 if abs_kappa == n else draw(st.sampled_from((1, -1)))
    twice_mj = draw(st.sampled_from(range(1 - 2 * abs_kappa, 2 * abs_kappa, 2)))
    return QuantumNumbers(n, sign * abs_kappa, twice_mj / 2.0)


@given(qn=_bound_states(), a=st.floats(0.0, 0.99, exclude_min=True))
@example(qn=QuantumNumbers(3, -2, 0.5), a=1e-8)
@example(qn=QuantumNumbers(3, -2, 0.5), a=5e-324)
@settings(max_examples=200, deadline=None)
def test_density_is_the_closed_form_across_the_domain(qn, a):
    # diagonal: (1 +- mu)/2 times the Clebsch-Gordan weights of the A and B
    # harmonics, with the roles swapped for kappa < 0
    l, m = qn.l, round(qn.m_j - 0.5)
    mu = sommerfeld_mu(qn.n, qn.kappa, a)
    up, down = (1.0 + mu) / 2.0, (1.0 - mu) / 2.0
    part_a = ((l + m + 1) / (2 * l + 1), (l - m) / (2 * l + 1))
    part_b = ((l - m + 1) / (2 * l + 3), (l + m + 2) / (2 * l + 3))
    upper, lower = (part_a, part_b) if qn.kappa > 0 else (part_b, part_a)
    expected = np.diag([up * upper[0], up * upper[1], down * lower[0], down * lower[1]])
    assert np.abs(analytic_densities([qn.kappa], [2 * qn.m_j], [mu])[0] - expected).max() < 1e-15
    density = reduce(eigenstate(qn, a))
    assert np.abs(np.diag(density) - np.diag(expected)).max() < 1e-12
    assert np.abs(density - np.diag(np.diag(density))).max() < 1e-12
    assert np.trace(density).real == pytest.approx(1.0, abs=1e-12)
