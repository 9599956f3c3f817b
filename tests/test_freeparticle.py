import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bound_states import valid_states
from diracctx.cli import EXIT_USAGE, REPORT_BLOCK, main
from diracctx.clifford import ALPHA as ALPHA_MATRICES
from diracctx.clifford import BETA, GAMMA, build_family
from diracctx.contextuality import chsh_value, plane_observables
from diracctx.freeparticle import (
    check_betas,
    energy_split,
    free_chsh,
    _inverse_energy,
    _observables,
    _plane_wave_densities,
    free_observables,
)
from diracctx.hydrogen import FINE_STRUCTURE_ALPHA as ALPHA
from diracctx.hydrogen import sommerfeld_mu
from diracctx.spindensity import IncompatibleObservablesError, checked_observable, correlator
from report_blocks import block_lists, block_rows

I4 = np.eye(4, dtype=complex)
SIGMA = build_family("Sigma")
GAMMA_FAMILY = build_family("Gamma")
GAMMA_PRIME = build_family("GammaPrime")


# --- states ------------------------------------------------------------------

def _energy_and_momentum(beta_v):
    # 1 - beta^2 as (1 - beta)(1 + beta), which does not cancel near beta = 1
    energy = 1.0 / math.sqrt((1.0 - beta_v) * (1.0 + beta_v))
    return energy, beta_v * energy


def _spinor(beta_v):
    """The reference spinor: the positive-helicity plane wave
    u = (1, 0, k/(1+E), 0)/sqrt(2E/(1+E)), written out here, whose |u><u| the
    package reads in closed form."""
    energy, k = _energy_and_momentum(beta_v)
    return np.array([1.0, 0.0, k / (1.0 + energy), 0.0]) / math.sqrt(2.0 * energy / (1.0 + energy))


def _densities(betas):
    """The package's closed-form densities at the velocity ratios, as free_chsh reads them."""
    betas = np.array(betas, dtype=float)
    return _plane_wave_densities(betas, _inverse_energy(betas))


def _density(beta_v):
    return _densities([beta_v])[0]


def _hamiltonian(k):
    """The fixed-momentum free Hamiltonian k alpha_z + beta, written out here."""
    return k * ALPHA_MATRICES[2] + BETA


def _projector(beta_v, sign):
    """(1 + sign H/E)/2 onto the positive (sign = 1) or negative (sign = -1)
    energy subspace at the momentum of velocity ratio beta_v."""
    energy, k = _energy_and_momentum(beta_v)
    return (I4 + sign * _hamiltonian(k) / energy) / 2.0


def test_rest_frame_state_is_spin_up():
    assert np.array_equal(_density(0.0), np.diag([1.0, 0.0, 0.0, 0.0]))


@given(st.floats(0.0, 0.999, allow_nan=False))
@settings(max_examples=100)
def test_state_normalized_for_any_velocity(beta_v):
    assert np.trace(_density(beta_v)) == pytest.approx(1.0, abs=1e-15)


def test_amplitude_ratio_at_beta_06():
    # k = 0.75, E = 1.25, lower/upper ratio k/(1+E) = 1/3 = rho_20 / rho_00
    energy, k = _energy_and_momentum(0.6)
    assert k == pytest.approx(0.75, rel=1e-14)
    assert energy == pytest.approx(1.25, rel=1e-14)
    rho = _density(0.6)
    assert rho[2, 0] / rho[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_superluminal_rejected():
    for bad in (1.0, 1.2, -0.1):
        with pytest.raises(ValueError):
            free_chsh(bad)
        with pytest.raises(ValueError):
            energy_split(bad, I4)


def test_helicity_block_structure():
    # Sigma_z acts as +1 on both two-spinor blocks of the eigenstate
    rho = _density(0.7)
    assert np.array_equal(SIGMA["z"] @ rho, rho)


def test_state_solves_fixed_k_hamiltonian():
    energy, k = _energy_and_momentum(0.6)
    rho = _density(0.6)
    assert np.allclose(_hamiltonian(k) @ rho, energy * rho, atol=1e-12)


CLOSED_FORM_GRID = np.linspace(0.0, 0.999999, 2001)


def test_closed_form_density_is_the_pure_plane_wave_state():
    # (1 + 1/E)/2 at (0, 0), (1 - 1/E)/2 at (2, 2) and beta/2 at (0, 2) and (2, 0)
    densities = _densities(CLOSED_FORM_GRID)
    assert densities.dtype == np.float64 and densities.shape == (len(CLOSED_FORM_GRID), 4, 4)
    for beta_v, rho in zip(CLOSED_FORM_GRID.tolist(), densities):
        u = _spinor(beta_v)
        assert np.abs(rho - np.outer(u, u)).max() <= 1e-15
        energy, k = _energy_and_momentum(beta_v)
        assert np.abs(_hamiltonian(k) @ rho - energy * rho).max() <= 1e-15 * energy
        assert np.abs(rho @ rho - rho).max() <= 1e-15
        assert abs(np.trace(rho) - 1.0) <= 1e-15
        assert np.array_equal(SIGMA["z"] @ rho, rho)


def test_closed_form_density_has_correlation_matrix_diag_1_delta_minus_delta():
    # T_ab = tr(rho Gamma_a Gamma'_b) = diag(1, delta, -delta), delta = 1/E
    densities = _densities(CLOSED_FORM_GRID)
    deltas = _inverse_energy(CLOSED_FORM_GRID)
    diagonal = {"x": np.ones_like(deltas), "y": deltas, "z": -deltas}
    for a, gamma in GAMMA_FAMILY.items():
        for b, gamma_prime in GAMMA_PRIME.items():
            t = np.einsum("nij,ji->n", densities, gamma @ gamma_prime)
            assert np.abs(t - (diagonal[a] if a == b else 0.0)).max() <= 1e-15


# --- observables ---------------------------------------------------------------

def test_observable_angle_limits():
    rest, fast = free_chsh([0.0, 0.9999999])["parameters"]["theta"]
    assert rest == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert fast < 5e-4
    assert _observables(_inverse_energy(np.array([0.0, 0.9999999])))[0] == [rest, fast]


def _decimal_atan(x):
    """atan of a Decimal 0 <= x <= 1/2 by its Taylor series, to below 1e-60."""
    term, total, k = x, x, 0
    while term.copy_abs() > decimal.Decimal(10) ** -60:
        k += 1
        term *= -x * x
        total += term / (2 * k + 1)
    return total


def test_angle_and_energy_near_the_speed_of_light_against_decimal():
    # 1 - beta^2 cancels near beta = 1: written so, theta and E were off by
    # 5.5e-12 relative at beta = 0.999999 and by 2.0e-11 at 0.9999999
    betas = np.concatenate([[0.9999, 0.999999, 0.9999999],
                            np.linspace(0.0, 0.999999, 20000)[-2000:]])
    thetas, energies = _observables(_inverse_energy(betas))[0], 1.0 / _inverse_energy(betas)
    with decimal.localcontext() as context:
        context.prec = 50
        for beta, theta, energy in zip(betas.tolist(), thetas, energies.tolist()):
            inverse = (1 - decimal.Decimal(beta) ** 2).sqrt()
            exact = _decimal_atan(inverse)
            assert abs(decimal.Decimal(theta) - exact) <= decimal.Decimal(4e-16) * exact
            assert abs(decimal.Decimal(energy) * inverse - 1) <= decimal.Decimal(4e-16)


def test_high_velocity_limit_of_b():
    # theta -> 0 turns B' into g3 g5
    _, b, _, _ = free_observables(0.99999999)
    assert np.abs(b - GAMMA[3] @ GAMMA[5]).max() < 3e-4


@pytest.mark.parametrize("beta_v", [0.0, 0.3, 0.6, 0.9])
def test_observables_structure(beta_v):
    a, b, c, d = free_observables(beta_v)
    for obs in (a, b, c, d):
        assert np.abs(obs - obs.conj().T).max() < 1e-14
        assert np.abs(obs @ obs - I4).max() < 1e-14
    for pair in ((a, b), (b, c), (c, d), (d, a)):
        assert np.abs(pair[0] @ pair[1] - pair[1] @ pair[0]).max() < 1e-14


def test_observables_are_the_gamma_matrices():
    a, _, c, _ = free_observables(0.42)
    assert np.array_equal(a, GAMMA[0])
    assert np.array_equal(c, 1j * GAMMA[2])


# --- the violation curve ----------------------------------------------------------

def test_rest_frame_reaches_tsirelson_like_value():
    (report,) = block_rows(free_chsh(0.0))
    assert report["value"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
    assert report["violated"]


def test_curve_value_at_beta_06():
    # 2 sqrt(2 - 0.36) = 2 sqrt(1.64)
    (report,) = block_rows(free_chsh(0.6))
    assert report["value"] == pytest.approx(2.5612496949731396, rel=1e-14)


def test_curve_matches_closed_form_on_grid():
    betas = np.linspace(0.0, 0.999, 200)
    for beta_v in betas:
        (value,) = free_chsh(float(beta_v))["value"]
        assert abs(value - 2.0 * math.sqrt(2.0 - beta_v**2)) < 1e-12


def test_curve_strictly_decreasing_and_violating():
    betas = np.linspace(0.0, 0.999, 120)
    values = [free_chsh(float(b))["value"][0] for b in betas]
    assert all(v > 2.0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))


def _pointwise_terms(beta_v):
    """The four correlators of one velocity ratio's density on plain 4x4
    matrices, with B' and D' multiplied out from the gamma matrices as
    free_observables states them."""
    rho = _density(beta_v).astype(complex)
    theta = math.atan(math.sqrt((1.0 - beta_v) * (1.0 + beta_v)))
    g0, g1, g2, g3, g5 = (GAMMA[i] for i in (0, 1, 2, 3, 5))
    a, c = g0, 1j * g2
    b = (math.cos(theta) * g3 + math.sin(theta) * g1) @ g5
    d = (-math.cos(theta) * g3 + math.sin(theta) * g1) @ g5
    pairs = {"AB": (a, b), "BC": (b, c), "CD": (c, d), "DA": (d, a)}
    return {k: float(np.trace(rho @ o1 @ o2).real) for k, (o1, o2) in pairs.items()}


def _real_stacks(betas):
    """The curve's float64 density stack |u><u| and its setting (plane, cos, sin)."""
    return (_densities(betas), *_observables(_inverse_energy(np.array(betas)))[1])


def _stacks(betas):
    """The densities of the velocity ratios as a complex stack, and the
    setting of the curve, its x-z plane cast to complex."""
    densities, plane, cos, sin = _real_stacks(betas)
    return densities.astype(complex), tuple(m.astype(complex) for m in plane), cos, sin


def test_batched_terms_equal_pointwise_reference():
    # the benchmark's full 0:0.999:20000 grid, which crosses many block boundaries
    betas = [float(b) for b in np.linspace(0.0, 0.999, 20000)]
    betas += [float(b) for b in np.random.default_rng(5).uniform(0.0, 0.999999, 50)]
    rows = block_rows(free_chsh(betas))
    for beta_v, report in zip(betas, rows, strict=True):
        # the plane's correlators round differently from the products of the
        # multiplied-out B' and D', by at most 3.3e-16 a term and 1.3e-15 a value
        want = _pointwise_terms(beta_v)
        t = report["terms"]
        assert all(abs(t[name] - want[name]) <= 1e-15 for name in want)
        total = want["AB"] + want["BC"] + want["CD"] - want["DA"]
        assert abs(report["value"] - total) <= 2e-15
        assert report["value"] == t["AB"] + t["BC"] + t["CD"] - t["DA"]
    # a row of the stacked pass is the one-row pass of its point, bit for bit
    for i in [*range(0, 20000, 40), *range(20000, len(betas))]:
        assert block_rows(free_chsh(betas[i])) == [rows[i]]


def test_free_chsh_is_a_row_of_the_curve():
    betas = [float(b) for b in np.linspace(0.0, 0.999, 2 * REPORT_BLOCK + 3)]
    curve = block_rows(free_chsh(betas))
    for i in (0, 1, REPORT_BLOCK - 1, REPORT_BLOCK, REPORT_BLOCK + 1, len(betas) - 1):
        assert block_rows(free_chsh(betas[i])) == [curve[i]]


def test_a_float_a_list_and_a_0d_array_give_one_row():
    blocks = [free_chsh(beta) for beta in (0.3, [0.3], np.array(0.3))]
    (row,) = block_rows(blocks[0])
    assert row["parameters"]["beta_v"] == 0.3
    assert [block_lists(block) for block in blocks] == [block_lists(blocks[0])] * 3


def test_stack_with_one_bad_slice_is_rejected():
    betas = [0.1, 0.5, 0.9]
    densities, plane, cos, sin = _stacks(betas)
    a, c, p, q = plane
    parameters = {"beta_v": betas}
    block = chsh_value(densities, plane, cos, sin, parameters)
    # the correlator of a stack of B' gives the AB column to its last bits
    b = np.stack([free_observables(beta)[1] for beta in betas])
    assert np.abs(correlator(densities, a, b) - block["terms"]["AB"]).max() <= 1e-15
    non_hermitian = b.astype(complex)
    non_hermitian[1] = 1j * non_hermitian[1]
    with pytest.raises(IncompatibleObservablesError, match="observable O2 is not Hermitian"):
        checked_observable("O2", non_hermitian)
    with pytest.raises(IncompatibleObservablesError, match="observable P is not Hermitian"):
        chsh_value(densities, (a, c, 1j * p, q), cos, sin, parameters)
    # Q = A' commutes with A' but not with C' = i g2
    with pytest.raises(IncompatibleObservablesError, match="do not commute"):
        chsh_value(densities, (a, c, p, a), cos, sin, parameters)


def test_real_stacks_give_the_rows_of_their_complex_casts():
    betas = [float(b) for b in np.linspace(0.0, 0.999, 2 * REPORT_BLOCK + 3)]
    densities, plane, cos, sin = _real_stacks(betas)
    assert all(m.dtype == np.float64 for m in (densities, *plane, cos, sin))
    complex_block = chsh_value(densities.astype(complex),
                               tuple(m.astype(complex) for m in plane), cos, sin, {})
    assert block_lists(chsh_value(densities, plane, cos, sin, {})) == block_lists(complex_block)
    # the curve, a block at a time as the CLI streams it, gives the same terms
    curve = [free_chsh(betas[start:start + REPORT_BLOCK])
             for start in range(0, len(betas), REPORT_BLOCK)]
    for name, column in complex_block["terms"].items():
        assert [x for block in curve for x in block["terms"][name].tolist()] == column.tolist()


def test_free_observables_are_the_curves_float64_matrices():
    for beta_v in (0.0, 0.3, 0.5, 0.9, 0.999999):
        plane, cos, sin = _observables(_inverse_energy(np.array([beta_v])))[1]
        assert all(m.dtype == np.float64 for m in (*plane, cos, sin))
        expected = plane_observables(plane, cos[0], sin[0])
        observables = free_observables(beta_v)
        assert [m.dtype for m in observables] == [np.float64] * 4
        assert all(np.array_equal(m, e) for m, e in zip(observables, expected))


def test_real_stack_with_one_bad_slice_is_rejected():
    densities, (a, c, p, q), cos, sin = _real_stacks([0.1, 0.5, 0.9])
    parameters = {}
    non_symmetric = p.copy()
    non_symmetric[0, 1] += 0.5
    with pytest.raises(IncompatibleObservablesError, match="observable P is not Hermitian"):
        chsh_value(densities, (a, c, non_symmetric, q), cos, sin, parameters)
    # Q = A' commutes with A' but not with C' = i g2
    with pytest.raises(IncompatibleObservablesError, match="do not commute"):
        chsh_value(densities, (a, c, p, a), cos, sin, parameters)


@pytest.mark.parametrize("beta", [1.0, -0.1, math.nan])
def test_check_betas_names_a_float_as_its_one_element_array(beta):
    messages = []
    for value in (beta, np.array([beta])):
        with pytest.raises(ValueError) as exc:
            check_betas(value)
        messages.append(str(exc.value))
    assert messages == [f"velocity ratio must lie in [0, 1), got {beta}"] * 2


def test_grid_reaching_the_speed_of_light_exits_2(capsys):
    assert main(["free-electron", "--beta-grid", "0:1:3"]) == EXIT_USAGE
    assert "velocity ratio must lie in [0, 1)" in capsys.readouterr().err
    with pytest.raises(ValueError):
        free_chsh([0.2, 1.0])


def test_report_parameters_carry_closed_form():
    (report,) = block_rows(free_chsh(0.5))
    assert report["parameters"]["closed_form"] == pytest.approx(
        2.0 * math.sqrt(1.75), rel=1e-15
    )
    assert report["parameters"]["beta_v"] == 0.5


# --- energy split -----------------------------------------------------------------

def test_projectors_complete_and_idempotent():
    p, m = _projector(0.5, 1), _projector(0.5, -1)
    assert np.abs(p + m - I4).max() < 1e-12
    assert np.abs(p @ p - p).max() < 1e-12
    assert np.abs(m @ m - m).max() < 1e-12
    assert np.abs(p - p.conj().T).max() < 1e-12
    assert np.abs(p @ m).max() < 1e-12
    # energy_split gives the eigenvalues of this same P_- compressed onto each
    # eigenspace of the observable, in any basis of it: the -1 eigenspace by
    # decreasing weight, then the +1 eigenspace by increasing weight
    for obs in free_observables(0.5):
        values, vecs = np.linalg.eigh(obs)
        minus, plus = vecs[:, values < 0], vecs[:, values > 0]
        expected = np.concatenate([np.linalg.eigvalsh(minus.conj().T @ m @ minus)[::-1],
                                   np.linalg.eigvalsh(plus.conj().T @ m @ plus)])
        assert np.abs(energy_split(0.5, obs) - expected).max() < 1e-12


def test_projectors_commute_with_hamiltonian():
    h = _hamiltonian(_energy_and_momentum(0.5)[1])
    m = _projector(0.5, -1)
    comm = m @ h - h @ m
    assert np.abs(comm).max() < 1e-12


def test_plane_wave_state_is_purely_positive_energy():
    for beta_v in (0.0, 0.3, 0.8):
        rho = _density(beta_v)
        assert np.trace(rho @ _projector(beta_v, -1)).real == pytest.approx(0.0, abs=1e-12)
        # the reflection 2|u><u| - 1 is dichotomic with u alone as its +1
        # eigenspace, whose weight energy_split lists last
        reflection = 2.0 * rho - I4
        assert energy_split(beta_v, reflection)[-1] == pytest.approx(0.0, abs=1e-12)


def test_each_observable_mixes_energy_signs_at_half_c():
    for obs in free_observables(0.5):
        weights = energy_split(0.5, obs)
        assert weights.shape == (4,)
        assert np.all(weights >= -1e-12)
        assert np.all(weights <= 1.0 + 1e-12)
        interior = (weights > 1e-10) & (weights < 1.0 - 1e-10)
        assert interior.any()


def test_mixing_does_not_vanish_at_zero_momentum():
    # implementation observation (no closed-form target asserted beyond the
    # computed regression): at k = 0 every observable eigenvector is an even
    # superposition of the energy signs
    for obs in free_observables(0.0):
        weights = energy_split(0.0, obs)
        assert np.allclose(weights, 0.5, atol=1e-12)


def _closed_form_weights(beta_v):
    """The sorted negative-energy weights of (A', B', C', D') in closed form:
    (1 -+ beta)/2 for A' and C', (1 -+ beta/sqrt(2 - beta^2))/2 for B' and D',
    each twice."""
    ac = (1.0 - beta_v) / 2.0
    bd = (1.0 - beta_v / math.sqrt(2.0 - beta_v * beta_v)) / 2.0
    ac, bd = sorted([ac, ac, 1.0 - ac, 1.0 - ac]), sorted([bd, bd, 1.0 - bd, 1.0 - bd])
    return [ac, bd, ac, bd]


SPLIT_GRID = np.linspace(0.0, 0.999999, 2001).tolist()


def test_energy_split_matches_its_closed_forms():
    for beta_v in SPLIT_GRID + [0.3, 0.5, 0.9]:
        for obs, expected in zip(free_observables(beta_v), _closed_form_weights(beta_v)):
            assert np.abs(np.sort(energy_split(beta_v, obs)) - expected).max() <= 1e-14


def test_energy_split_of_a_and_c_agree():
    # gamma0 and i gamma2 mix the energy signs alike, whatever basis eigh picks
    # in their doubly degenerate eigenspaces
    for beta_v in SPLIT_GRID:
        a, _, c, _ = free_observables(beta_v)
        assert np.abs(np.sort(energy_split(beta_v, a))
                      - np.sort(energy_split(beta_v, c))).max() <= 1e-14


def test_energy_split_of_a_complex_cast_agrees():
    for beta_v in SPLIT_GRID[::10] + [0.5]:
        for obs in free_observables(beta_v):
            cast = energy_split(beta_v, obs.astype(complex))
            assert np.abs(cast - energy_split(beta_v, obs)).max() <= 1e-14


@pytest.mark.parametrize("observable", [np.diag([1.0, 1.0, 1.0, 0.5]), 2.0 * np.eye(4),
                                        np.zeros((4, 4))])
def test_energy_split_rejects_a_non_dichotomic_observable(observable):
    with pytest.raises(ValueError, match="not dichotomic"):
        energy_split(0.5, observable)


def test_energy_split_rejects_non_hermitian():
    with pytest.raises(ValueError):
        energy_split(0.5, 1j * np.eye(4))


def test_observable_eigenvalues_are_dichotomic():
    eigenvalues = np.linalg.eigvalsh(free_observables(0.5)[3])
    assert np.allclose(np.abs(eigenvalues), 1.0, atol=1e-12)


# --- hydrogen contrast ---------------------------------------------------------------

def test_hydrogen_spectrum_entirely_positive():
    mus = [sommerfeld_mu(qn.n, qn.kappa, ALPHA) for qn in valid_states(10)]
    assert min(mus) > 0.0
