import math

import numpy as np
import pytest

from diracctx.hydrogen import (
    FINE_STRUCTURE_ALPHA as ALPHA,
    QuantumNumbers,
    apply_K_eigencheck,
    eigenstate,
    radial_fg,
    radial_solution,
    sommerfeld_mu,
    spinor_harmonic,
    valid_states,
)
from diracctx.specfun import quadrature_nodes, radial_nodes

# independent high-precision evaluation (mpmath, 40 digits) of the energy formula
MU_2_1_ORACLE = 0.99999334347000102


# --- quantum-number bookkeeping ----------------------------------------------

def test_quantum_number_derived_fields():
    qn = QuantumNumbers(n=3, kappa=-2, m_j=-1.5)
    assert qn.j == 1.5
    assert qn.l == 1
    assert qn.m == -2
    assert qn.sign == -1
    assert qn.n_tilde == 1
    assert qn.abs_kappa == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0, "kappa": 1, "m_j": 0.5},
        {"n": 2, "kappa": 0, "m_j": 0.5},
        {"n": 2, "kappa": 3, "m_j": 0.5},
        {"n": 2, "kappa": -2, "m_j": 0.5},   # the kappa < 0 partner is absent at n = |kappa|
        {"n": 2, "kappa": 2, "m_j": 2.5},
        {"n": 1, "kappa": 1, "m_j": 0.0},
    ],
)
def test_quantum_number_validation(kwargs):
    with pytest.raises(ValueError):
        QuantumNumbers(**kwargs)


@pytest.mark.parametrize("n_max", [1, 2, 3, 5])
def test_state_count_is_twice_n_squared_per_shell(n_max):
    states = list(valid_states(n_max))
    assert len(states) == sum(2 * n * n for n in range(1, n_max + 1))
    assert len(set(states)) == len(states)


# --- Sommerfeld spectrum -------------------------------------------------------

def test_ground_energy_closed_form():
    assert sommerfeld_mu(1, 1, ALPHA) == pytest.approx(math.sqrt(1 - ALPHA**2), rel=1e-15)


def test_rest_energy_limit():
    for n, kappa in [(1, 1), (3, 2), (5, -4)]:
        assert sommerfeld_mu(n, kappa, 0.0) == 1.0


def test_energy_against_high_precision_oracle():
    assert sommerfeld_mu(2, 1, ALPHA) == pytest.approx(MU_2_1_ORACLE, rel=1e-15)


def test_energy_rejects_kappa_beyond_n():
    with pytest.raises(ValueError):
        sommerfeld_mu(2, 3, ALPHA)


def test_energy_rejects_bad_alpha():
    with pytest.raises(ValueError):
        sommerfeld_mu(1, 1, 1.5)
    with pytest.raises(ValueError):
        sommerfeld_mu(1, 1, -0.1)


def test_kramers_degeneracy_in_energy():
    # depends on kappa only through |kappa|
    for n in range(2, 9):
        for abs_k in range(1, n):
            assert sommerfeld_mu(n, abs_k, ALPHA) == sommerfeld_mu(n, -abs_k, ALPHA)


def test_energy_monotone_in_n_and_abs_kappa():
    for abs_k in range(1, 8):
        mus = [sommerfeld_mu(n, abs_k, ALPHA) for n in range(abs_k, 9)]
        assert all(b > a for a, b in zip(mus, mus[1:]))
    for n in range(2, 9):
        mus = [sommerfeld_mu(n, k, ALPHA) for k in range(1, n + 1)]
        assert all(b > a for a, b in zip(mus, mus[1:]))


# --- radial functions ----------------------------------------------------------

def test_ground_state_ratio_constant():
    # n_tilde = 0 collapses both series to the same constant term; the source
    # formulas give a positive ratio
    qn = QuantumNumbers(1, 1, 0.5)
    mu = sommerfeld_mu(1, 1, ALPHA)
    rho = np.array([0.2, 1.0, 3.0, 10.0, 40.0])
    f, g = radial_fg(qn, ALPHA, rho)
    expected = math.sqrt((1 - mu) / (1 + mu))
    assert np.allclose(g / f, expected, rtol=1e-14)


def test_radial_functions_decay():
    for qn in [QuantumNumbers(1, 1, 0.5), QuantumNumbers(3, -2, 0.5)]:
        body = np.linspace(0.1, 30.0, 400)
        f_body, g_body = radial_fg(qn, ALPHA, body)
        peak = max(np.abs(f_body).max(), np.abs(g_body).max())
        f_tail, g_tail = radial_fg(qn, ALPHA, np.array([60.0 + 10.0 * qn.n]))
        assert abs(f_tail[0]) < 1e-13 * peak and abs(g_tail[0]) < 1e-13 * peak


def test_first_excited_f_has_one_node():
    qn = QuantumNumbers(2, 1, 0.5)
    rho = np.linspace(1e-4, 80.0, 40001)
    f, _ = radial_fg(qn, ALPHA, rho)
    sign_changes = int(np.sum(np.sign(f[1:]) * np.sign(f[:-1]) < 0))
    assert sign_changes == 1


@pytest.mark.parametrize("n,kappa", [(1, 1), (3, 1), (3, 2), (4, 3)])
def test_positive_kappa_f_node_count_matches_n_tilde(n, kappa):
    qn = QuantumNumbers(n, kappa, 0.5)
    rho = np.linspace(1e-4, 60.0 + 10.0 * n, 60001)
    f, _ = radial_fg(qn, ALPHA, rho)
    sign_changes = int(np.sum(np.sign(f[1:]) * np.sign(f[:-1]) < 0))
    assert sign_changes == qn.n_tilde


@pytest.mark.parametrize(
    "n,kappa", [(1, 1), (2, 1), (2, -1), (3, 2), (3, -2), (4, -1), (4, 4), (5, -3)]
)
def test_radial_pair_satisfies_first_order_system(n, kappa):
    # signed-kappa radial equations in rho, derivatives by central differences:
    #   g' + (1+kappa) g/rho = [(mu-1)/c2 + a/rho] f
    #   f' + (1-kappa) f/rho = -[(mu+1)/c2 + a/rho] g
    # with c2 = 2 sqrt(1 - mu^2); this pins the f-g relative sign independently
    qn = QuantumNumbers(n, kappa, 0.5)
    mu = sommerfeld_mu(n, kappa, ALPHA)
    c2 = 2.0 * math.sqrt(1.0 - mu * mu)
    rho = np.linspace(0.5, 40.0, 12)
    h = 1e-6
    f_hi, g_hi = radial_fg(qn, ALPHA, rho + h)
    f_lo, g_lo = radial_fg(qn, ALPHA, rho - h)
    f, g = radial_fg(qn, ALPHA, rho)
    fp = (f_hi - f_lo) / (2.0 * h)
    gp = (g_hi - g_lo) / (2.0 * h)
    res1 = gp + (1 + kappa) * g / rho - ((mu - 1.0) / c2 + ALPHA / rho) * f
    res2 = fp + (1 - kappa) * f / rho + ((mu + 1.0) / c2 + ALPHA / rho) * g
    scale = np.abs(f).max() + np.abs(g).max()
    assert np.abs(res1).max() / scale < 1e-8
    assert np.abs(res2).max() / scale < 1e-8


def test_radial_solution_parameters():
    qn = QuantumNumbers(2, -1, 0.5)
    sol = radial_solution(qn, ALPHA)
    assert sol.n_tilde == 1
    assert sol.nu == pytest.approx(math.sqrt(1 - ALPHA**2), rel=1e-15)
    assert 0.0 < sol.mu < 1.0
    assert sol.norm > 0.0 and math.isfinite(sol.norm)
    assert sol.lam == pytest.approx(1.0 / math.sqrt(1.0 - sol.mu**2), rel=1e-15)


def test_radial_normalization_self_consistency():
    # the two block weights computed on the same rule sum to one exactly
    for qn in [QuantumNumbers(1, 1, 0.5), QuantumNumbers(4, -2, 1.5)]:
        sol = radial_solution(qn, ALPHA)
        rho, w = radial_nodes(qn.n_tilde + 1, 2.0 * sol.nu)
        f, g = radial_fg(qn, ALPHA, rho)
        wf = np.sum(w * rho * rho * f * f) / sol.norm
        wg = np.sum(w * rho * rho * g * g) / sol.norm
        assert wf + wg == pytest.approx(1.0, abs=1e-12)


# --- spinor spherical harmonics ------------------------------------------------

def test_part_a_ground_harmonic():
    out = spinor_harmonic("A", 0.5, 0.5, 0.8, 1.1)
    assert out[0] == pytest.approx(1.0 / math.sqrt(4.0 * math.pi))
    assert out[1] == 0.0


def test_part_b_ground_harmonic():
    from diracctx.specfun import spherical_harmonic

    theta, phi = 0.8, 1.1
    out = spinor_harmonic("B", 0.5, 0.5, theta, phi)
    assert out[0] == pytest.approx(-spherical_harmonic(1, 0, theta, phi) / math.sqrt(3.0))
    assert out[1] == pytest.approx(
        math.sqrt(2.0 / 3.0) * spherical_harmonic(1, 1, theta, phi)
    )


def test_edge_mj_does_not_request_out_of_range_harmonics():
    # the zero coefficient short-circuits before Y(l, |m|>l) is touched
    for j in (0.5, 1.5, 2.5):
        for part in ("A", "B"):
            top = spinor_harmonic(part, j, j, 0.4, 0.9)
            bottom = spinor_harmonic(part, j, -j, 0.4, 0.9)
            assert np.all(np.isfinite(top)) and np.all(np.isfinite(bottom))


@pytest.mark.parametrize("part", ["A", "B"])
@pytest.mark.parametrize("j", [0.5, 1.5, 2.5])
def test_spinor_harmonics_normalized_on_sphere(part, j):
    nodes = quadrature_nodes(1, 24, 0.0)
    theta = np.arccos(nodes.cos_theta)[:, None]
    phi = nodes.phi[None, :]
    w = nodes.cos_theta_weights[:, None] * nodes.phi_weights[None, :]
    for twice_mj in range(-int(2 * j), int(2 * j) + 1, 2):
        chi = spinor_harmonic(part, j, twice_mj / 2.0, theta, phi)
        total = np.sum(w * (np.abs(chi[0]) ** 2 + np.abs(chi[1]) ** 2))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_sigma_dot_rhat_maps_a_to_minus_b():
    # the coupling identity behind the radial equations
    rng = np.random.default_rng(11)
    for j, m_j in [(0.5, 0.5), (0.5, -0.5), (1.5, 1.5), (2.5, -0.5), (3.5, 2.5)]:
        theta = rng.uniform(0.1, math.pi - 0.1)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        srhat = np.array(
            [
                [math.cos(theta), math.sin(theta) * np.exp(-1j * phi)],
                [math.sin(theta) * np.exp(1j * phi), -math.cos(theta)],
            ]
        )
        a = spinor_harmonic("A", j, m_j, theta, phi)
        b = spinor_harmonic("B", j, m_j, theta, phi)
        assert np.allclose(srhat @ a, -b, atol=1e-12)


def test_spinor_harmonic_rejects_bad_part():
    with pytest.raises(ValueError):
        spinor_harmonic("C", 0.5, 0.5, 0.1, 0.1)


# --- assembled eigenstates -------------------------------------------------------

@pytest.mark.parametrize(
    "n,kappa,m_j", [(1, 1, 0.5), (2, -1, -0.5), (3, 2, 1.5), (4, -3, 0.5)]
)
def test_eigenstate_unit_norm_in_3d(n, kappa, m_j):
    state = eigenstate(QuantumNumbers(n, kappa, m_j), ALPHA)
    nodes = quadrature_nodes(state.qn.n_tilde + 1, state.qn.l + 2, 2.0 * state.radial.nu)
    rho = nodes.rho[:, None, None]
    theta = np.arccos(nodes.cos_theta)[None, :, None]
    phi = nodes.phi[None, None, :]
    psi = state(rho, theta, phi)
    w = (
        (nodes.rho_weights * nodes.rho**2)[:, None, None]
        * nodes.cos_theta_weights[None, :, None]
        * nodes.phi_weights[None, None, :]
    )
    total = np.sum(w * np.sum(np.abs(psi) ** 2, axis=0))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_eigenstate_block_layout():
    # kappa > 0 carries the A harmonic up top with the i f radial factor,
    # kappa < 0 swaps A and B
    theta, phi, rho = 0.7, 0.3, 2.0
    plus = eigenstate(QuantumNumbers(2, 1, 0.5), ALPHA)
    minus = eigenstate(QuantumNumbers(2, -1, 0.5), ALPHA)
    f, g = radial_fg(plus.qn, ALPHA, np.array([rho]))
    a = spinor_harmonic("A", 0.5, 0.5, theta, phi)
    b = spinor_harmonic("B", 0.5, 0.5, theta, phi)
    psi_plus = plus(rho, theta, phi)
    scale = 1.0 / math.sqrt(plus.radial.norm)
    assert psi_plus[0] == pytest.approx(1j * f[0] * a[0] * scale, rel=1e-12)
    assert psi_plus[2] == pytest.approx(g[0] * b[0] * scale, rel=1e-12)
    psi_minus = minus(rho, theta, phi)
    f2, g2 = radial_fg(minus.qn, ALPHA, np.array([rho]))
    scale2 = 1.0 / math.sqrt(minus.radial.norm)
    assert psi_minus[0] == pytest.approx(1j * f2[0] * b[0] * scale2, rel=1e-12)
    assert psi_minus[2] == pytest.approx(g2[0] * a[0] * scale2, rel=1e-12)


# --- Dirac operator -----------------------------------------------------------

def test_k_eigenvalue_ground_state():
    result = apply_K_eigencheck(QuantumNumbers(1, 1, 0.5))
    assert result.expected == 1
    assert result.computed == pytest.approx(1.0, abs=1e-12)


def test_k_eigenvalue_negative_branch():
    result = apply_K_eigencheck(QuantumNumbers(2, -1, 0.5))
    assert result.expected == -1
    assert result.computed == pytest.approx(-1.0, abs=1e-12)


def test_k_eigencheck_all_states_up_to_n3():
    for qn in valid_states(3):
        result = apply_K_eigencheck(qn)
        assert result.computed == pytest.approx(qn.kappa, abs=1e-10)
        assert result.computed_squared == pytest.approx(
            qn.j * (qn.j + 1.0) + 0.25, abs=1e-10
        )
        assert result.residual < 1e-10
