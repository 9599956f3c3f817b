import decimal
import math

import numpy as np
import pytest

from bound_states import valid_states
from diracctx import hydrogen
from diracctx.hydrogen import (
    FINE_STRUCTURE_ALPHA as ALPHA,
    QuantumNumbers,
    eigenstate,
    radial_fg,
    sommerfeld_mu,
    spinor_harmonic,
    state_table,
)
from diracctx.specfun import quadrature_nodes, radial_nodes

# independent high-precision evaluation (mpmath, 40 digits) of the energy formula
MU_2_1_ORACLE = 0.99999334347000102


# --- quantum-number bookkeeping ----------------------------------------------

def test_quantum_number_derived_fields():
    qn = QuantumNumbers(n=3, kappa=-2, m_j=-1.5)
    assert qn.j == 1.5
    assert qn.l == 1
    assert qn.n_tilde == 1


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


@pytest.mark.parametrize("n_max", [1, 2, 3, 5, 8, 40])
def test_state_count_is_twice_n_squared_per_shell(n_max):
    # N(N+1)(2N+1)/3 states up to shell N: 408 at N = 8, 44,280 at N = 40
    count = n_max * (n_max + 1) * (2 * n_max + 1) // 3
    assert count == {8: 408, 40: 44_280}.get(n_max, count)
    states = list(valid_states(n_max))
    assert len(states) == sum(2 * n * n for n in range(1, n_max + 1)) == count
    assert len(set(states)) == len(states)
    assert {len(column) for column in state_table(n_max, ALPHA)} == {count}


def test_state_table_rows_at_n_max_2():
    n, kappa, twice_mj, delta = state_table(2, ALPHA)
    assert list(zip(n.tolist(), kappa.tolist(), twice_mj.tolist())) == [
        (1, 1, -1), (1, 1, 1),
        (2, 1, -1), (2, 1, 1), (2, -1, -1), (2, -1, 1),
        (2, 2, -3), (2, 2, -1), (2, 2, 1), (2, 2, 3),
    ]
    assert [n.dtype.kind, kappa.dtype.kind, twice_mj.dtype.kind, delta.dtype] == [
        "i", "i", "i", np.float64]


def _reference_state_table(n_max, a):
    """The bound-state table enumerated state by state, in nested loops."""
    rows, deltas = [], []
    for n in range(1, n_max + 1):
        for abs_k in range(1, n + 1):
            mu = sommerfeld_mu(n, abs_k, a)
            for kappa in (abs_k,) if abs_k == n else (abs_k, -abs_k):
                for twice_mj in range(1 - 2 * abs_k, 2 * abs_k, 2):
                    rows.append((n, kappa, twice_mj))
                    deltas.append(mu)
    n, kappa, twice_mj = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return n, kappa, twice_mj, np.array(deltas, dtype=np.float64)


@pytest.mark.parametrize("a", [ALPHA, 0.5, 0.999999])
@pytest.mark.parametrize("n_max", [*range(1, 13), 40])
def test_state_table_is_the_nested_enumeration(n_max, a):
    # the table expanded from its (n, |kappa|) groups: the same rows in the
    # same order, the same dtypes and the same bits
    table = state_table(n_max, a)
    for column, expected in zip(table, _reference_state_table(n_max, a), strict=True):
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes()


@pytest.mark.parametrize("a", [ALPHA, 0.5, 0.999999])
def test_state_table_delta_is_sommerfeld_mu(a):
    n, kappa, _, delta = state_table(12, a)
    assert delta.tolist() == [
        sommerfeld_mu(m, k, a) for m, k in zip(n.tolist(), kappa.tolist())]


@pytest.mark.parametrize("n_max", [1, 8, 40])
def test_state_table_evaluates_mu_once_per_n_and_abs_kappa(monkeypatch, n_max):
    calls = []
    original = hydrogen.sommerfeld_mu
    monkeypatch.setattr(hydrogen, "sommerfeld_mu",
                        lambda n, kappa, a: calls.append((n, kappa)) or original(n, kappa, a))
    state_table(n_max, ALPHA)
    assert len(calls) == len(set(calls)) == n_max * (n_max + 1) // 2


# --- Sommerfeld spectrum -------------------------------------------------------

def test_ground_energy_closed_form():
    assert sommerfeld_mu(1, 1, ALPHA) == pytest.approx(math.sqrt(1 - ALPHA**2), rel=1e-15)


def test_rest_energy_limit():
    # a^2 = 1e-18 is below half an ulp of 1, so mu rounds to the rest energy
    for n, kappa in [(1, 1), (3, 2), (5, -4)]:
        assert sommerfeld_mu(n, kappa, 1e-9) == 1.0


def test_energy_against_high_precision_oracle():
    assert sommerfeld_mu(2, 1, ALPHA) == pytest.approx(MU_2_1_ORACLE, rel=1e-15)


def _decimal_mu(n, kappa, a):
    """mu of the same double a at 50 significant digits, by the standard
    library's decimal arithmetic."""
    with decimal.localcontext() as context:
        context.prec = 50
        a = decimal.Decimal(a)
        nu = (decimal.Decimal(kappa * kappa) - a * a).sqrt()
        return 1 / (1 + (a / (n - abs(kappa) + nu)) ** 2).sqrt()


@pytest.mark.parametrize("a", [0.9999, 0.999999, 0.9, ALPHA])
@pytest.mark.parametrize("n, kappa", [(1, 1), (2, -1), (2, 1), (3, 2), (40, -1), (40, 40)])
def test_energy_near_the_domain_edge_against_decimal(n, kappa, a):
    # at |kappa| = 1 and a near 1, kappa^2 - a^2 cancels: written so, mu was
    # off by 5.5e-12 relative at a = 0.999999 and 1.3e-13 at 0.9999
    exact = _decimal_mu(n, kappa, a)
    error = abs(decimal.Decimal(sommerfeld_mu(n, kappa, a)) - exact)
    assert error <= decimal.Decimal(4e-16) * exact


def test_energy_rejects_kappa_beyond_n():
    with pytest.raises(ValueError):
        sommerfeld_mu(2, 3, ALPHA)


def test_energy_rejects_bad_alpha():
    with pytest.raises(ValueError):
        sommerfeld_mu(1, 1, 1.5)
    with pytest.raises(ValueError):
        sommerfeld_mu(1, 1, -0.1)


@pytest.mark.parametrize("call", [
    lambda a: sommerfeld_mu(1, 1, a),
    lambda a: radial_fg(QuantumNumbers(2, -1, 0.5), a, [0.5, 1.0]),
    lambda a: eigenstate(QuantumNumbers(2, -1, 0.5), a),
], ids=["sommerfeld_mu", "radial_fg", "eigenstate"])
def test_alpha_zero_is_outside_the_domain(call):
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\), got 0\.0"):
        call(0.0)


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


@pytest.mark.parametrize("n,kappa,a", [
    pytest.param(n, kappa, a, id=f"{n}-{kappa}" + ("" if a == ALPHA else f"-a{a:g}"))
    for a in (ALPHA, 1e-4, 1e-7)
    for n, kappa in [(1, 1), (2, 1), (2, -1), (3, 2), (3, -2), (4, -1), (4, 4), (5, -3)]
])
def test_radial_pair_satisfies_first_order_system(n, kappa, a):
    # signed-kappa radial equations in rho, derivatives by central differences:
    #   g' + (1+kappa) g/rho = [(mu-1)/c2 + a/rho] f
    #   f' + (1-kappa) f/rho = -[(mu+1)/c2 + a/rho] g
    # with c2 = 2 sqrt(1 - mu^2); this pins the f-g relative sign independently.
    # With N = sqrt((n_tilde + nu)^2 + a^2), mu = (n_tilde + nu)/N and c2 = 2a/N,
    # so both coefficients have forms that do not cancel at small a
    qn = QuantumNumbers(n, kappa, 0.5)
    nu_n = qn.n_tilde + math.sqrt(kappa * kappa - a * a)
    big_n = math.hypot(nu_n, a)
    lower = -a / (2.0 * (big_n + nu_n))  # (mu - 1)/c2
    upper = (big_n + nu_n) / (2.0 * a)  # (mu + 1)/c2
    rho = np.linspace(0.5, 40.0, 12)
    h = 1e-6
    f_hi, g_hi = radial_fg(qn, a, rho + h)
    f_lo, g_lo = radial_fg(qn, a, rho - h)
    f, g = radial_fg(qn, a, rho)
    fp = (f_hi - f_lo) / (2.0 * h)
    gp = (g_hi - g_lo) / (2.0 * h)
    res1 = gp + (1 + kappa) * g / rho - (lower + a / rho) * f
    res2 = fp + (1 - kappa) * f / rho + (upper + a / rho) * g
    scale = np.abs(f).max() + np.abs(g).max()
    assert np.abs(res1).max() / scale < 1e-8
    assert np.abs(res2).max() / scale < 1e-8


def test_radial_solution_parameters():
    # the state carries the n_tilde + 1 node rule for the weight rho^(2 nu) e^-rho
    qn = QuantumNumbers(2, -1, 0.5)
    state = eigenstate(qn, ALPHA)
    rho, w = state.rule
    expected_rho, expected_w = radial_nodes(2, 2.0 * math.sqrt(1 - ALPHA**2))
    assert np.allclose(rho, expected_rho, rtol=1e-15, atol=0.0)
    assert np.allclose(w, expected_w, rtol=1e-15, atol=0.0)
    assert state.norm > 0.0 and math.isfinite(state.norm)


def test_radial_normalization_self_consistency():
    # the two block weights computed on the same rule sum to one exactly
    for qn in [QuantumNumbers(1, 1, 0.5), QuantumNumbers(4, -2, 1.5)]:
        state = eigenstate(qn, ALPHA)
        rho, w = state.rule
        f, g = radial_fg(qn, ALPHA, rho)
        wf = np.sum(w * rho * rho * f * f) / state.norm
        wg = np.sum(w * rho * rho * g * g) / state.norm
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
    # a one-node radial rule of unit weight at rho = 1 leaves the angular weights
    (_, theta, phi), weight = quadrature_nodes((np.ones(1), np.ones(1)), 24)
    theta, phi, w = theta[0], phi[0], weight[0]
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
    axes, w = quadrature_nodes(state.rule, state.qn.l + 2)
    psi = state(*axes)
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
    scale = 1.0 / math.sqrt(plus.norm)
    assert psi_plus[0] == pytest.approx(1j * f[0] * a[0] * scale, rel=1e-12)
    assert psi_plus[2] == pytest.approx(g[0] * b[0] * scale, rel=1e-12)
    psi_minus = minus(rho, theta, phi)
    f2, g2 = radial_fg(minus.qn, ALPHA, np.array([rho]))
    scale2 = 1.0 / math.sqrt(minus.norm)
    assert psi_minus[0] == pytest.approx(1j * f2[0] * b[0] * scale2, rel=1e-12)
    assert psi_minus[2] == pytest.approx(g2[0] * a[0] * scale2, rel=1e-12)


# --- Dirac operator -----------------------------------------------------------

def apply_K_eigencheck(qn: QuantumNumbers) -> tuple[float, float, float]:
    """Measure the Dirac-operator eigenvalue K = beta(Sigma.L + 1) on the state:
    its value, the value of K^2 and the larger residual |K v - k v| of the two
    blocks.

    K acts blockwise: +(sigma.L + 1) on the upper angular spinor, -(sigma.L + 1)
    on the lower one; both blocks must give sign(kappa)*|kappa|, and the block
    applied twice gives K^2 = j(j+1) + 1/4. A harmonic of orbital L with
    m = m_j - 1/2 lies in the span of (Y_L,m, 0) and (0, Y_L,m+1), where
    sigma.L = [[Lz, L-], [L+, -Lz]] is [[m, r], [r, -(m + 1)]] with
    r = sqrt(L(L+1) - m(m+1)). The harmonic's terms come from
    hydrogen._spinor_terms, looked up at each call.
    """
    upper_part, lower_part = ("A", "B") if qn.kappa > 0 else ("B", "A")
    m = int(round(qn.m_j - 0.5))
    values, squares, residual = [], [], 0.0
    for part, beta_sign in ((upper_part, 1.0), (lower_part, -1.0)):
        orbital = qn.l if part == "A" else qn.l + 1
        r = math.sqrt(orbital * (orbital + 1) - m * (m + 1))
        v = np.zeros(2)
        for comp, l_eff, m_eff, coef in hydrogen._spinor_terms(part, qn.l, m):
            if (l_eff, m_eff) != (orbital, m + comp):
                raise AssertionError(
                    f"harmonic {part} of {qn} has a term outside the sigma.L block: "
                    f"component {comp}, Y_{l_eff},{m_eff}")
            v[comp] = coef
        # the block's K = beta_sign (sigma.L + 1) on the coefficient pair
        block = beta_sign * np.array([[m + 1.0, r], [r, -m]])
        once = block @ v
        k = float(once @ v / (v @ v))
        values.append(k)
        squares.append(float(block @ once @ v / (v @ v)))
        residual = max(residual, float(np.linalg.norm(once - k * v)))
    if abs(values[0] - values[1]) > 1e-12 or abs(squares[0] - squares[1]) > 1e-12:
        raise AssertionError(f"blockwise K eigenvalues disagree for {qn}: {values}")
    return values[0], squares[0], residual


def test_k_eigenvalue_ground_state():
    k, _, _ = apply_K_eigencheck(QuantumNumbers(1, 1, 0.5))
    assert k == pytest.approx(1.0, abs=1e-12)


def test_k_eigenvalue_negative_branch():
    k, _, _ = apply_K_eigencheck(QuantumNumbers(2, -1, 0.5))
    assert k == pytest.approx(-1.0, abs=1e-12)


def test_k_eigencheck_all_states_up_to_n3():
    for qn in valid_states(3):
        k, k_squared, residual = apply_K_eigencheck(qn)
        assert k == pytest.approx(qn.kappa, abs=1e-10)
        assert k_squared == pytest.approx(
            qn.j * (qn.j + 1.0) + 0.25, abs=1e-10
        )
        assert residual < 1e-10


def test_k_eigencheck_every_kappa_and_mj_up_to_40():
    for abs_kappa in range(1, 41):
        j = abs_kappa - 0.5
        for kappa in (abs_kappa, -abs_kappa):
            for twice_mj in range(1 - 2 * abs_kappa, 2 * abs_kappa, 2):
                # K does not see n: take the lowest n that has this kappa
                qn = QuantumNumbers(abs_kappa + (kappa < 0), kappa, twice_mj / 2.0)
                k, k_squared, residual = apply_K_eigencheck(qn)
                assert k == pytest.approx(kappa, rel=1e-12)
                assert k_squared == pytest.approx(j * (j + 1.0) + 0.25, rel=1e-12)
                assert residual < 1e-12


@pytest.mark.parametrize("perturb, message", [
    (lambda terms: (*terms[:-1], (*terms[-1][:3], -terms[-1][3])), "disagree"),
    (lambda terms: tuple((comp, l, m + 1, coef) for comp, l, m, coef in terms), "outside"),
], ids=["flip-last-sign", "shift-m"])
def test_k_eigencheck_fails_on_a_perturbed_harmonic(monkeypatch, perturb, message):
    original = hydrogen._spinor_terms
    monkeypatch.setattr(hydrogen, "_spinor_terms", lambda *args: perturb(original(*args)))
    with pytest.raises(AssertionError, match=message):
        apply_K_eigencheck(QuantumNumbers(3, 2, 0.5))
