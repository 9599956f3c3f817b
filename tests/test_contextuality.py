import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bound_states import valid_states
from diracctx.clifford import AXES, PERES_MERMIN_GRID, PERES_MERMIN_LINES, build_family
from diracctx.contextuality import (
    CHSH_BOUND,
    PERES_MERMIN_BOUND,
    XZ_PLANE,
    YZ_PLANE,
    chsh_value,
    correlation_diagonal,
    excited_observables,
    ground_observables,
    optimal_xi,
    peres_mermin_value,
    plane_observables,
    report_block,
)
from diracctx.hydrogen import FINE_STRUCTURE_ALPHA as ALPHA
from diracctx.hydrogen import QuantumNumbers, eigenstate, sommerfeld_mu, state_table
from diracctx.spindensity import (IncompatibleObservablesError, analytic_densities, pure_density,
                                  reduce, state_label)
from report_blocks import block_lists, block_rows

GAMMA = build_family("Gamma")
GAMMA_PRIME = build_family("GammaPrime")
I4 = np.eye(4, dtype=complex)

# sqrt(2) (1 + sqrt(1 - a^2)) at a = 1/137.036, evaluated with mpmath at 40 digits
GROUND_CLOSED_FORM = 2.828389469851504
# 2 sqrt(mu^2 + (mu+2)^2/9) for the same state (the xi-family route)
GROUND_XI_ROUTE = 2.828376918331345


def _density(n, kappa, m_j):
    return reduce(eigenstate(QuantumNumbers(n, kappa, m_j), ALPHA))


def _columns(qn, a=ALPHA):
    """The closed-form inputs (kappa, 2 m_j, delta) of one state."""
    return qn.kappa, 2 * qn.m_j, sommerfeld_mu(qn.n, qn.kappa, a)


def _matrices(setting):
    """The (A, B, C, D) matrices of a setting (plane, cos, sin) at its first angle."""
    plane, cos, sin = setting
    return plane_observables(plane, np.ravel(cos)[0], np.ravel(sin)[0])


def _peres_mermin(density, label="state"):
    return block_rows(peres_mermin_value(np.asarray(density)[None], [label]))[0]


# --- observable constructions ---------------------------------------------------

# each plane with the dtype of its observables
PLANES = {"x-z": (XZ_PLANE, np.float64), "y-z": (YZ_PLANE, np.complex128)}
ANGLE = st.floats(-2.0 * math.pi, 2.0 * math.pi, allow_nan=False)


@given(st.sampled_from(sorted(PLANES)), st.lists(ANGLE, min_size=1, max_size=6))
@example("x-z", [math.pi / 4.0, -3.0 * math.pi / 4.0])  # the two ground choices
@settings(max_examples=80, deadline=None)
def test_plane_observables_structure(name, thetas):
    plane, dtype = PLANES[name]
    assert not any(m.flags.writeable for m in plane)
    for theta in thetas:
        a, b, c, d = plane_observables(plane, math.cos(theta), math.sin(theta))
        assert b.shape == d.shape == (4, 4)
        assert [m.dtype for m in (a, b, c, d)] == [dtype] * 4
        # A and C are both Gamma-family: they anticommute, exactly
        assert np.array_equal(a @ c, -(c @ a)) and np.abs(a @ c).max() == 1.0
        quadruple = (a, b, c, d)
        for obs in quadruple:
            assert np.abs(obs - obs.conj().T).max() < 1e-15
            assert np.abs(obs @ obs - I4).max() < 1e-12
        for o1, o2 in zip(quadruple, quadruple[1:] + quadruple[:1]):
            assert np.abs(o1 @ o2 - o2 @ o1).max() < 1e-12


def _random_densities(rng, count, rank):
    """count random density matrices of the rank, as an (count, 4, 4) stack."""
    g = rng.normal(size=(count, 4, rank)) + 1j * rng.normal(size=(count, 4, rank))
    rho = g @ g.conj().swapaxes(-1, -2)
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


@given(st.sampled_from(sorted(PLANES)), ANGLE, st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_chsh_on_a_plane_is_twice_its_two_correlators(name, theta, seed, rank):
    # <AB> + <BC> + <CD> - <DA> = 2 (cos <A P> + sin <C Q>) on any density,
    # since A and C commute with P and Q
    rho = _random_densities(np.random.default_rng(seed), 1, rank)[0]
    plane = PLANES[name][0]
    a, c, p, q = plane
    value = chsh_value(rho, plane, math.cos(theta), math.sin(theta), {})["value"][0]
    want = 2.0 * (math.cos(theta) * np.trace(rho @ a @ p).real
                  + math.sin(theta) * np.trace(rho @ c @ q).real)
    assert abs(value - want) < 4e-15


@given(st.sampled_from(sorted(PLANES)), st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.integers(1, 600))
@example("y-z", 7, 4, 600)
@settings(max_examples=40, deadline=None)
def test_plane_terms_match_the_matrix_products(name, seed, rank, count):
    # the terms from the four plane correlators against trace(rho @ o1 @ o2) of
    # the quadruple plane_observables builds, row by row: within 1e-15 a term
    # and 2e-15 a value (measured 2.2e-16 and 8.9e-16 on the report grids)
    rng = np.random.default_rng(seed)
    plane = PLANES[name][0]
    rho = _random_densities(rng, count, rank)
    angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, count).tolist()
    cos, sin = np.array([math.cos(t) for t in angles]), np.array([math.sin(t) for t in angles])
    block = chsh_value(rho, plane, cos, sin, {})
    assert len(block["value"]) == count
    for i in range(count):
        a, b, c, d = plane_observables(plane, cos[i], sin[i])
        want = {term: np.trace(rho[i] @ o1 @ o2).real
                for term, (o1, o2) in zip(("AB", "BC", "CD", "DA"), ((a, b), (b, c), (c, d), (d, a)))}
        for term, reference in want.items():
            assert abs(block["terms"][term][i] - reference) <= 1e-15
        total = want["AB"] + want["BC"] + want["CD"] - want["DA"]
        assert abs(block["value"][i] - total) <= 2e-15


def test_a_plane_is_checked_at_every_angle():
    # Q = C does not commute with A: with sin = 0, B = cos P + 0 Q commutes
    # with A and the quadruple's own products could not tell
    a, c, p, _ = XZ_PLANE
    with pytest.raises(IncompatibleObservablesError, match="do not commute"):
        chsh_value(np.eye(4) / 4, (a, c, p, c), [1.0, -1.0], [0.0, 0.0], {})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_cos_or_sin_that_is_not_finite_is_rejected(bad):
    rho = np.stack([np.eye(4) / 4] * 3)
    for cos, sin in (([1.0, bad, 0.0], [0.0, 0.0, 1.0]), (0.0, [1.0, 0.0, bad]), (bad, 0.0)):
        with pytest.raises(IncompatibleObservablesError, match="not finite"):
            chsh_value(rho, XZ_PLANE, cos, sin, {})


def test_ground_observables_are_involutions():
    for obs in _matrices(ground_observables(0.5)) + _matrices(ground_observables(-0.5)):
        assert np.abs(obs @ obs - I4).max() < 1e-12
        assert np.abs(obs - obs.conj().T).max() < 1e-12


def test_ground_contexts_commute_but_ac_does_not():
    a, b, c, d = _matrices(ground_observables(0.5))
    for pair in ((a, b), (b, c), (c, d), (d, a)):
        assert np.abs(pair[0] @ pair[1] - pair[1] @ pair[0]).max() < 1e-12
    assert np.abs(a @ c - c @ a).max() > 1.0  # both Gamma-family, anticommuting


def test_ground_b_is_a_direction_observable():
    # B is GammaPrime along the unit direction (s, 0, -s)
    s = 1.0 / math.sqrt(2.0)
    b = _matrices(ground_observables(0.5))[1]
    direction = s * GAMMA_PRIME["x"] + 0.0 * GAMMA_PRIME["y"] - s * GAMMA_PRIME["z"]
    assert np.allclose(b, direction, atol=1e-15)


@pytest.mark.parametrize("m_j", [0.5, -0.5])
def test_ground_observables_are_the_xz_plane_at_a_quarter_turn(m_j):
    # m_j = 1/2: B = (Gp.x - Gp.z)/sqrt 2, D = -(Gp.x + Gp.z)/sqrt 2; m_j = -1/2
    # negates both
    s = math.copysign(1.0 / math.sqrt(2.0), m_j)
    a, b, c, d = _matrices(ground_observables(m_j))
    assert np.array_equal(a, GAMMA["x"]) and np.array_equal(c, GAMMA["z"])
    assert np.array_equal(b, s * (GAMMA_PRIME["x"] - GAMMA_PRIME["z"]))
    assert np.array_equal(d, -s * (GAMMA_PRIME["x"] + GAMMA_PRIME["z"]))


def test_ground_observables_reject_other_mj():
    with pytest.raises(ValueError):
        ground_observables(1.5)


def test_excited_observables_xi_zero_degenerates():
    a, b, c, d = _matrices(excited_observables([0.0]))
    assert np.array_equal(b, d)
    assert np.allclose(b, GAMMA_PRIME["z"], atol=1e-15)
    assert np.array_equal(a, GAMMA["y"])
    assert np.array_equal(c, GAMMA["z"])


def test_excited_observables_xi_half_pi():
    _, b, _, d = _matrices(excited_observables([math.pi / 2.0]))
    assert np.allclose(b, -GAMMA_PRIME["y"], atol=1e-15)
    assert np.allclose(d, GAMMA_PRIME["y"], atol=1e-15)


@given(st.floats(-math.pi, math.pi, allow_nan=False))
@settings(max_examples=80)
def test_excited_observables_structure_any_xi(xi):
    a, b, c, d = _matrices(excited_observables([xi]))
    for obs in (a, b, c, d):
        assert np.abs(obs @ obs - I4).max() < 1e-12
    for pair in ((a, b), (b, c), (c, d), (d, a)):
        assert np.abs(pair[0] @ pair[1] - pair[1] @ pair[0]).max() < 1e-12


def test_xi_family_stack_with_one_non_hermitian_slice_is_rejected():
    states = [QuantumNumbers(2, 1, 0.5), QuantumNumbers(3, -2, -1.5), QuantumNumbers(4, 3, 2.5)]
    densities = np.stack([_density(qn.n, qn.kappa, qn.m_j) for qn in states])
    (a, c, p, q), cos, sin = excited_observables(
        [optimal_xi(*_columns(qn))[0] for qn in states])
    parameters = {"state": ["a", "b", "c"]}
    assert len(chsh_value(densities, (a, c, p, q), cos, sin, parameters)["value"]) == 3
    with pytest.raises(IncompatibleObservablesError, match="observable P is not Hermitian"):
        chsh_value(densities, (a, c, 1j * p, q), cos, sin, parameters)


# --- CHSH-like inequality ---------------------------------------------------------

def test_identity_observables_meet_bound_without_violation():
    # B = D = I at cos = 1, sin = 0
    report = block_rows(chsh_value(np.eye(4) / 4.0, (I4,) * 4, 1.0, 0.0, {}))[0]
    assert report["value"] == pytest.approx(2.0, abs=1e-12)
    assert report["bound"] == CHSH_BOUND
    assert not report["violated"]


def test_ground_state_violation_value():
    report = block_rows(chsh_value(_density(1, 1, 0.5), *ground_observables(0.5), {}))[0]
    assert report["value"] == pytest.approx(GROUND_CLOSED_FORM, abs=5e-5)
    assert round(report["value"], 5) == 2.82839
    assert report["violated"]


def test_kramers_partner_same_violation():
    plus = block_rows(chsh_value(_density(1, 1, 0.5), *ground_observables(0.5), {}))[0]
    minus = block_rows(chsh_value(_density(1, 1, -0.5), *ground_observables(-0.5), {}))[0]
    assert minus["value"] == pytest.approx(plus["value"], abs=5e-5)


def test_report_value_is_signed_term_sum():
    report = block_rows(chsh_value(_density(1, 1, 0.5), *ground_observables(0.5), {}))[0]
    t = report["terms"]
    assert report["value"] == pytest.approx(t["AB"] + t["BC"] + t["CD"] - t["DA"], abs=1e-14)
    assert report["violated"] == (report["value"] > report["bound"])


def test_chsh_checks_each_observable_once(monkeypatch):
    import diracctx.spindensity as spindensity

    checked = []
    original = spindensity.hermiticity_defect
    monkeypatch.setattr(spindensity, "hermiticity_defect",
                        lambda o: checked.append(o) or original(o))
    chsh_value(_density(1, 1, 0.5), *ground_observables(0.5), {})
    assert len(checked) == 4


@pytest.mark.parametrize("rows", [1, 512])
def test_chsh_calls_the_correlator_four_times(monkeypatch, rows):
    import diracctx.contextuality as contextuality

    calls = []
    original = contextuality.correlator
    monkeypatch.setattr(contextuality, "correlator",
                        lambda *args: calls.append(args) or original(*args))
    densities = np.repeat(_density(1, 1, 0.5)[None], rows, axis=0)
    block = chsh_value(densities, *ground_observables(0.5), {})
    assert len(block["value"]) == rows
    assert len(calls) == 4


def test_chsh_rejects_incompatible_context():
    (a, c, _, q), cos, sin = ground_observables(0.5)
    with pytest.raises(IncompatibleObservablesError):
        chsh_value(_density(1, 1, 0.5), (a, c, c, q), cos, sin, {})  # (A, C) share the family


def test_chsh_rejects_a_non_hermitian_density():
    # trace(rho A P) = i trace((AP)^+ AP) / 4 = i, as AP is unitary: the
    # density is at fault, not a quadrature
    setting = excited_observables([0.4])
    a, _, p, _ = setting[0]
    rho = 1j * (a @ p).conj().T / 4
    with pytest.raises(ValueError, match="^density is not Hermitian: .* imaginary part 1.000e"):
        chsh_value(rho, *setting, {})


def test_peres_mermin_rejects_a_non_hermitian_density():
    # every line product is +-1, so each trace is +-(1 + 0.5j)
    rho = np.eye(4)[None] / 4 * (1 + 0.5j)
    with pytest.raises(ValueError, match="^density is not Hermitian: .* imaginary part [-]?5.000e-01"):
        peres_mermin_value(rho, ["x"])


@pytest.mark.parametrize("dtype", [complex, float])
def test_chsh_and_peres_mermin_reject_a_nan_density(dtype):
    # nan compares false with every tolerance, so each guard is written not <=;
    # a real density on real observables has no imaginary part to carry the nan
    rho = np.full((2, 4, 4), np.nan, dtype=dtype)
    with pytest.raises(ValueError, match="^density "):
        chsh_value(rho, *ground_observables(0.5), {})
    with pytest.raises(ValueError, match="^density "):
        chsh_value(rho, (np.eye(4),) * 4, 1.0, 0.0, {})
    with pytest.raises(ValueError, match="^density "):
        peres_mermin_value(rho, ["x", "y"])


def test_chsh_rejects_a_nan_observable():
    (a, c, p, q), cos, sin = ground_observables(0.5)
    p = p.copy()
    p[0, 0] = np.nan
    with pytest.raises(IncompatibleObservablesError, match="observable P is not Hermitian"):
        chsh_value(np.eye(4) / 4, (a, c, p, q), cos, sin, {})


def _with_line_product(monkeypatch, line, entry, shift):
    """Patch the line product of one Peres-Mermin line: shift one entry."""
    import diracctx.contextuality as contextuality

    lines = list(contextuality._PM_LINE_PRODUCTS)
    name, product, sign = lines[line]
    product = product.copy()
    product[entry] += shift
    lines[line] = name, product, sign
    monkeypatch.setattr(contextuality, "_PM_LINE_PRODUCTS", tuple(lines))


def test_peres_mermin_rejects_a_nan_line_product(monkeypatch):
    # peres_mermin_value takes no observable: a nan line product stands in for
    # one, and the error names its line, not the density
    _with_line_product(monkeypatch, 0, (1, 1), np.nan)
    with pytest.raises(IncompatibleObservablesError, match="^observable R1 is not Hermitian$"):
        peres_mermin_value(np.eye(4)[None] / 4, ["x"])


def test_peres_mermin_names_a_non_hermitian_line_product(monkeypatch):
    _with_line_product(monkeypatch, 4, (0, 1), 1.0)
    with pytest.raises(IncompatibleObservablesError, match="^observable C2 is not Hermitian$"):
        peres_mermin_value(np.eye(4)[None] / 4, ["x"])


def test_report_block_is_the_one_block_constructor():
    block = report_block("k", {"t": np.array([1.0, 2.0])}, np.array([3.0, 4.0]), 3.5,
                         np.array([False, True]))
    # without parameters the block holds the schema's first five keys, all arrays
    assert list(block) == ["kind", "terms", "value", "bound", "violated"]
    assert block_lists(block) == {"kind": ["k", "k"], "terms": {"t": [1.0, 2.0]},
                                  "value": [3.0, 4.0], "bound": [3.5, 3.5],
                                  "violated": [False, True]}
    assert [block[key].dtype.kind for key in ("kind", "value", "bound", "violated")] == [
        "U", "f", "f", "b"]
    # an array column is stored without a copy, a list column as its array
    value = np.array([1.0, 2.0])
    made = report_block("k", {}, value, 0.0, [True, True], {"state": ["a", "b"], "x": value})
    assert made["value"] is value and made["parameters"]["x"] is value
    assert made["parameters"]["state"].dtype.kind == "U"
    with pytest.raises(ValueError, match="parameter state has 1 entries for 2 rows"):
        report_block("k", {}, [1.0, 2.0], 0.0, [True, True], {"state": ["a"]})


def test_report_row_has_the_schema_keys_in_order():
    block = chsh_value(_density(1, 1, 0.5), *ground_observables(0.5),
                       parameters={"a": [ALPHA], "n": [1]})
    assert type(block) is dict
    assert list(block) == ["kind", "terms", "value", "bound", "violated", "parameters"]
    assert block["kind"].tolist() == ["chsh_nc"]
    assert list(block["terms"]) == ["AB", "BC", "CD", "DA"]
    assert block["violated"].tolist() == [True]
    assert block["parameters"]["n"].tolist() == [1]
    # every column a 1-D array whose dtype is its one type, as the report writer takes it
    columns = [block[key] for key in ("kind", "value", "bound", "violated")]
    columns += list(block["terms"].values())
    assert all(type(column) is np.ndarray and column.ndim == 1 for column in columns)
    assert [column.dtype.kind for column in columns] == ["U", "f", "f", "b"] + ["f"] * 4


def test_report_serialization_round_trip():
    block = chsh_value(_density(1, 1, 0.5), *ground_observables(0.5),
                       parameters={"a": [ALPHA], "n": [1]})
    rows = block_rows(block)
    assert json.loads(json.dumps(rows)) == rows


def test_chsh_rows_own_the_parameters_they_are_given():
    # the block stores the caller's parameter arrays as they are, not copies
    parameters = {"a": np.array([ALPHA]), "n": np.array([1])}
    block = chsh_value(_density(1, 1, 0.5), *ground_observables(0.5), parameters=parameters)
    assert all(block["parameters"][key] is column for key, column in parameters.items())
    densities = np.stack([_density(1, 1, 0.5), _density(1, 1, -0.5)])
    stacked = {"m_j": [0.5, -0.5]}
    rows = block_rows(chsh_value(densities, *ground_observables(0.5), parameters=stacked))
    assert [row["parameters"] for row in rows] == [{"m_j": 0.5}, {"m_j": -0.5}]
    # one entry per row in every column, no fewer and no more
    for wrong in ({"m_j": [0.5]}, {"m_j": [0.5, -0.5, 0.5]}, {"m_j": [0.5, -0.5], "n": []}):
        with pytest.raises(ValueError, match="entries for 2 rows"):
            chsh_value(densities, *ground_observables(0.5), parameters=wrong)


def test_peres_mermin_labels_are_one_per_row():
    densities = np.stack([np.eye(4) / 4.0] * 3)
    assert block_rows(peres_mermin_value(densities, ["x", "y", "z"]))[2]["parameters"] == {
        "state": "z"}
    for wrong in (["x", "y"], ["x", "y", "z", "w"]):
        with pytest.raises(ValueError, match="entries for 3 rows"):
            peres_mermin_value(densities, wrong)


# --- the xi sweep and its closed form --------------------------------------------

def test_optimal_xi_ground_state_matches_both_routes():
    qn = QuantumNumbers(1, 1, 0.5)
    xi_star, value_star = optimal_xi(*_columns(qn))
    assert value_star == pytest.approx(GROUND_XI_ROUTE, rel=1e-12)
    # the two observable constructions land on the same violation to ~1e-5
    assert value_star == pytest.approx(GROUND_CLOSED_FORM, abs=2e-5)
    report = block_rows(chsh_value(_density(1, 1, 0.5), *excited_observables([xi_star]), {}))[0]
    assert report["value"] == pytest.approx(value_star, rel=1e-10)


def test_closed_form_negative_branch_substitution():
    # l = 0 branch of the kappa < 0 family: X = (2m+1)(2 - mu + 2*0)/3
    qn = QuantumNumbers(2, -1, 0.5)
    mu = sommerfeld_mu(2, -1, ALPHA)
    x = (2.0 - mu + 2.0 * 0.0) / 3.0
    assert optimal_xi(*_columns(qn))[1] == pytest.approx(
        2.0 * math.hypot(mu, x), rel=1e-14
    )


def test_correlation_diagonal_signs():
    t_pos, delta_pos, c_pos = correlation_diagonal(*_columns(QuantumNumbers(2, 1, 0.5)))
    t_neg, delta_neg, c_neg = correlation_diagonal(*_columns(QuantumNumbers(2, -1, 0.5)))
    mu = sommerfeld_mu(2, 1, ALPHA)
    assert delta_pos == delta_neg == mu
    assert c_pos == pytest.approx(-(mu + 2.0) / 3.0, rel=1e-14)
    assert c_neg == pytest.approx((2.0 - mu) / 3.0, rel=1e-14)
    assert t_pos == pytest.approx((1.0 + 2.0 * mu) / 3.0, rel=1e-14)
    assert t_neg == pytest.approx((1.0 - 2.0 * mu) / 3.0, rel=1e-14)


def test_harmonic_c_never_vanishes():
    # c = -+X with X = (2m+1) times a positive factor and 2m+1 odd, so optimal_xi
    # needs no c = 0 tie-break anywhere in the documented domain
    states = list(valid_states(40))
    kappa = [qn.kappa for qn in states]
    twice_mj = [2 * qn.m_j for qn in states]
    smallest = min(
        np.abs(correlation_diagonal(
            kappa, twice_mj, [sommerfeld_mu(qn.n, qn.kappa, a) for qn in states]
        )[2]).min()
        for a in (1e-9, 1.0 / 137.036, 0.1, 0.5, 0.9, 0.99)
    )
    assert len(states) == 44_280
    assert smallest > 0.01


def test_t_x_and_c_are_odd_in_mj():
    _, kappa, twice_mj, delta = state_table(40, 0.9)
    t_x, same_delta, c = correlation_diagonal(kappa, twice_mj, delta)
    flipped = correlation_diagonal(kappa, -twice_mj, delta)
    assert np.array_equal(flipped[0], -t_x) and np.array_equal(flipped[2], -c)
    assert np.array_equal(flipped[1], same_delta) and np.array_equal(same_delta, delta)


# Gamma_a Gamma'_b for a, b in x, y, z
PRODUCTS = {(p, q): GAMMA[p] @ GAMMA_PRIME[q] for p in AXES for q in AXES}


@given(a=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(a=ALPHA)
@example(a=0.5)
@example(a=0.9)
@example(a=0.999999)
@settings(max_examples=20, deadline=None)
def test_density_correlation_matrix_is_the_kernel_diagonal(a):
    # the two derivations, independent on purpose: T_ab = tr(rho Gamma_a Gamma'_b)
    # of the densities of analytic_densities against correlation_diagonal
    _, kappa, twice_mj, delta = state_table(40, a)
    densities = analytic_densities(kappa, twice_mj, delta)
    t = {key: np.einsum("nij,ji->n", densities, product) for key, product in PRODUCTS.items()}
    assert not any(t[p, q].any() for p in AXES for q in AXES if p != q)
    for axis, entry in zip(AXES, correlation_diagonal(kappa, twice_mj, delta)):
        assert np.abs(t[axis, axis] - entry).max() <= 1e-15


@pytest.mark.parametrize("n,kappa,m_j", [(2, 1, 0.5), (3, -2, -0.5), (4, 4, 3.5)])
def test_quadrature_matches_closed_form(n, kappa, m_j):
    qn = QuantumNumbers(n, kappa, m_j)
    xi_star, value_star = optimal_xi(*_columns(qn))
    report = block_rows(chsh_value(_density(n, kappa, m_j), *excited_observables([xi_star]), {}))[0]
    assert report["value"] == pytest.approx(value_star, rel=1e-10)
    assert value_star > 2.0


@pytest.mark.parametrize("n,kappa,m_j", [(1, 1, 0.5), (3, -2, 1.5)])
def test_xi_scan_confirms_optimality(n, kappa, m_j):
    qn = QuantumNumbers(n, kappa, m_j)
    density = _density(n, kappa, m_j)
    xi_star, value_star = optimal_xi(*_columns(qn))
    xis = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    values = [chsh_value(density, *excited_observables([xi]), {})["value"][0] for xi in xis]
    scan_max = max(values)
    assert scan_max <= value_star + 1e-6
    assert abs(scan_max - value_star) < 1e-4


def test_full_shell_sweep_matches_closed_forms_to_n5():
    # every bound state through n = 5, both kappa signs, all m_j
    for qn in valid_states(5):
        xi_star, value_star = optimal_xi(*_columns(qn))
        report = block_rows(chsh_value(
            reduce(eigenstate(qn, ALPHA)), *excited_observables([xi_star]), {}
        ))[0]
        assert report["value"] > 2.0
        assert abs(report["value"] - value_star) / value_star < 1e-8


def test_xi_zero_degenerate_value_bounded():
    # B = D collapses the sweep to 2<C Gp_z>, which a compatible context bounds by 2
    for n, kappa, m_j in [(1, 1, 0.5), (2, -1, -0.5), (3, 2, 0.5)]:
        report = block_rows(chsh_value(_density(n, kappa, m_j), *excited_observables([0.0]), {}))[0]
        assert abs(report["value"]) <= 2.0 + 1e-12


# --- Peres-Mermin -----------------------------------------------------------------

def test_square_entries():
    sig = build_family("Sigma")
    sigp = build_family("SigmaPrime")
    assert np.array_equal(PERES_MERMIN_GRID[0][0], sigp["z"])
    assert np.array_equal(PERES_MERMIN_GRID[2][2], sig["y"] @ sigp["y"])
    names = [name for name, _, _ in PERES_MERMIN_LINES]
    assert names == ["R1", "R2", "R3", "C1", "C2", "C3"]
    # the table holds the grid's own arrays: row 3 and column 3
    assert all(m is g for m, g in zip(PERES_MERMIN_LINES[2][1], PERES_MERMIN_GRID[2]))
    assert all(m is row[2] for m, row in zip(PERES_MERMIN_LINES[5][1], PERES_MERMIN_GRID))


def test_square_line_products_are_signed_identities():
    signs = {name: sign for name, _, sign in PERES_MERMIN_LINES}
    assert signs == {"R1": 1, "R2": 1, "R3": 1, "C1": 1, "C2": 1, "C3": -1}
    for _, (a, b, c), sign in PERES_MERMIN_LINES:
        assert np.array_equal(a @ b @ c, sign * I4)


def test_square_lines_commute():
    for _, line, _ in PERES_MERMIN_LINES:
        for u in range(3):
            for v in range(u + 1, 3):
                comm = line[u] @ line[v] - line[v] @ line[u]
                assert np.abs(comm).max() == 0.0


def test_peres_mermin_constant_on_eigenstates():
    for qn in [QuantumNumbers(1, 1, 0.5), QuantumNumbers(3, -2, -0.5)]:
        label = state_label(qn.n, qn.kappa, qn.m_j)
        report = _peres_mermin(reduce(eigenstate(qn, ALPHA)), label)
        assert report["value"] == pytest.approx(6.0, abs=1e-10)
        assert report["bound"] == PERES_MERMIN_BOUND
        assert report["violated"]
        assert report["parameters"] == {"state": label}


def test_peres_mermin_constant_on_random_spinors():
    rng = np.random.default_rng(123)
    values = []
    for _ in range(100):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        values.append(_peres_mermin(pure_density(raw))["value"])
    values = np.asarray(values)
    assert np.abs(values - 6.0).max() < 1e-10
    assert values.max() - values.min() < 1e-10


def test_peres_mermin_on_maximally_mixed():
    report = _peres_mermin(np.eye(4) / 4.0)
    assert report["value"] == pytest.approx(6.0, abs=1e-14)
    assert set(report["terms"]) == {"R1", "R2", "R3", "C1", "C2", "C3"}
    assert report["terms"]["C3"] == pytest.approx(-1.0, abs=1e-14)


def test_peres_mermin_value_sums_the_signed_terms():
    report = _peres_mermin(pure_density([1.0, 2.0, 0.5j, -1.0]))
    t = report["terms"]
    assert report["value"] == t["R1"] + t["R2"] + t["R3"] + t["C1"] + t["C2"] - t["C3"]
