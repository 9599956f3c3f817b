"""The closed forms, derived exactly in rational arithmetic.

Every ingredient of the correlation matrix T_ab = tr(rho Gamma_a Gamma'_b) is
exact: the entries of Gamma_a Gamma'_b are Gaussian integers (the audit checks
them with zero tolerance), the squared Clebsch-Gordan weights are rationals,
and the bound-state density is affine in delta = <beta>. So T is affine in
delta, and its values at delta = 0 and delta = 1 prove an identity for every
delta. The closed-form kernel contextuality.correlation_diagonal runs here on
Fraction columns, so the diagonal (t_x, delta, c) it gives is proved, not
copied. The plane wave is checked at rational points of E^2 - k^2 = 1.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from diracctx.clifford import AXES, build_family
from diracctx.contextuality import (
    chsh_value,
    correlation_diagonal,
    excited_observables,
    ground_observables,
    plane_observables,
)
from diracctx.freeparticle import _inverse_energy, _plane_wave_densities
from diracctx.spindensity import analytic_densities
from report_blocks import block_rows

GAMMA = build_family("Gamma")
GAMMA_PRIME = build_family("GammaPrime")
KAPPA_MAX = 40
TOLERANCE = Fraction(1, 10**15)


def _gaussian_integer_parts(m):
    """The real and imaginary parts of a Gaussian-integer matrix, as int lists."""
    for part in (m.real, m.imag):
        assert np.array_equal(part, np.round(part))
    return m.real.astype(int).tolist(), m.imag.astype(int).tolist()


# Gamma_a Gamma'_b for a, b in x, y, z; complex128 products of such matrices are exact
PRODUCTS = {
    (a, b): _gaussian_integer_parts(GAMMA[a] @ GAMMA_PRIME[b])
    for a in AXES
    for b in AXES
}


def _exact_trace(rho, parts):
    """tr(rho m) of a real rational 4x4 rho and a Gaussian-integer matrix m
    given by its int parts, as (real part, imaginary part) in Fractions."""
    re, im = parts
    entries = [(i, j, r) for i, row in enumerate(rho) for j, r in enumerate(row) if r]
    return sum(r * re[j][i] for i, j, r in entries), sum(r * im[j][i] for i, j, r in entries)


def _correlation_matrix(rho):
    """T_ab = tr(rho Gamma_a Gamma'_b) of a real rational 4x4 rho, as
    {(a, b): (real part, imaginary part)} in Fractions."""
    return {key: _exact_trace(rho, parts) for key, parts in PRODUCTS.items()}


def _bound_states():
    """Every (kappa, 2 m_j) with |kappa| <= KAPPA_MAX."""
    return [
        (sign * abs_kappa, twice_mj)
        for abs_kappa in range(1, KAPPA_MAX + 1)
        for sign in (1, -1)
        for twice_mj in range(1 - 2 * abs_kappa, 2 * abs_kappa, 2)
    ]


def _exact_diagonal(kappa, twice_mj, delta):
    """The density diagonal: block weights (1 +- delta)/2 times the squared
    Clebsch-Gordan weights A (orbital l) and B (orbital l + 1)."""
    l, m = abs(kappa) - 1, (twice_mj - 1) // 2
    part_a = (Fraction(l + m + 1, 2 * l + 1), Fraction(l - m, 2 * l + 1))
    part_b = (Fraction(l - m + 1, 2 * l + 3), Fraction(l + m + 2, 2 * l + 3))
    upper, lower = (part_a, part_b) if kappa > 0 else (part_b, part_a)
    up, down = (1 + delta) / 2, (1 - delta) / 2
    return [up * upper[0], up * upper[1], down * lower[0], down * lower[1]]


def _exact_density(kappa, twice_mj, delta):
    """The bound-state density as a 4x4 list of Fractions."""
    diagonal = _exact_diagonal(kappa, twice_mj, delta)
    return [[diagonal[i] if i == j else 0 for j in range(4)] for i in range(4)]


def _kernel_diagonals(states, delta):
    """correlation_diagonal on Fraction columns: the exact (t_x, delta, c) of
    each state at one delta, one tuple of Fractions per state."""
    kappa, twice_mj = zip(*states)
    columns = correlation_diagonal(kappa, twice_mj, [delta] * len(states))
    diagonals = list(zip(*(column.tolist() for column in columns)))
    assert all(type(entry) is Fraction for diagonal in diagonals for entry in diagonal)
    return diagonals


@pytest.mark.parametrize("delta", [Fraction(0), Fraction(1)])
def test_bound_state_correlation_matrix_is_diag_tx_delta_c(delta):
    states = _bound_states()
    for (kappa, twice_mj), diagonal in zip(states, _kernel_diagonals(states, delta)):
        rho = _exact_density(kappa, twice_mj, delta)
        assert sum(rho[i][i] for i in range(4)) == 1
        t = _correlation_matrix(rho)
        assert all(imag == 0 for _, imag in t.values())
        assert all(t[a, b][0] == 0 for a in AXES for b in AXES if a != b)
        assert tuple(t[axis, axis][0] for axis in AXES) == diagonal


def test_ground_state_reaches_2_exactly_at_delta_2_5():
    # the threshold delta* = 2/5 of the ground state: there t_x = 3/5 and
    # c = -4/5, so t_x^2 + c^2 = 1 and the (t_x, c) optimum 2 sqrt(t_x^2 + c^2) is 2
    delta = Fraction(2, 5)
    (diagonal,) = _kernel_diagonals([(1, 1)], delta)
    assert diagonal == (Fraction(3, 5), delta, Fraction(-4, 5))
    t = _correlation_matrix(_exact_density(1, 1, delta))
    assert tuple(t[axis, axis] for axis in AXES) == tuple((entry, 0) for entry in diagonal)
    t_x, _, c = diagonal
    assert t_x * t_x + c * c == 1


@pytest.mark.parametrize("delta", [Fraction(0), Fraction(1)])
def test_float_closed_forms_lie_within_1e_15_of_the_exact_values(delta):
    states = _bound_states()
    kappa = [k for k, _ in states]
    twice_mj = [t for _, t in states]
    densities = analytic_densities(kappa, twice_mj, [float(delta)] * len(states))
    assert not densities[:, ~np.eye(4, dtype=bool)].any()
    diagonals = np.diagonal(densities, axis1=-2, axis2=-1)
    assert not diagonals.imag.any()
    floats = zip(*(column.tolist() for column in correlation_diagonal(
        kappa, twice_mj, [float(delta)] * len(states))))
    for (k, tm), diagonal, float_t, exact_t in zip(
            states, diagonals.real.tolist(), floats, _kernel_diagonals(states, delta)):
        exact = _exact_diagonal(k, tm, delta)
        assert all(abs(Fraction(x) - e) <= TOLERANCE for x, e in zip(diagonal, exact))
        assert all(abs(Fraction(x) - e) <= TOLERANCE for x, e in zip(float_t, exact_t))


# each CHSH term <O1 O2> of the xi family as the pair (p, q) of
# p cos xi + q sin xi, read from T: A = Gamma.y, C = Gamma.z,
# B = cos xi Gamma'.z - sin xi Gamma'.y and D = cos xi Gamma'.z + sin xi Gamma'.y.
# Every Gamma commutes with every Gamma' (the audit checks it exactly), so
# each product is a Gamma_a Gamma'_b.
XI_TERMS = {
    "AB": lambda t: (t["y", "z"], -t["y", "y"]),
    "BC": lambda t: (t["z", "z"], -t["z", "y"]),
    "CD": lambda t: (t["z", "z"], t["z", "y"]),
    "DA": lambda t: (t["y", "z"], t["y", "y"]),
}


@pytest.mark.parametrize("delta", [Fraction(0), Fraction(1)])
def test_xi_family_value_is_2_c_cos_xi_minus_2_delta_sin_xi(delta):
    states = _bound_states()
    # the package's terms: p at xi = 0 and, up to cos(pi/2) p, q at xi = pi/2
    densities = analytic_densities(*zip(*states), [float(delta)] * len(states))
    at_0, at_right_angle = (
        block_rows(chsh_value(densities, *excited_observables([xi]), {}))
        for xi in (0.0, math.pi / 2.0))
    for (kappa, twice_mj), (_, _, c), row_0, row_right_angle in zip(
            states, _kernel_diagonals(states, delta), at_0, at_right_angle):
        t = {key: real for key, (real, _) in _correlation_matrix(
            _exact_density(kappa, twice_mj, delta)).items()}
        terms = {name: read(t) for name, read in XI_TERMS.items()}
        for name, (p, q) in terms.items():
            assert abs(Fraction(row_0["terms"][name]) - p) <= TOLERANCE
            assert abs(Fraction(row_right_angle["terms"][name]) - q) <= TOLERANCE
        total = [terms["AB"][i] + terms["BC"][i] + terms["CD"][i] - terms["DA"][i]
                 for i in range(2)]
        # the (c, delta) of correlation_diagonal, in I(xi) = 2 (c cos xi - delta sin xi)
        assert total == [2 * c, -2 * delta]


def _gaussian_integer(m):
    """m rounded to the Gaussian-integer matrix it lies within 1e-15 of."""
    rounded = np.round(m.real) + 1j * np.round(m.imag)
    assert np.abs(m - rounded).max() < 1e-15
    return rounded


@pytest.mark.parametrize("delta", [Fraction(0), Fraction(1)])
@pytest.mark.parametrize("twice_mj", [1, -1])
def test_ground_value_over_sqrt2_is_1_plus_delta(twice_mj, delta):
    a, b, c, d = plane_observables(*ground_observables(twice_mj / 2))
    # B and D carry 1/sqrt 2: with it factored out, every product is a
    # Gaussian-integer matrix and the value is (AB + BC + CD - DA)/sqrt 2
    b, d = (_gaussian_integer(math.sqrt(2.0) * o) for o in (b, d))
    rho = _exact_density(1, twice_mj, delta)
    terms = [
        _exact_trace(rho, _gaussian_integer_parts(o1 @ o2))
        for o1, o2 in ((a, b), (b, c), (c, d), (d, a))
    ]
    assert all(imag == 0 for _, imag in terms)
    (ab, _), (bc, _), (cd, _), (da, _) = terms
    # value / sqrt 2 = (AB + BC + CD - DA) / 2
    assert (ab + bc + cd - da) / 2 == 1 + delta
    # the ground closed form sqrt 2 |t_x - c| of cli: t_x - c is affine in
    # delta, so its values at delta = 0 and 1 make it +-(1 + delta) for every delta
    ((t_x, _, c),) = _kernel_diagonals([(1, twice_mj)], delta)
    assert t_x - c == twice_mj * (1 + delta) and abs(t_x - c) == 1 + delta


RATIONAL_T = ("1", "3/2", "2", "7/2", "10")


@pytest.mark.parametrize("t", [Fraction(text) for text in RATIONAL_T], ids=RATIONAL_T)
def test_plane_wave_correlation_matrix_is_diag_1_delta_minus_delta(t):
    energy = (t * t + 1) / (2 * t)
    k = (t * t - 1) / (2 * t)
    assert energy * energy - k * k == 1
    # |u><u| of u = (1, 0, k/(1+E), 0)/sqrt(N_e), N_e = 2E/(1+E) = |(1, 0, k/(1+E), 0)|^2
    v = [Fraction(1), Fraction(0), k / (1 + energy), Fraction(0)]
    norm = 2 * energy / (1 + energy)
    assert sum(x * x for x in v) == norm
    rho = [[x * y / norm for y in v] for x in v]
    t_matrix = _correlation_matrix(rho)
    delta = 1 / energy
    expected = {("x", "x"): 1, ("y", "y"): delta, ("z", "z"): -delta}
    for key, (real, imag) in t_matrix.items():
        assert imag == 0
        assert real == expected.get(key, 0)
    # the package's closed-form density at the same velocity ratio k/E
    betas = np.array([float(k / energy)])
    density = _plane_wave_densities(betas, _inverse_energy(betas))[0]
    assert np.abs(density - np.array(rho, dtype=float)).max() < 1e-15
