"""Observable planes and noncontextuality-inequality evaluation.

Covers the four-correlator inequality <AB>+<BC>+<CD>-<DA> <= 2, each test one
plane (A, C, P, Q) of the correlation matrix plus one angle, so that it reads
a density only through the plane correlators <AP>, <AQ>, <CP> and <CQ>; the
six-term Peres-Mermin inequality with noncontextual bound 4; both on spin
densities given as (4, 4) arrays or (N, 4, 4) stacks. Also the one
closed-form kernel: the diagonal (t_x, delta, c) of the correlation matrix of
every bound state, from its columns (kappa, 2 m_j, delta), delta = <beta>, and
nothing else; every bound-state CHSH closed form reads it.
"""

from __future__ import annotations

import math

import numpy as np

from .clifford import PERES_MERMIN_LINES, build_family
from .spindensity import (IncompatibleObservablesError, checked_observable, correlator,
                          expectation)

CHSH_BOUND = 2.0
PERES_MERMIN_BOUND = 4.0

_GAMMA, _GAMMA_PRIME = build_family("Gamma"), build_family("GammaPrime")
# the planes (A, C, P, Q) of chsh_value, read-only as the families are:
# x-z is real, so the free curve runs in float64 ("0.0 -" keeps every zero
# +0.0), and y-z is complex
XZ_PLANE = (_GAMMA["x"].real.copy(), _GAMMA["z"].real.copy(), _GAMMA_PRIME["x"].real.copy(),
            0.0 - _GAMMA_PRIME["z"].real)
YZ_PLANE = (_GAMMA["y"], _GAMMA["z"], _GAMMA_PRIME["y"], _GAMMA_PRIME["z"])
for _matrix in XZ_PLANE:
    _matrix.flags.writeable = False


def chsh_value(density, plane, cos, sin, parameters: dict) -> dict:
    """<AB> + <BC> + <CD> - <DA> on the plane (A, C, P, Q) at the angle
    (cos, sin), B = cos P + sin Q and D = -cos P + sin Q, against the bound 2,
    as a report block of the columns kind, terms, value, bound, violated and
    parameters (terms and parameters dicts of columns, stored as arrays; a
    parameter column that is not one entry per row raises ValueError).

    density is a (4, 4) matrix or an (N, 4, 4) stack; cos and sin are floats or
    columns that broadcast against it. Each term is a real combination of the
    correlator columns <AP>, <AQ>, <CP>, <CQ>: A, C, P, Q are checked Hermitian
    and those pairs for commutation once, which covers B and D at every angle;
    a cos or sin that is not finite raises IncompatibleObservablesError.
    """
    cos, sin = np.asarray(cos, dtype=float), np.asarray(sin, dtype=float)
    if not (np.isfinite(cos).all() and np.isfinite(sin).all()):
        raise IncompatibleObservablesError("a cos or sin of B and D is not finite")
    a, c, p, q = (checked_observable(name, o) for name, o in zip("ACPQ", plane))
    rho = np.asarray(density)
    ap, aq, cp, cq = (np.ravel(correlator(rho, o1, o2))
                      for o1, o2 in ((a, p), (a, q), (c, p), (c, q)))
    ab, bc = cos * ap + sin * aq, cos * cp + sin * cq
    cd, da = -cos * cp + sin * cq, -cos * ap + sin * aq
    value = ab + bc + cd - da
    return report_block("chsh_nc", {"AB": ab, "BC": bc, "CD": cd, "DA": da}, value, CHSH_BOUND,
                        value > CHSH_BOUND, parameters)


def report_block(kind: str, terms: dict, value, bound: float, violated, parameters=None) -> dict:
    """The report block of len(value) rows, the one constructor of a block:
    each column a 1-D array of one entry per row, its dtype its type. kind and
    bound fill a column each; terms, value, violated and each column of
    parameters (a dict, stored only when given) pass through np.asarray, so an
    array is not copied. A parameter column that is not one entry per row
    raises ValueError. The caller decides violated, and so what a nan row claims."""
    value = np.asarray(value)
    rows = len(value)
    block = {
        "kind": np.full(rows, kind),
        "terms": {name: np.asarray(term) for name, term in terms.items()},
        "value": value,
        "bound": np.full(rows, bound),
        "violated": np.asarray(violated),
    }
    if parameters is not None:
        block["parameters"] = parameters = {k: np.asarray(c) for k, c in parameters.items()}
        for name, column in parameters.items():
            if len(column) != rows:
                raise ValueError(f"parameter {name} has {len(column)} entries for {rows} rows")
    return block


def plane_observables(plane, cos: float, sin: float):
    """The CHSH quadruple (A, cos P + sin Q, C, -cos P + sin Q) on a plane
    (A, C, P, Q) at one angle, as four (4, 4) matrices."""
    a, c, p, q = plane
    return a, cos * p + sin * q, c, -cos * p + sin * q


def ground_observables(m_j: float):
    """The setting (plane, cos, sin) of the two ground states m_j = +-1/2: the
    x-z plane at cos = sin = +-1/sqrt(2), by m_j's sign."""
    if m_j not in (0.5, -0.5):
        raise ValueError(f"ground state has m_j in {{+1/2, -1/2}}, got {m_j}")
    s = math.copysign(1.0 / math.sqrt(2.0), m_j)
    return XZ_PLANE, s, s


def excited_observables(xis):
    """The setting (plane, cos, sin) of the xi family valid on both kappa
    branches, the y-z plane at (-sin xi, cos xi), cos and sin as columns over
    the angles xis from math's sin and cos of each:
    (Gamma_y, -sin(xi) Gp_y + cos(xi) Gp_z, Gamma_z, sin(xi) Gp_y + cos(xi) Gp_z)."""
    angles = np.asarray(xis, dtype=float).tolist()
    return YZ_PLANE, np.array([-math.sin(x) for x in angles]), np.array(list(map(math.cos, angles)))


def correlation_diagonal(kappa, twice_mj, delta):
    """The diagonal (t_x, delta, c) of T_ab = tr(rho Gamma_a Gamma'_b), diagonal on
    every bound state, as arrays over the columns kappa, 2 m_j and delta;
    Fraction object columns give it exactly. With l = |kappa| - 1 and
    d = 4l^2 + 8l + 3 = 4 kappa^2 - 1, t_x = 2m_j (1 + 2 kappa delta)/d and
    c = -2m_j (delta + 2l + 2)/d on the kappa > 0 branch, 2m_j (2l + 2 - delta)/d on kappa < 0.
    """
    kappa, twice_mj, delta = np.broadcast_arrays(kappa, twice_mj, delta)
    l = np.abs(kappa) - 1
    denom = 4 * l * l + 8 * l + 3
    # each branch keeps its own order of operations: (2l + 2 + sign delta)
    # rounds differently on some states
    positive = twice_mj * (delta + 2 * l + 2) / denom
    negative = twice_mj * (2 * l + 2 - delta) / denom
    t_x = twice_mj * (1 + 2 * kappa * delta) / denom
    return t_x, delta, np.where(kappa > 0, -positive, negative)


def optimal_xi(kappa, twice_mj, delta):
    """Maximizing angle and maximum value of the xi sweep
    I(xi) = 2(c cos xi - delta sin xi), as arrays over the columns kappa, 2 m_j and delta.

    It peaks at xi* = atan2(-delta, c) with the value 2 hypot(c, delta). Both
    are report columns, so both come from math, state by state: numpy's
    arctan2 and hypot round the last bit differently on some states, and may
    differ from one CPU to another.
    """
    _, delta, c = correlation_diagonal(kappa, twice_mj, delta)
    cs, deltas = c.ravel().tolist(), delta.ravel().tolist()
    xi = np.reshape(list(map(math.atan2, (-delta).ravel().tolist(), cs)), c.shape)
    value = 2.0 * np.reshape(list(map(math.hypot, cs, deltas)), c.shape)
    return xi, value


_PM_LINE_PRODUCTS = tuple(
    (name, a @ b @ c, sign) for name, (a, b, c), sign in PERES_MERMIN_LINES
)


def peres_mermin_value(densities, labels: list) -> dict:
    """Six line-product correlators, each signed as its line's product; bound 4.

    An (N, 4, 4) stack of density matrices with a list of N labels gives a
    report block of N rows, from one trace per line product over the whole
    stack; labels of another length raise ValueError, as
    spindensity.expectation does for a non-Hermitian density. Each line
    product passes checked_observable under its line's name, so a nan or
    non-Hermitian product raises IncompatibleObservablesError naming it.
    """
    terms = {name: expectation(densities, checked_observable(name, product))
             for name, product, _ in _PM_LINE_PRODUCTS}
    # one signed sum from +0.0: a first term of -0.0 then gives 0.0, as from int 0
    value = sum((sign * terms[name] for name, _, sign in _PM_LINE_PRODUCTS), 0.0)
    return report_block("peres_mermin", terms, value, PERES_MERMIN_BOUND,
                        value > PERES_MERMIN_BOUND, {"state": labels})
