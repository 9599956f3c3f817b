"""Observable constructions and noncontextuality-inequality evaluation.

Covers the four-correlator inequality <AB>+<BC>+<CD>-<DA> <= 2 (evaluated on
reduced spin densities) and the six-term Peres-Mermin inequality with
noncontextual bound 4, plus the one-parameter xi family of observable choices
whose maximum admits the closed form 2*sqrt(mu^2 + X^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clifford import PERES_MERMIN_GRID, build_family
from .hydrogen import QuantumNumbers, sommerfeld_mu
from .spindensity import ReducedSpinDensity, checked_observable, pair_correlator

CHSH_BOUND = 2.0
PERES_MERMIN_BOUND = 4.0

_GAMMA = build_family("Gamma")
_GAMMA_PRIME = build_family("GammaPrime")


class InequalityReport(NamedTuple):
    """One evaluated inequality: labeled correlator terms, their signed sum,
    the noncontextual bound, and the parameters that produced it.

    A named tuple, not a frozen dataclass: a curve builds one per row, and the
    dataclass __init__ spends most of a row's time in object.__setattr__.
    """

    kind: str
    terms: dict
    value: float
    bound: float
    violated: bool
    parameters: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "terms": dict(self.terms),
            "value": self.value,
            "bound": self.bound,
            "violated": self.violated,
            "parameters": dict(self.parameters),
        }


def chsh_value(density: ReducedSpinDensity | np.ndarray, a, b, c, d,
               parameters=None) -> InequalityReport | list[InequalityReport]:
    """<AB> + <BC> + <CD> - <DA> against the noncontextual bound 2.

    density is a ReducedSpinDensity or an array of density matrices, and any
    observable may be a (N, 4, 4) stack. Single matrices give one report with
    the parameters dict; a leading axis of length N gives a list of N reports,
    evaluated in one pass, with parameters a list of N dicts. Each observable
    is checked Hermitian once and each of the four pairs for commutation.
    """
    rho = density.matrix if isinstance(density, ReducedSpinDensity) else np.asarray(density)
    a, b, c, d = (checked_observable(name, o) for name, o in zip("ABCD", (a, b, c, d)))
    rows = list(zip(*(
        np.ravel(pair_correlator(rho, o1, o2)).tolist()
        for o1, o2 in ((a, b), (b, c), (c, d), (d, a))
    )))
    stacked = np.broadcast_shapes(*(m.shape[:-2] for m in (rho, a, b, c, d))) != ()
    if not stacked:
        parameters = [parameters]
    elif parameters is None:
        parameters = [None] * len(rows)
    reports = []
    for (ab, bc, cd, da), p in zip(rows, parameters, strict=True):
        value = ab + bc + cd - da
        reports.append(InequalityReport(
            "chsh_nc",
            {"AB": ab, "BC": bc, "CD": cd, "DA": da},
            value,
            CHSH_BOUND,
            value > CHSH_BOUND,
            dict(p or {}),
        ))
    return reports if stacked else reports[0]


def ground_observables(m_j: float):
    """The (A, B, C, D) choice for the two ground states m_j = +-1/2."""
    gx, gz = _GAMMA.x, _GAMMA.z
    gpx, gpz = _GAMMA_PRIME.x, _GAMMA_PRIME.z
    s = 1.0 / math.sqrt(2.0)
    if m_j == 0.5:
        return gx, s * (gpx - gpz), gz, -s * (gpx + gpz)
    if m_j == -0.5:
        return gx, s * (gpz - gpx), gz, s * (gpx + gpz)
    raise ValueError(f"ground state has m_j in {{+1/2, -1/2}}, got {m_j}")


def excited_observables(xi):
    """The xi family valid on both kappa branches:
    (Gamma_y, -sin(xi) Gp_y + cos(xi) Gp_z, Gamma_z, sin(xi) Gp_y + cos(xi) Gp_z).

    One angle gives four 4x4 matrices; a sequence of N angles gives B and D
    as (N, 4, 4) stacks, each slice equal to the matrix of its angle.
    """
    xis = np.ravel(xi).tolist()
    sin = np.array([math.sin(x) for x in xis])[:, None, None]
    cos = np.array([math.cos(x) for x in xis])[:, None, None]
    gpy, gpz = _GAMMA_PRIME.y, _GAMMA_PRIME.z
    b = -sin * gpy + cos * gpz
    d = sin * gpy + cos * gpz
    if np.ndim(xi) == 0:
        b, d = b[0], d[0]
    return _GAMMA.y, b, _GAMMA.z, d


def harmonic_coefficients(qn: QuantumNumbers, a: float) -> tuple[float, float]:
    """Coefficients (c, s) of the xi sweep I(xi) = 2(c cos xi + s sin xi).

    c = -X on the kappa > 0 branch and +X on kappa < 0, with
    X = (2m+1)(mu + 2l + 2)/(4l^2 + 8l + 3) resp. (2m+1)(2l + 2 - mu)/(...);
    s = -mu on both branches.
    """
    mu = sommerfeld_mu(qn.n, qn.kappa, a)
    l, m = qn.l, qn.m
    denom = 4 * l * l + 8 * l + 3
    if qn.kappa > 0:
        x = (2 * m + 1) * (mu + 2 * l + 2) / denom
        return -x, -mu
    x = (2 * m + 1) * (2 * l + 2 - mu) / denom
    return x, -mu


def optimal_xi(qn: QuantumNumbers, a: float) -> tuple[float, float]:
    """Maximizing angle and maximum value of the xi sweep for one state.

    The two-term harmonic form peaks at xi* = atan2(s, c).
    """
    c, s = harmonic_coefficients(qn, a)
    return math.atan2(s, c), 2.0 * math.hypot(c, s)


@dataclass(frozen=True)
class PeresMerminSquare:
    """3x3 grid of dichotomic observables with commuting rows/columns."""

    grid: tuple

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.grid[i][j]

    def row(self, i: int):
        return self.grid[i]

    def column(self, j: int):
        return tuple(self.grid[i][j] for i in range(3))

    def row_product(self, i: int) -> np.ndarray:
        a, b, c = self.row(i)
        return a @ b @ c

    def column_product(self, j: int) -> np.ndarray:
        a, b, c = self.column(j)
        return a @ b @ c


def peres_mermin_square() -> PeresMerminSquare:
    """The nine-observable grid built from the Sigma and SigmaPrime families."""
    return PeresMerminSquare(grid=PERES_MERMIN_GRID)


_PM_SQUARE = peres_mermin_square()
_PM_LINE_PRODUCTS = (
    *((f"R{i + 1}", _PM_SQUARE.row_product(i)) for i in range(3)),
    *((f"C{j + 1}", _PM_SQUARE.column_product(j)) for j in range(3)),
)


def peres_mermin_value(density: ReducedSpinDensity | np.ndarray,
                       labels=None) -> InequalityReport | list[InequalityReport]:
    """Six line-product correlators, minus sign on the third column; bound 4.

    A ReducedSpinDensity gives one report. An (N, 4, 4) stack of density
    matrices with a list of N labels gives N reports, from one trace per line
    product over the whole stack.
    """
    if isinstance(density, ReducedSpinDensity):
        return peres_mermin_value(density.matrix[None], [density.label])[0]
    columns = [
        np.trace(density @ product, axis1=-2, axis2=-1).real.tolist()
        for _, product in _PM_LINE_PRODUCTS
    ]
    reports = []
    for values, label in zip(zip(*columns), labels, strict=True):
        terms = {name: value for (name, _), value in zip(_PM_LINE_PRODUCTS, values)}
        value = terms["R1"] + terms["R2"] + terms["R3"] + terms["C1"] + terms["C2"] - terms["C3"]
        reports.append(InequalityReport(
            kind="peres_mermin",
            terms=terms,
            value=value,
            bound=PERES_MERMIN_BOUND,
            violated=value > PERES_MERMIN_BOUND,
            parameters={"state": label},
        ))
    return reports
