"""Exact bound states of a Dirac electron in a Coulomb potential.

Natural units M = hbar = c = 1 throughout: energies are mu = E/Mc^2, the
radial coordinate is the dimensionless rho = 2 r sqrt(1 - mu^2). The sign of
the Dirac quantum number kappa selects the two Kramers-degenerate states at
fixed (n, j, m_j): kappa > 0 carries the A-type spinor harmonic (orbital
l = j - 1/2) in its upper components, kappa < 0 swaps the A/B roles.

The relative sign of the two radial functions follows the source formulas
literally (g/f > 0 for the ground state); it is pinned down by the radial
first-order system itself, which the test suite verifies by finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import hyp1f1_terminating, radial_nodes, spherical_harmonic

FINE_STRUCTURE_ALPHA = 1.0 / 137.036


class QuadratureError(RuntimeError):
    """A normalization that is not finite, or a density off its closed form."""


def _check_alpha(a: float) -> None:
    if not 0.0 < a < 1.0:
        raise ValueError(f"fine structure constant must lie in (0, 1), got {a}")


@dataclass(frozen=True)
class QuantumNumbers:
    """Bound-state labels (n, kappa, m_j); j and l derive from kappa."""

    n: int
    kappa: int
    m_j: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"principal quantum number must be >= 1, got {self.n}")
        if self.kappa == 0:
            raise ValueError("kappa must be a nonzero integer")
        if abs(self.kappa) > self.n:
            raise ValueError(f"|kappa| <= n required, got kappa={self.kappa}, n={self.n}")
        if abs(self.kappa) == self.n and self.kappa < 0:
            raise ValueError(
                f"the kappa < 0 partner is absent when n = |kappa| (n={self.n})"
            )
        if not math.isfinite(self.m_j):
            raise ValueError(f"m_j must be finite, got {self.m_j}")
        twice = 2.0 * self.m_j
        if abs(twice - round(twice)) > 0 or round(twice) % 2 == 0:
            raise ValueError(f"m_j must be a half-odd integer, got {self.m_j}")
        if abs(self.m_j) > self.j:
            raise ValueError(f"|m_j| <= j = {self.j} required, got m_j={self.m_j}")

    @property
    def j(self) -> float:
        return abs(self.kappa) - 0.5

    @property
    def l(self) -> int:
        return abs(self.kappa) - 1

    @property
    def n_tilde(self) -> int:
        return self.n - abs(self.kappa)


def _nu(kappa: int, a: float) -> float:
    """nu = sqrt(kappa^2 - a^2), as sqrt((|kappa| - a)(|kappa| + a)): at
    |kappa| = 1 and a near 1, kappa^2 - a^2 would cancel, and each factor is
    exact or within half an ulp."""
    return math.sqrt((abs(kappa) - a) * (abs(kappa) + a))


def sommerfeld_mu(n: int, kappa: int, a: float) -> float:
    """Bound-state energy mu = E/Mc^2; depends on kappa only through |kappa|."""
    _check_alpha(a)
    if kappa == 0 or abs(kappa) > n or n < 1:
        raise ValueError(f"invalid (n, kappa) = ({n}, {kappa})")
    return (1.0 + (a / (n - abs(kappa) + _nu(kappa, a))) ** 2) ** -0.5


def state_table(n_max: int, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The columns n, kappa, 2 m_j (ints) and delta = mu (floats) of all bound
    states with n <= n_max, in deterministic order. mu depends only on
    (n, |kappa|), so sommerfeld_mu runs once for each of them."""
    rows, deltas = [], []
    for n in range(1, n_max + 1):
        for abs_k in range(1, n + 1):
            mu = sommerfeld_mu(n, abs_k, a)
            for kappa in (abs_k,) if abs_k == n else (abs_k, -abs_k):
                for twice_mj in range(1 - 2 * abs_k, 2 * abs_k, 2):
                    rows.append((n, kappa, twice_mj))
                    deltas.append(mu)
    n, kappa, twice_mj = np.array(rows, dtype=int).reshape(-1, 3).T
    return n, kappa, twice_mj, np.array(deltas, dtype=float)


def radial_fg(qn: QuantumNumbers, a: float, rho):
    """Unnormalized radial pair (f, g) at dimensionless rho.

    The 1F1(1 - n_tilde, ...) term is skipped entirely when n_tilde = 0: its
    prefactor n_tilde vanishes and the series would not terminate.
    """
    mu = sommerfeld_mu(qn.n, qn.kappa, a)
    rho = np.asarray(rho, dtype=float)
    nt = qn.n_tilde
    nu = _nu(qn.kappa, a)
    # the apparent principal quantum number N = (n_tilde + nu)/mu = a/sqrt(1 - mu^2);
    # written through N, a/sqrt(1 - mu^2) and sqrt(1 - mu) do not cancel at small a
    big_n = math.hypot(nt + nu, a)
    coef = big_n + qn.kappa
    series = coef * hyp1f1_terminating(-nt, 2.0 * nu + 1.0, rho)
    f_series = series
    g_series = series
    if nt > 0:
        extra = nt * hyp1f1_terminating(1 - nt, 2.0 * nu + 1.0, rho)
        f_series = series - extra
        g_series = series + extra
    envelope = rho ** (nu - 1.0) * np.exp(-rho / 2.0)
    f = math.sqrt(1.0 + mu) * f_series * envelope
    g = a / math.sqrt(big_n * (big_n + nt + nu)) * g_series * envelope
    return f, g


def _spinor_terms(part: str, l: int, m: int) -> tuple:
    """Clebsch-Gordan terms (component, orbital l, orbital m, coefficient) of
    the spinor harmonic phi^A (orbital l) or phi^B (orbital l + 1) with
    m = m_j - 1/2; terms with a zero coefficient are left out."""
    if part == "A":
        norm = math.sqrt(2 * l + 1)
        terms = ((0, l, m, 1.0, l + m + 1), (1, l, m + 1, 1.0, l - m))
    else:
        norm = math.sqrt(2 * l + 3)
        terms = ((0, l + 1, m, -1.0, l - m + 1), (1, l + 1, m + 1, 1.0, l + m + 2))
    return tuple(
        (comp, l_eff, m_eff, sign * math.sqrt(c) / norm)
        for comp, l_eff, m_eff, sign, c in terms
        if c > 0
    )


def spinor_harmonic(part: str, j: float, m_j: float, theta, phi):
    """Two-component spinor spherical harmonic, part "A" (orbital l = j - 1/2)
    or "B" (orbital l + 1).

    Zero square-root coefficients short-circuit before the underlying harmonic
    is evaluated, so edge m_j values never request |m| > l.
    """
    if part not in ("A", "B"):
        raise ValueError(f"part must be 'A' or 'B', got {part!r}")
    l = int(round(j - 0.5))
    if l < 0 or abs(m_j) > j:
        raise ValueError(f"invalid (j, m_j) = ({j}, {m_j})")
    m = int(round(m_j - 0.5))
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast(theta, phi).shape
    out = np.zeros((2,) + shape, dtype=complex)
    for comp, l_eff, m_eff, coef in _spinor_terms(part, l, m):
        out[comp] = coef * spherical_harmonic(l_eff, m_eff, theta, phi)
    return out


@dataclass(frozen=True)
class SpinorField:
    """Normalized four-spinor eigenstate, evaluable on (rho, theta, phi) grids."""

    qn: QuantumNumbers
    a: float
    # the radial rule (rho, weights) that is exact for the state; see eigenstate
    rule: tuple = field(compare=False, repr=False)
    norm: float

    def __call__(self, rho, theta, phi) -> np.ndarray:
        """Four complex amplitudes, shape (4,) + broadcast(rho, theta, phi)."""
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        f, g = radial_fg(self.qn, self.a, rho)
        upper_part, lower_part = ("A", "B") if self.qn.kappa > 0 else ("B", "A")
        up = spinor_harmonic(upper_part, self.qn.j, self.qn.m_j, theta, phi)
        lo = spinor_harmonic(lower_part, self.qn.j, self.qn.m_j, theta, phi)
        scale = 1.0 / math.sqrt(self.norm)
        shape = np.broadcast(rho, theta, phi).shape
        out = np.empty((4,) + shape, dtype=complex)
        out[0] = 1j * f * up[0] * scale
        out[1] = 1j * f * up[1] * scale
        out[2] = g * lo[0] * scale
        out[3] = g * lo[1] * scale
        return out


def eigenstate(qn: QuantumNumbers, a: float) -> SpinorField:
    """Assembled bound state: (i f phi^A, g phi^B)/sqrt(N) for kappa > 0,
    A and B swapped for kappa < 0.

    rho^2 (f^2 + g^2) is rho^(2 nu) e^-rho times a polynomial of degree
    2 n_tilde, so n_tilde + 1 Gauss-Laguerre nodes for that weight integrate
    the normalization N = integral rho^2 (f^2 + g^2) d rho exactly; the state
    keeps that rule. A normalization that is not positive and finite (the
    rule's weights or the radial pair overflow at large n) raises QuadratureError.
    """
    _check_alpha(a)
    rule = radial_nodes(qn.n_tilde + 1, 2.0 * _nu(qn.kappa, a))
    rho, w = rule
    f, g = radial_fg(qn, a, rho)
    norm = float(np.sum(w * rho * rho * (f * f + g * g)))
    if not (norm > 0.0 and math.isfinite(norm)):
        raise QuadratureError(f"normalization must be positive and finite, got {norm}")
    return SpinorField(qn=qn, a=a, rule=rule, norm=norm)

