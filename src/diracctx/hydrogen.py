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
from typing import Iterator

import numpy as np

from .specfun import hyp1f1_terminating, radial_nodes, spherical_harmonic

FINE_STRUCTURE_ALPHA = 1.0 / 137.036


def _check_alpha(a: float, allow_zero: bool = False) -> None:
    lo_ok = a >= 0.0 if allow_zero else a > 0.0
    if not (lo_ok and a < 1.0):
        bound = "[0, 1)" if allow_zero else "(0, 1)"
        raise ValueError(f"fine structure constant must lie in {bound}, got {a}")


@dataclass(frozen=True)
class QuantumNumbers:
    """Bound-state labels (n, kappa, m_j); j, l, m and the Kramers sign derive
    from kappa."""

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
    def abs_kappa(self) -> int:
        return abs(self.kappa)

    @property
    def sign(self) -> int:
        return 1 if self.kappa > 0 else -1

    @property
    def j(self) -> float:
        return abs(self.kappa) - 0.5

    @property
    def l(self) -> int:
        return abs(self.kappa) - 1

    @property
    def m(self) -> int:
        return int(round(self.m_j - 0.5))

    @property
    def n_tilde(self) -> int:
        return self.n - abs(self.kappa)


def valid_states(n_max: int) -> Iterator[QuantumNumbers]:
    """All bound states with n <= n_max, in deterministic order."""
    for n in range(1, n_max + 1):
        for abs_k in range(1, n + 1):
            signs = (1,) if abs_k == n else (1, -1)
            for s in signs:
                j = abs_k - 0.5
                for twice_mj in range(-int(2 * j), int(2 * j) + 1, 2):
                    yield QuantumNumbers(n=n, kappa=s * abs_k, m_j=twice_mj / 2.0)


def sommerfeld_mu(n: int, kappa: int, a: float) -> float:
    """Bound-state energy mu = E/Mc^2; depends on kappa only through |kappa|.

    a = 0 is admitted and gives the rest-energy limit mu = 1.
    """
    _check_alpha(a, allow_zero=True)
    if kappa == 0 or abs(kappa) > n or n < 1:
        raise ValueError(f"invalid (n, kappa) = ({n}, {kappa})")
    nu = math.sqrt(kappa * kappa - a * a)
    return (1.0 + (a / (n - abs(kappa) + nu)) ** 2) ** -0.5


@dataclass(frozen=True)
class RadialSolution:
    """Derived radial parameters plus the normalization
    N = integral rho^2 (f^2 + g^2) d rho, and the exact radial rule
    (rho, weights) it was computed on, which reduce integrates on too."""

    n_tilde: int
    nu: float
    mu: float
    lam: float
    norm: float
    rule: tuple = field(repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        if not (self.norm > 0.0 and math.isfinite(self.norm)):
            raise ValueError(f"normalization must be positive and finite, got {self.norm}")


def radial_fg(qn: QuantumNumbers, a: float, rho):
    """Unnormalized radial pair (f, g) at dimensionless rho.

    The 1F1(1 - n_tilde, ...) term is skipped entirely when n_tilde = 0: its
    prefactor n_tilde vanishes and the series would not terminate.
    """
    _check_alpha(a)
    rho = np.asarray(rho, dtype=float)
    nt = qn.n_tilde
    nu = math.sqrt(qn.kappa * qn.kappa - a * a)
    mu = sommerfeld_mu(qn.n, qn.kappa, a)
    lam = 1.0 / math.sqrt(1.0 - mu * mu)
    coef = a * lam + qn.kappa
    series = coef * hyp1f1_terminating(-nt, 2.0 * nu + 1.0, rho)
    f_series = series
    g_series = series
    if nt > 0:
        extra = nt * hyp1f1_terminating(1 - nt, 2.0 * nu + 1.0, rho)
        f_series = series - extra
        g_series = series + extra
    envelope = rho ** (nu - 1.0) * np.exp(-rho / 2.0)
    f = math.sqrt(1.0 + mu) * f_series * envelope
    g = math.sqrt(1.0 - mu) * g_series * envelope
    return f, g


def radial_solution(qn: QuantumNumbers, a: float) -> RadialSolution:
    """Radial parameters with the normalization computed on the exact radial
    rule: rho^2 (f^2 + g^2) is rho^(2 nu) e^-rho times a polynomial of degree
    2 n_tilde, so n_tilde + 1 Gauss-Laguerre nodes integrate it exactly."""
    mu = sommerfeld_mu(qn.n, qn.kappa, a)
    nu = math.sqrt(qn.kappa * qn.kappa - a * a)
    rule = radial_nodes(qn.n_tilde + 1, 2.0 * nu)
    rho, w = rule
    f, g = radial_fg(qn, a, rho)
    norm = float(np.sum(w * rho * rho * (f * f + g * g)))
    return RadialSolution(
        n_tilde=qn.n_tilde,
        nu=nu,
        mu=mu,
        lam=1.0 / math.sqrt(1.0 - mu * mu),
        norm=norm,
        rule=rule,
    )


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
    radial: RadialSolution

    @property
    def mu(self) -> float:
        return self.radial.mu

    def __call__(self, rho, theta, phi) -> np.ndarray:
        """Four complex amplitudes, shape (4,) + broadcast(rho, theta, phi)."""
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        f, g = radial_fg(self.qn, self.a, rho)
        upper_part, lower_part = ("A", "B") if self.qn.kappa > 0 else ("B", "A")
        up = spinor_harmonic(upper_part, self.qn.j, self.qn.m_j, theta, phi)
        lo = spinor_harmonic(lower_part, self.qn.j, self.qn.m_j, theta, phi)
        scale = 1.0 / math.sqrt(self.radial.norm)
        shape = np.broadcast(rho, theta, phi).shape
        out = np.empty((4,) + shape, dtype=complex)
        out[0] = 1j * f * up[0] * scale
        out[1] = 1j * f * up[1] * scale
        out[2] = g * lo[0] * scale
        out[3] = g * lo[1] * scale
        return out


def eigenstate(qn: QuantumNumbers, a: float = FINE_STRUCTURE_ALPHA) -> SpinorField:
    """Assembled bound state: (i f phi^A, g phi^B)/sqrt(N) for kappa > 0,
    A and B swapped for kappa < 0."""
    return SpinorField(qn=qn, a=a, radial=radial_solution(qn, a))


# --- Dirac-operator eigencheck via ladder-operator action -------------------
#
# An angular 2-spinor is a coefficient table {(component, l, m): coef}; sigma.L
# acts as [[Lz, L-], [L+, -Lz]] with L+- Y_lm = sqrt(l(l+1) - m(m+-1)) Y_l,m+-1.


def _harmonic_table(part: str, j: float, m_j: float) -> dict:
    l = int(round(j - 0.5))
    m = int(round(m_j - 0.5))
    return {(comp, l_eff, m_eff): coef for comp, l_eff, m_eff, coef in _spinor_terms(part, l, m)}


def _apply_sigma_dot_l(table: dict) -> dict:
    out: dict = {}

    def accumulate(key, value):
        if value != 0.0:
            out[key] = out.get(key, 0.0) + value

    for (comp, l, m), c in table.items():
        # sigma_z L_z part
        accumulate((comp, l, m), (m if comp == 0 else -m) * c)
        if comp == 1:
            # L- lifts lower into upper component
            amp = l * (l + 1) - m * (m - 1)
            if amp > 0:
                accumulate((0, l, m - 1), math.sqrt(amp) * c)
        else:
            # L+ drops upper into lower component
            amp = l * (l + 1) - m * (m + 1)
            if amp > 0:
                accumulate((1, l, m + 1), math.sqrt(amp) * c)
    return out


def _rayleigh(table_out: dict, table_in: dict) -> float:
    num = sum(table_out.get(k, 0.0) * v for k, v in table_in.items())
    den = sum(v * v for v in table_in.values())
    return num / den


def _residual(table_out: dict, table_in: dict, lam: float) -> float:
    keys = set(table_out) | set(table_in)
    return math.sqrt(
        sum((table_out.get(k, 0.0) - lam * table_in.get(k, 0.0)) ** 2 for k in keys)
    )


@dataclass(frozen=True)
class KCheckResult:
    expected: int
    computed: float
    computed_squared: float
    residual: float


def apply_K_eigencheck(qn: QuantumNumbers) -> KCheckResult:
    """Measure the Dirac-operator eigenvalue K = beta(Sigma.L + 1) on the state.

    K acts blockwise: +(sigma.L + 1) on the upper angular spinor, -(sigma.L + 1)
    on the lower one; both blocks must give sign(kappa)*|kappa|, and the block
    applied twice gives K^2 = j(j+1) + 1/4.
    """
    upper_part, lower_part = ("A", "B") if qn.kappa > 0 else ("B", "A")
    values = []
    residual = 0.0
    squares = []
    for part, beta_sign in ((upper_part, 1.0), (lower_part, -1.0)):
        table = _harmonic_table(part, qn.j, qn.m_j)
        once = _apply_sigma_dot_l(table)
        # (sigma.L + 1) then the beta sign of the block
        k_table = {k: beta_sign * (once.get(k, 0.0) + table.get(k, 0.0))
                   for k in set(once) | set(table)}
        lam = _rayleigh(k_table, table)
        values.append(lam)
        residual = max(residual, _residual(k_table, table, lam))
        twice = _apply_sigma_dot_l(once)
        ksq_table = {
            k: twice.get(k, 0.0) + 2.0 * once.get(k, 0.0) + table.get(k, 0.0)
            for k in set(twice) | set(once) | set(table)
        }
        squares.append(_rayleigh(ksq_table, table))
    if abs(values[0] - values[1]) > 1e-12 or abs(squares[0] - squares[1]) > 1e-12:
        raise AssertionError(f"blockwise K eigenvalues disagree for {qn}: {values}")
    return KCheckResult(
        expected=qn.kappa,
        computed=values[0],
        computed_squared=squares[0],
        residual=residual,
    )
