"""Reduce a spinor field to its 4x4 spin density and evaluate correlators as traces.

All observables in play are spatially constant, so <O1 O2> factors exactly
into trace(rho_spin . O1 . O2) against the single integrated density
rho_spin[u][v] = integral psi_u conj(psi_v) rho^2 d rho dOmega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import commutator_defect, hermiticity_defect
from .hydrogen import QuantumNumbers, SpinorField, sommerfeld_mu, radial_fg
from .specfun import quadrature_nodes, radial_nodes

BLOCK_WEIGHT_TOLERANCE = 1e-8
COMMUTE_TOLERANCE = 1e-10


class QuadratureError(RuntimeError):
    """A block weight of the reduced density departs from its closed form."""


class IncompatibleObservablesError(ValueError):
    """Correlator requested for a non-commuting observable pair."""


@dataclass(frozen=True)
class ReducedSpinDensity:
    """Hermitian, positive, unit-trace 4x4 matrix with provenance metadata."""

    matrix: np.ndarray
    label: str

    @classmethod
    def from_pure(cls, spinor, label: str = "pure") -> "ReducedSpinDensity":
        """Density |u><u| of a four-spinor, normalized if needed."""
        u = np.asarray(spinor, dtype=complex).reshape(4)
        nrm = np.linalg.norm(u)
        if nrm == 0:
            raise ValueError("cannot build a density from the zero spinor")
        u = u / nrm
        return cls(matrix=np.outer(u, u.conj()), label=label)

    @classmethod
    def maximally_mixed(cls) -> "ReducedSpinDensity":
        return cls(matrix=np.eye(4, dtype=complex) / 4.0, label="maximally-mixed")

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def hermiticity_defect(self) -> float:
        return float(hermiticity_defect(self.matrix))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())


def reduce(state: SpinorField, radial_count: int | None = None) -> ReducedSpinDensity:
    """Integrate out space on the product rule that is exact for the state.

    Every density entry is rho^(2 nu) e^-rho times a polynomial of degree
    2 n_tilde in rho, times a polynomial of degree <= 2l + 2 in cos(theta) and
    e^(i k phi) with |k| <= 1; radial_count Gauss-Laguerre nodes (default
    n_tilde + 1), l + 2 Gauss-Legendre nodes and the 2-point phi trapezoid
    integrate that exactly.

    Raises QuadratureError if either block trace departs from its closed form
    (1 +- mu)/2 by more than 1e-8. The normalization and this integral share
    the radial rule, so the trace alone could not reveal an inexact rule.
    """
    qn = state.qn
    count = qn.n_tilde + 1 if radial_count is None else radial_count
    nodes = quadrature_nodes(count, qn.l + 2, 2.0 * state.radial.nu)
    theta = np.arccos(nodes.cos_theta)
    rho = nodes.rho[:, None, None]
    th = theta[None, :, None]
    ph = nodes.phi[None, None, :]
    psi = state(rho, th, ph)
    weight = (
        (nodes.rho_weights * nodes.rho**2)[:, None, None]
        * nodes.cos_theta_weights[None, :, None]
        * nodes.phi_weights[None, None, :]
    )
    # deterministic accumulation order: einsum over the fixed node layout
    mat = np.einsum("urtp,vrtp,rtp->uv", psi, psi.conj(), weight, optimize=True)
    label = f"n={qn.n} kappa={qn.kappa} mj={qn.m_j}"
    blocks = (mat[0, 0] + mat[1, 1]).real, (mat[2, 2] + mat[3, 3]).real
    drift = max(abs(got - want) for got, want in zip(blocks, radial_weights(qn, state.a)))
    if drift > BLOCK_WEIGHT_TOLERANCE:
        raise QuadratureError(
            f"{label}: a block weight departs from (1 +- mu)/2 by {drift:.3e} "
            f"> {BLOCK_WEIGHT_TOLERANCE} on {count} radial nodes"
        )
    return ReducedSpinDensity(matrix=mat, label=label)


def _check_observable(name: str, o: np.ndarray) -> None:
    if hermiticity_defect(o) > COMMUTE_TOLERANCE:
        raise IncompatibleObservablesError(f"observable {name} is not Hermitian")


def correlator(density: ReducedSpinDensity, o1: np.ndarray, o2: np.ndarray) -> float:
    """Real part of trace(rho . o1 . o2) for a commuting Hermitian pair."""
    o1 = np.asarray(o1, dtype=complex)
    o2 = np.asarray(o2, dtype=complex)
    _check_observable("O1", o1)
    _check_observable("O2", o2)
    comm = commutator_defect(o1, o2)
    if comm > COMMUTE_TOLERANCE:
        raise IncompatibleObservablesError(
            f"observables do not commute (largest entry {comm:.3e}); "
            "the correlator is only defined on compatible pairs"
        )
    value = np.trace(density.matrix @ o1 @ o2)
    if abs(value.imag) > COMMUTE_TOLERANCE:
        raise QuadratureError(f"correlator has spurious imaginary part {value.imag:.3e}")
    return float(value.real)


def radial_weights(qn: QuantumNumbers, a: float) -> tuple[float, float]:
    """Analytic spatial weights of the upper/lower blocks: ((1+mu)/2, (1-mu)/2)."""
    mu = sommerfeld_mu(qn.n, qn.kappa, a)
    return (1.0 + mu) / 2.0, (1.0 - mu) / 2.0


def radial_weights_quadrature(qn: QuantumNumbers, a: float) -> tuple[float, float]:
    """Companion check: the same weights from quadrature of f^2 and g^2."""
    rho, w = radial_nodes(qn.n_tilde + 1, 2.0 * math.sqrt(qn.kappa * qn.kappa - a * a))
    f, g = radial_fg(qn, a, rho)
    int_f = float(np.sum(w * rho * rho * f * f))
    int_g = float(np.sum(w * rho * rho * g * g))
    total = int_f + int_g
    return int_f / total, int_g / total
