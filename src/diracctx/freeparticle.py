"""Free Dirac electron: plane-wave spinors, velocity-tuned observables, the
violation curve 2*sqrt(2 - beta^2), and the positive/negative-energy split.

The plane-wave factor e^{ikz} is dropped: every observable here is spatially
constant, so expectation values reduce to four-spinor contractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import alpha_matrices, beta_matrix, gamma_matrix, hermiticity_defect
from .contextuality import InequalityReport, chsh_value
from .spindensity import ReducedSpinDensity

_ALPHA_Z = alpha_matrices()[2]
_BETA = beta_matrix()


def _check_beta_v(beta_v: float) -> None:
    if not 0.0 <= beta_v < 1.0:
        raise ValueError(f"velocity ratio must lie in [0, 1), got {beta_v}")


@dataclass(frozen=True)
class FreeElectronState:
    """Positive-energy plane-wave spinor at momentum k along z (natural units)."""

    beta_v: float
    k: float
    energy: float
    helicity: int
    norm_const: float
    spinor: np.ndarray


def free_state(beta_v: float, helicity: int = 1) -> FreeElectronState:
    """Spinor (chi, k/(1+E) chi)/sqrt(N_e) with E = 1/sqrt(1-beta^2), N_e = 2E/(1+E)."""
    _check_beta_v(beta_v)
    if helicity not in (1, -1):
        raise ValueError(f"helicity must be +1 or -1, got {helicity}")
    energy = 1.0 / math.sqrt(1.0 - beta_v * beta_v)
    k = beta_v * energy
    norm_const = 2.0 * energy / (1.0 + energy)
    chi = np.array([1.0, 0.0]) if helicity == 1 else np.array([0.0, 1.0])
    spinor = np.concatenate([chi, (k / (1.0 + energy)) * chi]) / math.sqrt(norm_const)
    return FreeElectronState(
        beta_v=beta_v,
        k=k,
        energy=energy,
        helicity=helicity,
        norm_const=norm_const,
        spinor=spinor.astype(complex),
    )


def observable_angle(beta_v: float) -> float:
    """theta = arctan(1/E) = arctan(sqrt(1 - beta^2))."""
    _check_beta_v(beta_v)
    return math.atan(math.sqrt(1.0 - beta_v * beta_v))


def free_observables(beta_v: float):
    """(A', B', C', D') = (g0, (cos(t) g3 + sin(t) g1) g5, i g2, (-cos(t) g3 + sin(t) g1) g5)."""
    theta = observable_angle(beta_v)
    g0, g1, g2, g3, g5 = (gamma_matrix(i) for i in (0, 1, 2, 3, 5))
    a = g0
    b = (math.cos(theta) * g3 + math.sin(theta) * g1) @ g5
    c = 1j * g2
    d = (-math.cos(theta) * g3 + math.sin(theta) * g1) @ g5
    return a, b, c, d


def free_chsh(beta_v: float) -> InequalityReport:
    """Four-correlator inequality on the positive-helicity state; the closed
    form is 2*sqrt(2 - beta^2)."""
    state = free_state(beta_v, helicity=1)
    density = ReducedSpinDensity.from_pure(state.spinor, label=f"free beta={beta_v}")
    a, b, c, d = free_observables(beta_v)
    return chsh_value(
        density, a, b, c, d,
        parameters={
            "beta_v": beta_v,
            "theta": observable_angle(beta_v),
            "closed_form": 2.0 * math.sqrt(2.0 - beta_v * beta_v),
        },
    )


def free_hamiltonian(k: float) -> np.ndarray:
    """Fixed-momentum free Hamiltonian k*alpha_z + beta; squares to (1 + k^2)."""
    return k * _ALPHA_Z + _BETA


def energy_projector(beta_v: float, sign: int) -> np.ndarray:
    """Projector (1 + sign H/E)/2 onto the positive (sign = 1) or negative
    (sign = -1) energy subspace at the momentum of velocity ratio beta_v.

    H^2 = (1 + k^2) * identity = E^2 * identity, so the projector is exact.
    """
    _check_beta_v(beta_v)
    energy = 1.0 / math.sqrt(1.0 - beta_v * beta_v)
    return (np.eye(4) + sign * (free_hamiltonian(beta_v * energy) / energy)) / 2.0


@dataclass(frozen=True)
class EnergySplit:
    """Positive/negative-energy projectors at fixed k and, for one observable,
    the negative-energy weight of each of its eigenvectors."""

    beta_v: float
    k: float
    energy: float
    projector_positive: np.ndarray
    projector_negative: np.ndarray
    observable_eigenvalues: np.ndarray
    negative_weights: np.ndarray


def energy_split(beta_v: float, observable: np.ndarray) -> EnergySplit:
    """Diagonalize the observable and weigh each eigenvector against the
    negative-energy subspace of the fixed-k free Hamiltonian."""
    _check_beta_v(beta_v)
    obs = np.asarray(observable, dtype=complex)
    if hermiticity_defect(obs) > 1e-10:
        raise ValueError("observable must be Hermitian")
    energy = 1.0 / math.sqrt(1.0 - beta_v * beta_v)
    k = beta_v * energy
    proj_pos = energy_projector(beta_v, 1)
    proj_neg = energy_projector(beta_v, -1)
    eigvals, eigvecs = np.linalg.eigh(obs)
    weights = np.einsum("iu,uv,vi->i", eigvecs.conj().T, proj_neg, eigvecs).real
    return EnergySplit(
        beta_v=beta_v,
        k=k,
        energy=energy,
        projector_positive=proj_pos,
        projector_negative=proj_neg,
        observable_eigenvalues=eigvals,
        negative_weights=weights,
    )


def negative_weight_of_state(beta_v: float, spinor) -> float:
    """Negative-energy weight <u|P-|u> of an arbitrary normalized spinor."""
    u = np.asarray(spinor, dtype=complex).reshape(4)
    return float((u.conj() @ energy_projector(beta_v, -1) @ u).real)
