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

_ALPHA_Z = alpha_matrices()[2]
_BETA = beta_matrix()
# g3 g5 and g1 g5: gamma^5 holds one +-1 per column, so scaling these products
# gives the bits of scaling g3 and g1 first and multiplying by g5 after
_G35 = gamma_matrix(3) @ gamma_matrix(5)
_G15 = gamma_matrix(1) @ gamma_matrix(5)
# beta points per vectorized pass of free_chsh_curve; bounds its (N, 4, 4) temporaries
CURVE_BLOCK = 512


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


def _plane_waves(betas: np.ndarray, helicity: int):
    """Energies E = 1/sqrt(1 - beta^2), momenta k, constants N_e = 2E/(1+E)
    and the real (N, 4) spinors (chi, k/(1+E) chi)/sqrt(N_e) at each velocity
    ratio. The spinors stay float64 here: dividing complex ones by sqrt(N_e)
    would round differently."""
    energy = 1.0 / np.sqrt(1.0 - betas * betas)
    k = betas * energy
    norm_const = 2.0 * energy / (1.0 + energy)
    chi = np.array([1.0, 0.0]) if helicity == 1 else np.array([0.0, 1.0])
    lower = (k / (1.0 + energy))[:, None] * chi
    spinors = np.concatenate([np.broadcast_to(chi, lower.shape), lower], axis=1)
    return energy, k, norm_const, spinors / np.sqrt(norm_const)[:, None]


def free_state(beta_v: float, helicity: int = 1) -> FreeElectronState:
    """Spinor (chi, k/(1+E) chi)/sqrt(N_e) with E = 1/sqrt(1-beta^2), N_e = 2E/(1+E)."""
    _check_beta_v(beta_v)
    if helicity not in (1, -1):
        raise ValueError(f"helicity must be +1 or -1, got {helicity}")
    energy, k, norm_const, spinors = _plane_waves(np.array([beta_v]), helicity)
    return FreeElectronState(
        beta_v=beta_v,
        k=float(k[0]),
        energy=float(energy[0]),
        helicity=helicity,
        norm_const=float(norm_const[0]),
        spinor=spinors[0].astype(complex),
    )


def observable_angle(beta_v: float) -> float:
    """theta = arctan(1/E) = arctan(sqrt(1 - beta^2))."""
    _check_beta_v(beta_v)
    return math.atan(math.sqrt(1.0 - beta_v * beta_v))


def _observables(thetas):
    """(A', B', C', D') with B' and D' as (N, 4, 4) stacks over the angles."""
    cos = np.array([math.cos(t) for t in thetas])[:, None, None]
    sin = np.array([math.sin(t) for t in thetas])[:, None, None]
    return gamma_matrix(0), cos * _G35 + sin * _G15, 1j * gamma_matrix(2), -cos * _G35 + sin * _G15


def free_observables(beta_v: float):
    """(A', B', C', D') = (g0, (cos(t) g3 + sin(t) g1) g5, i g2, (-cos(t) g3 + sin(t) g1) g5)."""
    a, b, c, d = _observables([observable_angle(beta_v)])
    return a, b[0], c, d[0]


def free_chsh_curve(betas) -> list[InequalityReport]:
    """Four-correlator inequality on the positive-helicity state at each
    velocity ratio; the closed form is 2*sqrt(2 - beta^2).

    The grid is evaluated in blocks of CURVE_BLOCK points, each one pass over
    (N, 4, 4) stacks of densities and of the B', D' observables.
    """
    betas = [float(b) for b in betas]
    thetas = [observable_angle(b) for b in betas]
    reports = []
    for start in range(0, len(betas), CURVE_BLOCK):
        block = betas[start:start + CURVE_BLOCK]
        angles = thetas[start:start + CURVE_BLOCK]
        spinors = _plane_waves(np.array(block), helicity=1)[3].astype(complex)
        # normalized as ReducedSpinDensity.from_pure does for one spinor
        u = spinors / np.linalg.norm(spinors, axis=-1, keepdims=True)
        densities = u[:, :, None] * u.conj()[:, None, :]
        parameters = [
            {"beta_v": b, "theta": t, "closed_form": 2.0 * math.sqrt(2.0 - b * b)}
            for b, t in zip(block, angles)
        ]
        reports += chsh_value(densities, *_observables(angles), parameters=parameters)
    return reports


def free_chsh(beta_v: float) -> InequalityReport:
    """The violation curve at one velocity ratio."""
    return free_chsh_curve([beta_v])[0]


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
