"""Free Dirac electron: plane-wave densities, velocity-tuned observables, the
violation curve 2*sqrt(2 - beta^2), and the positive/negative-energy split.

The plane-wave factor e^{ikz} is dropped: every observable here is spatially
constant, so expectation values reduce to four-spinor contractions.
"""

from __future__ import annotations

import math

import numpy as np

from .clifford import ALPHA, BETA
from .contextuality import XZ_PLANE, chsh_value, plane_observables
from .spindensity import COMMUTE_TOLERANCE, checked_observable


def check_betas(betas) -> None:
    """Raise ValueError unless every velocity ratio of betas, a float or an
    array, lies in [0, 1): the error names the first point outside, NaN
    included."""
    betas = np.ravel(betas)
    bad = ~((betas >= 0.0) & (betas < 1.0))
    if bad.any():
        raise ValueError(f"velocity ratio must lie in [0, 1), got {float(betas[bad.argmax()])}")


def _inverse_energy(betas):
    """1/E = sqrt(1 - beta^2), as sqrt((1 - beta)(1 + beta)): near beta = 1,
    1 - beta^2 would cancel, and each factor is exact or within half an ulp."""
    return np.sqrt((1.0 - betas) * (1.0 + betas))


def _plane_wave_densities(betas: np.ndarray, inverse_energies: np.ndarray) -> np.ndarray:
    """The real (N, 4, 4) densities |u><u| of the positive-helicity spinors
    u = (1, 0, k/(1+E), 0)/sqrt(2E/(1+E)), k = beta E, in closed form from
    beta and 1/E: (1 + 1/E)/2 at (0, 0), (1 - 1/E)/2 at (2, 2), beta/2 at
    (0, 2) and (2, 0), and zero elsewhere."""
    densities = np.zeros((len(betas), 4, 4))
    densities[:, 0, 0] = (1.0 + inverse_energies) / 2.0
    densities[:, 2, 2] = (1.0 - inverse_energies) / 2.0
    densities[:, 0, 2] = densities[:, 2, 0] = betas / 2.0
    return densities


def _observables(inverse_energies: np.ndarray):
    """The angles theta = arctan(1/E), math's atan, and the setting (plane, cos,
    sin) of (A', B', C', D'): the float64 x-z plane at cos theta =
    1/sqrt(1 + (1/E)^2) and sin theta = (1/E) cos theta, correctly rounded."""
    thetas = list(map(math.atan, inverse_energies.tolist()))
    cos = 1.0 / np.sqrt(1.0 + inverse_energies * inverse_energies)
    return thetas, (XZ_PLANE, cos, inverse_energies * cos)


def free_observables(beta_v: float):
    """(A', B', C', D') = (g0, (cos(t) g3 + sin(t) g1) g5, i g2, (-cos(t) g3 + sin(t) g1) g5),
    the curve's own float64 matrices at beta_v: g0, i g2, g3 g5 and g1 g5 are
    Gamma.x, Gamma.z, GammaPrime.x and -GammaPrime.z, since g1 g5 = -g5 g1."""
    check_betas(beta_v)
    plane, cos, sin = _observables(_inverse_energy(np.array([beta_v], dtype=float)))[1]
    return plane_observables(plane, cos[0], sin[0])


def free_chsh(betas) -> dict:
    """Four-correlator inequality on the positive-helicity state at each
    velocity ratio of betas, a float or a sequence, as a report block of one
    row per point; the closed form is 2*sqrt(2 - beta^2).

    The points are evaluated in one pass over an (N, 4, 4) float64 stack of
    densities and the angle columns of the x-z plane; a caller with a long
    grid passes it a block at a time.
    """
    betas = np.ravel(np.asarray(betas, dtype=float))
    check_betas(betas)
    inverse_energies = _inverse_energy(betas)
    thetas, setting = _observables(inverse_energies)
    return chsh_value(_plane_wave_densities(betas, inverse_energies), *setting, parameters={
        "beta_v": betas, "theta": thetas, "closed_form": 2.0 * np.sqrt(2.0 - betas * betas)})


def energy_split(beta_v: float, observable: np.ndarray) -> np.ndarray:
    """The negative-energy weights of a dichotomic observable O at the momentum
    k = beta E of velocity ratio beta_v: the eigenvalues w of the projector
    P = (1 - H/E)/2 onto the negative energies of H = k alpha_z + beta (exact,
    as H^2 = E^2) on each eigenspace of O, so no basis of one moves them:
    (1 -+ beta)/2 for A' and C', (1 -+ beta/sqrt(2 - beta^2))/2 for B' and D'.
    M = (O P + P O)/2 + 2 O is -(2 + w) on O's -1 eigenspace and 2 + w on its
    +1 eigenspace, so the weights come in M's ascending order: the -1
    eigenspace by decreasing weight, then the +1 eigenspace by increasing
    weight. O^2 != 1 raises ValueError."""
    check_betas(beta_v)
    energy = 1.0 / _inverse_energy(beta_v)
    hamiltonian = beta_v * energy * ALPHA[2] + BETA
    proj_neg = (np.eye(4) - hamiltonian / energy) / 2.0
    o = checked_observable("to split", observable)
    if not np.abs(o @ o - np.eye(4)).max() <= COMMUTE_TOLERANCE:
        raise ValueError("observable to split is not dichotomic: O^2 != 1")
    eigvecs = np.linalg.eigh((o @ proj_neg + proj_neg @ o) / 2.0 + 2.0 * o)[1]
    return np.einsum("iu,uv,vi->i", eigvecs.conj().T, proj_neg, eigvecs).real
