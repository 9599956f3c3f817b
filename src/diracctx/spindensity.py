"""The 4x4 spin density of a state as a plain matrix, and expectations as traces.

All observables in play are spatially constant, so <O1 O2> factors exactly
into trace(rho_spin . O1 . O2) against the single integrated density
rho_spin[u][v] = integral psi_u conj(psi_v) rho^2 d rho dOmega. A density is
a (4, 4) array, complex or, when every entry is real, float64, and many of
them are a (..., 4, 4) stack; the maximally mixed state is np.eye(4) / 4.

analytic_densities gives the densities of many bound states in closed form,
from the columns (kappa, 2 m_j, delta) alone: the potential enters only
through delta = <beta>, which is mu for hydrogen. reduce integrates a spinor
field for one state; the converge command compares its result with the closed
form, entry by entry, as the independent quadrature oracle.
"""

from __future__ import annotations

import numpy as np

from .clifford import hermiticity_defect
from .hydrogen import QuadratureError, SpinorField
from .specfun import quadrature_nodes

COMMUTE_TOLERANCE = 1e-10


class IncompatibleObservablesError(ValueError):
    """Correlator requested for a non-commuting observable pair."""


def pure_density(spinors) -> np.ndarray:
    """Density |u><u| of a four-spinor (4,), or of each spinor of a (..., 4)
    stack as a (..., 4, 4) stack, each normalized in complex if needed.

    Each norm is sqrt(re.re + im.im), every part one (1, 4) @ (4, 1) product:
    the bits of np.linalg.norm on one spinor.
    """
    u = np.asarray(spinors, dtype=complex)
    u = u.reshape(u.shape[:-1] + (4,))
    re, im = u.real[..., None, :], u.imag[..., None, :]
    nrm = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    if (nrm == 0).any():
        raise ValueError("cannot build a density from the zero spinor")
    u = u / nrm
    return u[..., :, None] * u.conj()[..., None, :]


def state_label(n: int, kappa: int, m_j: float) -> str:
    """The label a bound state's Peres-Mermin report and quadrature errors carry."""
    return f"n={n} kappa={kappa} mj={m_j}"


def analytic_densities(kappa, twice_mj, delta) -> np.ndarray:
    """The spin densities of bound states in closed form, as one (N, 4, 4)
    complex stack over the columns kappa, 2 m_j and delta = <beta>.

    Each is diagonal: the upper block weight (1 + delta)/2 and the lower one
    (1 - delta)/2 times the squared Clebsch-Gordan coefficients of the block's
    spinor harmonic, with m = m_j - 1/2 and l = |kappa| - 1. They are the
    rationals A = ((l+m+1), (l-m))/(2l+1) for the harmonic of orbital l and
    B = ((l-m+1), (l+m+2))/(2l+3) for orbital l + 1; A sits in the upper
    block for kappa > 0, B for kappa < 0.
    """
    kappa, twice_mj, delta = np.broadcast_arrays(kappa, twice_mj, delta)
    l = np.abs(kappa) - 1
    m = (twice_mj - 1) // 2
    part_a = np.stack([(l + m + 1) / (2 * l + 1), (l - m) / (2 * l + 1)], axis=-1)
    part_b = np.stack([(l - m + 1) / (2 * l + 3), (l + m + 2) / (2 * l + 3)], axis=-1)
    positive = (kappa > 0)[..., None]
    diagonals = np.concatenate([
        ((1.0 + delta) / 2.0)[..., None] * np.where(positive, part_a, part_b),
        ((1.0 - delta) / 2.0)[..., None] * np.where(positive, part_b, part_a),
    ], axis=-1)
    densities = np.zeros(diagonals.shape + (4,), dtype=complex)
    densities[..., range(4), range(4)] = diagonals
    return densities


def reduce(state: SpinorField) -> np.ndarray:
    """Integrate out space on the product rule that is exact for the state.

    Every density entry is rho^(2 nu) e^-rho times a polynomial of degree
    2 n_tilde in rho, times a polynomial of degree <= 2l + 2 in cos(theta) and
    e^(i k phi) with |k| <= 1; the state's radial rule of n_tilde + 1
    Gauss-Laguerre nodes, l + 2 Gauss-Legendre nodes and the 2-point phi
    trapezoid integrate that exactly. The normalization and this integral
    use the same rule, so the trace alone could not reveal an inexact rule;
    the entries of the result can, against analytic_densities.
    """
    axes, weight = quadrature_nodes(state.rule, state.qn.l + 2)
    psi = state(*axes)
    # deterministic accumulation order: einsum over the fixed node layout
    return np.einsum("urtp,vrtp,rtp->uv", psi, psi.conj(), weight, optimize=True)


def checked_observable(name: str, o) -> np.ndarray:
    """o as a matrix, or a (..., 4, 4) stack, once it is Hermitian: float64
    when o is real, complex128 otherwise."""
    o = np.asarray(o)
    o = o.astype(float if np.isrealobj(o) else complex, copy=False)
    # written as not <= so that a nan entry fails the check too
    if not hermiticity_defect(o) <= COMMUTE_TOLERANCE:
        raise IncompatibleObservablesError(f"observable {name} is not Hermitian")
    return o


def correlator(rho: np.ndarray, o1: np.ndarray, o2: np.ndarray) -> np.ndarray:
    """Real part of trace(rho . o1 . o2) for observables that checked_observable
    passed, over the broadcast leading axes of the densities and both
    observables: for two matrices of a plane, one correlator column over a
    density stack, and for single matrices a numpy float64, which is a float.
    Raises if the pair does not commute, and ValueError as expectation does."""
    product = o1 @ o2
    comm = np.abs(product - o2 @ o1).max()
    if not comm <= COMMUTE_TOLERANCE:
        raise IncompatibleObservablesError(
            f"observables do not commute (largest entry {comm:.3e}); "
            "the correlator is only defined on compatible pairs"
        )
    return expectation(rho, product)


def expectation(rho: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Real part of trace(rho . op) over the broadcast leading axes of the
    densities and the operator. Raises ValueError if a density is not finite
    or not Hermitian (the trace of a Hermitian op then has an imaginary part)."""
    # the diagonal of rho . op, then its sum, gives the bits of
    # trace(rho @ o1 @ o2) on the free-electron grid and the sweep stacks; the
    # one-step "...ij,...ji->..." contraction moves the last bit of some terms
    value = np.einsum("...ij,...ji->...i", rho, op).sum(-1)
    spurious = np.abs(value.imag)
    if not spurious.max() <= COMMUTE_TOLERANCE:
        worst = np.ravel(value.imag)[np.ravel(spurious).argmax()]
        raise ValueError(
            f"density is not Hermitian: its trace has imaginary part {worst:.3e}")
    # a real density and operator leave no imaginary part to carry a nan
    if not np.isfinite(value.real).all():
        raise ValueError("density has an entry that is not finite")
    return value.real
