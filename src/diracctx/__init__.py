"""Numerics for noncontextuality-inequality violations of a relativistic
spin-1/2 particle: Dirac observable families, exact Coulomb bound states,
free-electron states, and the inequality evaluation machinery."""

__version__ = "0.1.0"

from .clifford import (
    ObservableTriple,
    audit_algebra,
    build_family,
    direction_observable,
    gamma_matrix,
)
from .contextuality import (
    InequalityReport,
    PeresMerminSquare,
    check_context,
    chsh_value,
    closed_form_value,
    excited_observables,
    ground_observables,
    optimal_xi,
    peres_mermin_square,
    peres_mermin_value,
)
from .freeparticle import (
    EnergySplit,
    FreeElectronState,
    energy_split,
    free_chsh,
    free_observables,
    free_state,
)
from .hydrogen import (
    FINE_STRUCTURE_ALPHA,
    KCheckResult,
    QuantumNumbers,
    SpinorField,
    apply_K_eigencheck,
    eigenstate,
    radial_fg,
    sommerfeld_mu,
    spinor_harmonic,
    valid_states,
)
from .specfun import (
    hyp1f1_terminating,
    quadrature_nodes,
    spherical_harmonic,
)
from .spindensity import (
    IncompatibleObservablesError,
    QuadratureError,
    ReducedSpinDensity,
    correlator,
    radial_weights,
    radial_weights_quadrature,
    reduce,
)

__all__ = [
    "__version__",
    "FINE_STRUCTURE_ALPHA",
    "EnergySplit",
    "FreeElectronState",
    "IncompatibleObservablesError",
    "InequalityReport",
    "KCheckResult",
    "ObservableTriple",
    "PeresMerminSquare",
    "QuadratureError",
    "QuantumNumbers",
    "ReducedSpinDensity",
    "SpinorField",
    "apply_K_eigencheck",
    "audit_algebra",
    "build_family",
    "check_context",
    "chsh_value",
    "closed_form_value",
    "correlator",
    "direction_observable",
    "eigenstate",
    "energy_split",
    "excited_observables",
    "free_chsh",
    "free_observables",
    "free_state",
    "gamma_matrix",
    "ground_observables",
    "hyp1f1_terminating",
    "optimal_xi",
    "peres_mermin_square",
    "peres_mermin_value",
    "quadrature_nodes",
    "radial_fg",
    "radial_weights",
    "radial_weights_quadrature",
    "reduce",
    "sommerfeld_mu",
    "spherical_harmonic",
    "spinor_harmonic",
    "valid_states",
]
