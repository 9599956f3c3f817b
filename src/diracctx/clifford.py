"""Dirac gamma matrices, the commuting observable families, and algebra audits.

Every matrix is built once, as a read-only complex128 array, and the audit
checks the very arrays the rest of the package consumes. The audit is exact,
with zero tolerance, because every entry is a Gaussian integer: entries start
in {0, +-1, +-i}, and after a product of at most four 4x4 matrices each real
and imaginary part is at most 4^3 = 64 in size. Sums and products of such
numbers are exact in IEEE double, whatever order BLAS uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILY_LABELS = ("Gamma", "GammaPrime", "Sigma", "SigmaPrime")
AXES = ("x", "y", "z")


def _frozen(m) -> np.ndarray:
    # adding 0 turns the -0.0 that negation and complex products leave on zeros
    # into +0.0, so each array is its exact Gaussian-integer value bit for bit
    m = np.asarray(m, dtype=np.complex128) + 0.0
    m.flags.writeable = False
    return m


_PAULI = {
    "x": _frozen([[0, 1], [1, 0]]),
    "y": _frozen([[0, -1j], [1j, 0]]),
    "z": _frozen([[1, 0], [0, -1]]),
}
_I2 = _frozen(np.eye(2))
_Z2 = _frozen(np.zeros((2, 2)))
IDENTITY4 = _frozen(np.eye(4))

# Weyl-basis gamma matrices: gamma^0 off-diagonal identities,
# gamma^i off-diagonal +-sigma_i, gamma^5 = i g0 g1 g2 g3
GAMMA = {0: _frozen(np.block([[_Z2, _I2], [_I2, _Z2]]))}
GAMMA.update(
    (i, _frozen(np.block([[_Z2, _PAULI[ax]], [-_PAULI[ax], _Z2]])))
    for i, ax in enumerate(AXES, start=1)
)
GAMMA[5] = _frozen(1j * (GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]))

# the alpha = sigma_x (x) sigma vector and beta = sigma_z (x) identity
_ALPHA = tuple(_frozen(np.kron(_PAULI["x"], _PAULI[ax])) for ax in AXES)
_BETA = _frozen(np.kron(_PAULI["z"], _I2))


def gamma_matrix(index: int) -> np.ndarray:
    """Weyl-basis gamma matrix; index 5 is the product i*g0*g1*g2*g3."""
    if index not in GAMMA:
        raise ValueError(f"gamma index must be one of 0,1,2,3,5, got {index}")
    return GAMMA[index]


def pauli_matrix(axis: str) -> np.ndarray:
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return _PAULI[axis]


def alpha_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The alpha = sigma_x (x) sigma vector of the Dirac Hamiltonian."""
    return _ALPHA


def beta_matrix() -> np.ndarray:
    """beta = sigma_z (x) identity = diag(1, 1, -1, -1)."""
    return _BETA


@dataclass(frozen=True)
class ObservableTriple:
    """A commuting-family triple; each component is a Hermitian involution and
    x*y = i*z cyclically."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    label: str

    def components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.x, self.y, self.z)

    def component(self, axis: str) -> np.ndarray:
        if axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
        return getattr(self, axis)


def _triple(label: str, x, y, z) -> ObservableTriple:
    return ObservableTriple(x=_frozen(x), y=_frozen(y), z=_frozen(z), label=label)


_FAMILIES = {
    "Gamma": _triple("Gamma", GAMMA[0], GAMMA[2] @ GAMMA[0], 1j * GAMMA[2]),
    "GammaPrime": _triple(
        "GammaPrime", GAMMA[3] @ GAMMA[5], 1j * (GAMMA[3] @ GAMMA[1]), GAMMA[5] @ GAMMA[1]
    ),
    "Sigma": _triple("Sigma", *(np.kron(_I2, _PAULI[ax]) for ax in AXES)),
    "SigmaPrime": _triple("SigmaPrime", *(np.kron(_PAULI[ax], _I2) for ax in AXES)),
}

# the Peres-Mermin grid: products along each row and down the first two
# columns are +1, down the third column -1
_S, _SP = _FAMILIES["Sigma"], _FAMILIES["SigmaPrime"]
PERES_MERMIN_GRID = (
    (_SP.z, _S.z, _frozen(_S.z @ _SP.z)),
    (_S.x, _SP.x, _frozen(_S.x @ _SP.x)),
    (_frozen(_SP.z @ _S.x), _frozen(_SP.x @ _S.z), _frozen(_S.y @ _SP.y)),
)


def build_family(label: str, basis: np.ndarray | None = None) -> ObservableTriple:
    """Observable triple for one of the four families.

    basis, if given, applies the global similarity transform M -> U M U^dag
    to every component (sensitivity-analysis switch; default is the literal
    representation).
    """
    if label not in FAMILY_LABELS:
        raise ValueError(f"label must be one of {FAMILY_LABELS}, got {label!r}")
    family = _FAMILIES[label]
    if basis is None:
        return family
    u = np.asarray(basis, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("basis must be a 4x4 unitary")
    if np.abs(u @ u.conj().T - np.eye(4)).max() > 1e-12:
        raise ValueError("basis matrix is not unitary")
    x, y, z = (u @ m @ u.conj().T for m in family.components())
    return ObservableTriple(x=x, y=y, z=z, label=label)


def direction_observable(family: ObservableTriple, n) -> np.ndarray:
    """Hermitian involution family . n for a unit 3-vector n."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {n.shape}")
    if abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector, |n| = {np.linalg.norm(n)}")
    return n[0] * family.x + n[1] * family.y + n[2] * family.z


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


# the two checks below run on every correlator call, so they return the
# numpy scalar (a float subclass) without a conversion; both act on the last
# two axes and broadcast over leading ones, so one call checks a whole stack


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entry of |a - a^dagger| over every matrix of the stack."""
    return np.abs(a - a.conj().swapaxes(-1, -2)).max()


def commutator_defect(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry of |[a, b]| over every matrix pair of the broadcast stacks."""
    return np.abs(a @ b - b @ a).max()


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class AlgebraAudit:
    checks: tuple[AuditCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max(c.residual for c in self.checks)

    def failures(self) -> tuple[AuditCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "residual": c.residual}
                for c in self.checks
            ],
        }


def audit_algebra() -> AlgebraAudit:
    """Exact structural audit of every algebraic claim the observables rely on.

    It checks the complex128 arrays the package uses, and a check passes only
    when its residual (the largest entry modulus of the difference) is exactly
    0. Zero tolerance is sound because every entry is a Gaussian integer:
    entries start in {0, +-1, +-i}, each product below multiplies at most four
    matrices, so each real and imaginary part stays at most 64 in size, and
    sums and products of such numbers are exact in IEEE double whatever order
    BLAS uses.
    """
    checks: list[AuditCheck] = []

    def add(name, delta):
        residual = float(np.abs(delta).max())
        checks.append(AuditCheck(name=name, passed=residual == 0.0, residual=residual))

    g = GAMMA
    # gamma anticommutation and squares
    spatial = (1, 2, 3)
    for i in spatial:
        add(f"gamma{i}^2 = -1", g[i] @ g[i] + IDENTITY4)
        add(f"{{gamma0, gamma{i}}} = 0", g[0] @ g[i] + g[i] @ g[0])
        add(f"{{gamma5, gamma{i}}} = 0", g[5] @ g[i] + g[i] @ g[5])
    for i in spatial:
        for j in spatial:
            if i < j:
                add(f"{{gamma{i}, gamma{j}}} = 0", g[i] @ g[j] + g[j] @ g[i])
    add("gamma0^2 = 1", g[0] @ g[0] - IDENTITY4)
    add("gamma5^2 = 1", g[5] @ g[5] - IDENTITY4)
    add("{gamma5, gamma0} = 0", g[5] @ g[0] + g[0] @ g[5])

    # family components: Hermitian involutions, cyclic products
    for label in FAMILY_LABELS:
        fam = _FAMILIES[label]
        for ax in AXES:
            m = fam.component(ax)
            add(f"{label}.{ax} hermitian", m - m.conj().T)
            add(f"{label}.{ax}^2 = 1", m @ m - IDENTITY4)
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            add(f"{label}.{a}*{b} = i*{c}",
                fam.component(a) @ fam.component(b) - 1j * fam.component(c))

    # the nine cross-family commutators
    for a in AXES:
        for b in AXES:
            add(f"[Gamma.{a}, GammaPrime.{b}] = 0",
                commutator(_FAMILIES["Gamma"].component(a),
                           _FAMILIES["GammaPrime"].component(b)))

    # Peres-Mermin lines: pairwise commutation, products +-1 with only col 3 negative
    grid = PERES_MERMIN_GRID
    lines = [(f"row {i + 1}", grid[i], IDENTITY4) for i in range(3)]
    lines += [
        (f"col {j + 1}", [grid[i][j] for i in range(3)], -IDENTITY4 if j == 2 else IDENTITY4)
        for j in range(3)
    ]
    for name, mats, expected in lines:
        for u in range(3):
            for v in range(u + 1, 3):
                add(f"pm {name} entries {u + 1},{v + 1} commute", commutator(mats[u], mats[v]))
        add(f"pm {name} product", mats[0] @ mats[1] @ mats[2] - expected)

    return AlgebraAudit(checks=tuple(checks))
