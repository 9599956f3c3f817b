"""Dirac gamma matrices, the commuting observable families, and algebra audits.

Two arithmetic layers: all structural claims (Hermiticity, involutions,
commutators, Peres-Mermin line products) are checked in exact integer-complex
arithmetic with zero tolerance, since every matrix entry lies in {0, +-1, +-i};
float matrices are what the rest of the package consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILY_LABELS = ("Gamma", "GammaPrime", "Sigma", "SigmaPrime")
AXES = ("x", "y", "z")

# exact matrices are (real, imag) int64 pairs
_I2 = np.eye(2, dtype=np.int64)
_Z2 = np.zeros((2, 2), dtype=np.int64)
_SX = np.array([[0, 1], [1, 0]], dtype=np.int64)
_SY_IM = np.array([[0, -1], [1, 0]], dtype=np.int64)  # sigma_y = i * _SY_IM
_SZ = np.array([[1, 0], [0, -1]], dtype=np.int64)

_PAULI_EXACT = {
    "x": (_SX, _Z2),
    "y": (_Z2, _SY_IM),
    "z": (_SZ, _Z2),
}


def _emat(re, im):
    return (np.asarray(re, dtype=np.int64), np.asarray(im, dtype=np.int64))


def _eblock(a, b, c, d):
    return _emat(
        np.block([[a[0], b[0]], [c[0], d[0]]]),
        np.block([[a[1], b[1]], [c[1], d[1]]]),
    )


def _eneg(a):
    return (-a[0], -a[1])


def _ematmul(a, b):
    return (a[0] @ b[0] - a[1] @ b[1], a[0] @ b[1] + a[1] @ b[0])


def _escale_i(a):
    """Multiply by the imaginary unit."""
    return (-a[1], a[0])


def _eadjoint(a):
    return (a[0].T.copy(), -a[1].T.copy())


def _esub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _eadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _emax_abs(a) -> int:
    return int(max(np.abs(a[0]).max(), np.abs(a[1]).max()))


def _ekron(a, b):
    return (
        np.kron(a[0], b[0]) - np.kron(a[1], b[1]),
        np.kron(a[0], b[1]) + np.kron(a[1], b[0]),
    )


def _to_complex(a) -> np.ndarray:
    m = a[0].astype(np.complex128) + 1j * a[1].astype(np.complex128)
    m.flags.writeable = False
    return m


_EZ2 = _emat(_Z2, _Z2)
_EI2 = _emat(_I2, _Z2)
_EI4 = _emat(np.eye(4, dtype=np.int64), np.zeros((4, 4), dtype=np.int64))

# Weyl-basis gamma matrices: gamma^0 off-diagonal identities,
# gamma^i off-diagonal +-sigma_i, gamma^5 = i g0 g1 g2 g3
_EGAMMA = {
    0: _eblock(_EZ2, _EI2, _EI2, _EZ2),
    1: _eblock(_EZ2, _PAULI_EXACT["x"], _eneg(_PAULI_EXACT["x"]), _EZ2),
    2: _eblock(_EZ2, _PAULI_EXACT["y"], _eneg(_PAULI_EXACT["y"]), _EZ2),
    3: _eblock(_EZ2, _PAULI_EXACT["z"], _eneg(_PAULI_EXACT["z"]), _EZ2),
}
_EGAMMA[5] = _escale_i(
    _ematmul(_ematmul(_EGAMMA[0], _EGAMMA[1]), _ematmul(_EGAMMA[2], _EGAMMA[3]))
)

_EFAMILIES = {
    "Gamma": {
        "x": _EGAMMA[0],
        "y": _ematmul(_EGAMMA[2], _EGAMMA[0]),
        "z": _escale_i(_EGAMMA[2]),
    },
    "GammaPrime": {
        "x": _ematmul(_EGAMMA[3], _EGAMMA[5]),
        "y": _escale_i(_ematmul(_EGAMMA[3], _EGAMMA[1])),
        "z": _ematmul(_EGAMMA[5], _EGAMMA[1]),
    },
    "Sigma": {ax: _ekron(_EI2, _PAULI_EXACT[ax]) for ax in AXES},
    "SigmaPrime": {ax: _ekron(_PAULI_EXACT[ax], _EI2) for ax in AXES},
}

GAMMA = {idx: _to_complex(m) for idx, m in _EGAMMA.items()}
IDENTITY4 = _to_complex(_EI4)


def gamma_matrix(index: int) -> np.ndarray:
    """Weyl-basis gamma matrix; index 5 is the product i*g0*g1*g2*g3."""
    if index not in GAMMA:
        raise ValueError(f"gamma index must be one of 0,1,2,3,5, got {index}")
    return GAMMA[index]


def pauli_matrix(axis: str) -> np.ndarray:
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return _to_complex(_PAULI_EXACT[axis])


def alpha_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The alpha = sigma_x (x) sigma vector of the Dirac Hamiltonian."""
    return tuple(_to_complex(_ekron(_PAULI_EXACT["x"], _PAULI_EXACT[ax])) for ax in AXES)


def beta_matrix() -> np.ndarray:
    """beta = sigma_z (x) identity = diag(1, 1, -1, -1)."""
    return _to_complex(_ekron(_PAULI_EXACT["z"], _EI2))


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


def build_family(label: str, basis: np.ndarray | None = None) -> ObservableTriple:
    """Observable triple for one of the four families.

    basis, if given, applies the global similarity transform M -> U M U^dag
    to every component (sensitivity-analysis switch; default is the literal
    representation).
    """
    if label not in FAMILY_LABELS:
        raise ValueError(f"label must be one of {FAMILY_LABELS}, got {label!r}")
    mats = {ax: _to_complex(_EFAMILIES[label][ax]) for ax in AXES}
    if basis is not None:
        u = np.asarray(basis, dtype=complex)
        if u.shape != (4, 4):
            raise ValueError("basis must be a 4x4 unitary")
        if np.abs(u @ u.conj().T - np.eye(4)).max() > 1e-12:
            raise ValueError("basis matrix is not unitary")
        mats = {ax: u @ m @ u.conj().T for ax, m in mats.items()}
    return ObservableTriple(x=mats["x"], y=mats["y"], z=mats["z"], label=label)


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
# numpy scalar (a float subclass) without a conversion


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entry of |a - a^dagger|."""
    return np.abs(a - a.conj().T).max()


def commutator_defect(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry of |[a, b]|."""
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


def _exact_pm_square():
    """Peres-Mermin grid in exact arithmetic (rows/cols of Sigma, SigmaPrime products)."""
    s = _EFAMILIES["Sigma"]
    sp = _EFAMILIES["SigmaPrime"]
    return (
        (sp["z"], s["z"], _ematmul(s["z"], sp["z"])),
        (s["x"], sp["x"], _ematmul(s["x"], sp["x"])),
        (_ematmul(sp["z"], s["x"]), _ematmul(sp["x"], s["z"]), _ematmul(s["y"], sp["y"])),
    )


def audit_algebra() -> AlgebraAudit:
    """Exact structural audit of every algebraic claim the observables rely on."""
    checks: list[AuditCheck] = []

    def add(name, delta):
        residual = _emax_abs(delta)
        checks.append(AuditCheck(name=name, passed=residual == 0, residual=float(residual)))

    # gamma anticommutation and squares
    spatial = (1, 2, 3)
    for i in spatial:
        add(f"gamma{i}^2 = -1", _eadd(_ematmul(_EGAMMA[i], _EGAMMA[i]), _EI4))
        add(f"{{gamma0, gamma{i}}} = 0",
            _eadd(_ematmul(_EGAMMA[0], _EGAMMA[i]), _ematmul(_EGAMMA[i], _EGAMMA[0])))
        add(f"{{gamma5, gamma{i}}} = 0",
            _eadd(_ematmul(_EGAMMA[5], _EGAMMA[i]), _ematmul(_EGAMMA[i], _EGAMMA[5])))
    for i in spatial:
        for j in spatial:
            if i < j:
                add(f"{{gamma{i}, gamma{j}}} = 0",
                    _eadd(_ematmul(_EGAMMA[i], _EGAMMA[j]), _ematmul(_EGAMMA[j], _EGAMMA[i])))
    add("gamma0^2 = 1", _esub(_ematmul(_EGAMMA[0], _EGAMMA[0]), _EI4))
    add("gamma5^2 = 1", _esub(_ematmul(_EGAMMA[5], _EGAMMA[5]), _EI4))
    add("{gamma5, gamma0} = 0",
        _eadd(_ematmul(_EGAMMA[5], _EGAMMA[0]), _ematmul(_EGAMMA[0], _EGAMMA[5])))

    # family components: Hermitian involutions, cyclic products
    for label in FAMILY_LABELS:
        fam = _EFAMILIES[label]
        for ax in AXES:
            add(f"{label}.{ax} hermitian", _esub(fam[ax], _eadjoint(fam[ax])))
            add(f"{label}.{ax}^2 = 1", _esub(_ematmul(fam[ax], fam[ax]), _EI4))
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            add(f"{label}.{a}*{b} = i*{c}",
                _esub(_ematmul(fam[a], fam[b]), _escale_i(fam[c])))

    # the nine cross-family commutators
    for a in AXES:
        for b in AXES:
            add(f"[Gamma.{a}, GammaPrime.{b}] = 0",
                _esub(_ematmul(_EFAMILIES["Gamma"][a], _EFAMILIES["GammaPrime"][b]),
                      _ematmul(_EFAMILIES["GammaPrime"][b], _EFAMILIES["Gamma"][a])))

    # Peres-Mermin lines: pairwise commutation, products +-1 with only col 3 negative
    grid = _exact_pm_square()
    lines = [(f"row {i + 1}", [grid[i][j] for j in range(3)], _EI4) for i in range(3)]
    lines += [
        (f"col {j + 1}", [grid[i][j] for i in range(3)], _eneg(_EI4) if j == 2 else _EI4)
        for j in range(3)
    ]
    for name, mats, expected in lines:
        for u in range(3):
            for v in range(u + 1, 3):
                add(f"pm {name} entries {u + 1},{v + 1} commute",
                    _esub(_ematmul(mats[u], mats[v]), _ematmul(mats[v], mats[u])))
        prod = _ematmul(_ematmul(mats[0], mats[1]), mats[2])
        add(f"pm {name} product", _esub(prod, expected))

    return AlgebraAudit(checks=tuple(checks))
