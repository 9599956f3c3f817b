"""Dirac gamma matrices, the commuting observable families, the Peres-Mermin
grid with its line table, and algebra audits.

Every matrix is built once, as a read-only complex128 array, and the audit
checks the very arrays the rest of the package consumes. The audit is exact,
with zero tolerance, because every entry is a Gaussian integer: entries start
in {0, +-1, +-i}, and after a product of at most four 4x4 matrices each real
and imaginary part is at most 4^3 = 64 in size. Sums and products of such
numbers are exact in IEEE double, whatever order BLAS uses.
"""

from __future__ import annotations

from types import MappingProxyType

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

# the alpha = sigma_x (x) sigma vector and beta = sigma_z (x) identity =
# diag(1, 1, -1, -1) of the Dirac Hamiltonian
ALPHA = tuple(_frozen(np.kron(_PAULI["x"], _PAULI[ax])) for ax in AXES)
BETA = _frozen(np.kron(_PAULI["z"], _I2))


def _triple(x, y, z) -> MappingProxyType:
    """Read-only axes x, y, z -> Hermitian involutions, x*y = i*z cyclically."""
    return MappingProxyType(dict(zip(AXES, map(_frozen, (x, y, z)))))


_FAMILIES = {
    "Gamma": _triple(GAMMA[0], GAMMA[2] @ GAMMA[0], 1j * GAMMA[2]),
    "GammaPrime": _triple(GAMMA[3] @ GAMMA[5], 1j * (GAMMA[3] @ GAMMA[1]), GAMMA[5] @ GAMMA[1]),
    "Sigma": _triple(*(np.kron(_I2, _PAULI[ax]) for ax in AXES)),
    "SigmaPrime": _triple(*(np.kron(_PAULI[ax], _I2) for ax in AXES)),
}

# the Peres-Mermin grid: products along each row and down the first two
# columns are +1, down the third column -1
_S, _SP = _FAMILIES["Sigma"], _FAMILIES["SigmaPrime"]
PERES_MERMIN_GRID = (
    (_SP["z"], _S["z"], _frozen(_S["z"] @ _SP["z"])),
    (_S["x"], _SP["x"], _frozen(_S["x"] @ _SP["x"])),
    (_frozen(_SP["z"] @ _S["x"]), _frozen(_SP["x"] @ _S["z"]), _frozen(_S["y"] @ _SP["y"])),
)


def _lines(grid) -> tuple:
    """The six lines of a Peres-Mermin grid: each line's name (R1-R3 for the
    rows, C1-C3 for the columns), its three observables and the sign of their
    product."""
    rows = tuple((f"R{i + 1}", tuple(grid[i]), 1) for i in range(3))
    columns = tuple(
        (f"C{j + 1}", tuple(row[j] for row in grid), -1 if j == 2 else 1) for j in range(3)
    )
    return rows + columns


PERES_MERMIN_LINES = _lines(PERES_MERMIN_GRID)


def build_family(label: str) -> MappingProxyType:
    """The read-only axis mapping (x, y, z) of one of the four families."""
    if label not in FAMILY_LABELS:
        raise ValueError(f"label must be one of {FAMILY_LABELS}, got {label!r}")
    return _FAMILIES[label]


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entry of |a - a^dagger| over every matrix of the stack: it acts
    on the last two axes and broadcasts over leading ones. It runs once per
    checked_observable call (4 per chsh_value, 6 per peres_mermin_value), so
    it returns the numpy scalar, a float subclass, without a conversion."""
    return np.abs(a - a.conj().swapaxes(-1, -2)).max()


def audit_algebra() -> dict[str, float]:
    """Exact structural audit of every algebraic claim the observables rely on:
    each check's name and its residual, the largest entry modulus of the
    difference, in a fixed order.

    It checks the complex128 arrays the package uses, and a check passes only
    when its residual is exactly 0. Zero tolerance is sound because every
    entry is a Gaussian integer: entries start in {0, +-1, +-i}, each product
    below multiplies at most four matrices, so each real and imaginary part
    stays at most 64 in size, and sums and products of such numbers are exact
    in IEEE double whatever order BLAS uses.
    """
    residuals: dict[str, float] = {}

    def add(name, delta):
        residuals[name] = float(np.abs(delta).max())

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
        for ax, m in fam.items():
            add(f"{label}.{ax} hermitian", m - m.conj().T)
            add(f"{label}.{ax}^2 = 1", m @ m - IDENTITY4)
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            add(f"{label}.{a}*{b} = i*{c}", fam[a] @ fam[b] - 1j * fam[c])

    # the nine cross-family commutators
    for a in AXES:
        for b in AXES:
            add(f"[Gamma.{a}, GammaPrime.{b}] = 0",
                commutator(_FAMILIES["Gamma"][a], _FAMILIES["GammaPrime"][b]))

    # Peres-Mermin lines: pairwise commutation, products +-1 with only col 3
    # negative; the lines are taken from the grid as it is now
    for line, mats, sign in _lines(PERES_MERMIN_GRID):
        name = f"{'row' if line[0] == 'R' else 'col'} {line[1]}"
        for u in range(3):
            for v in range(u + 1, 3):
                add(f"pm {name} entries {u + 1},{v + 1} commute", commutator(mats[u], mats[v]))
        add(f"pm {name} product", mats[0] @ mats[1] @ mats[2] - sign * IDENTITY4)

    return residuals
