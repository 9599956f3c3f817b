import math
from types import MappingProxyType

import numpy as np
import pytest

from diracctx import clifford
from diracctx.clifford import (
    ALPHA,
    AXES,
    BETA,
    FAMILY_LABELS,
    GAMMA,
    IDENTITY4,
    PERES_MERMIN_GRID,
    audit_algebra,
    build_family,
    commutator,
)
from diracctx.contextuality import ground_observables, plane_observables

I4 = np.eye(4)
# written out here, apart from the package's own
PAULI = {
    "x": np.array([[0, 1], [1, 0]]),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1, 0], [0, -1]]),
}


def test_gamma0_is_offdiagonal_identity_blocks():
    expected = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert np.array_equal(GAMMA[0], expected)


def test_gamma5_is_block_diagonal_sign():
    # derived by multiplying out i*g0*g1*g2*g3
    assert np.array_equal(GAMMA[5], np.diag([-1, -1, 1, 1]).astype(complex))


def test_spatial_gammas_anticommute():
    g1, g2 = GAMMA[1], GAMMA[2]
    assert np.array_equal(g1 @ g2, -(g2 @ g1))


def test_gamma_squares():
    assert np.array_equal(GAMMA[0] @ GAMMA[0], I4)
    for i in (1, 2, 3):
        assert np.array_equal(GAMMA[i] @ GAMMA[i], -I4)


def test_invalid_gamma_index():
    # the Weyl-basis table holds gamma^0..gamma^3 and gamma^5 only
    assert sorted(GAMMA) == [0, 1, 2, 3, 5]
    with pytest.raises(KeyError):
        GAMMA[4]


def test_gamma_matrices_are_read_only():
    with pytest.raises(ValueError):
        GAMMA[0][0, 0] = 9.0


def test_adjoint_is_involutive():
    for idx in (0, 1, 2, 3, 5):
        m = GAMMA[idx]
        assert np.array_equal(m.conj().T.conj().T, m)


def test_gamma_family_definition():
    fam = build_family("Gamma")
    assert np.array_equal(fam["x"], GAMMA[0])
    assert np.array_equal(fam["y"], GAMMA[2] @ GAMMA[0])
    assert np.array_equal(fam["z"], 1j * GAMMA[2])


def test_gamma_prime_family_definition():
    fam = build_family("GammaPrime")
    assert np.array_equal(fam["x"], GAMMA[3] @ GAMMA[5])
    assert np.array_equal(fam["y"], 1j * GAMMA[3] @ GAMMA[1])
    assert np.array_equal(fam["z"], GAMMA[5] @ GAMMA[1])


def test_sigma_families_are_kron_products():
    sig = build_family("Sigma")
    sigp = build_family("SigmaPrime")
    for ax in AXES:
        assert np.array_equal(sig[ax], np.kron(np.eye(2), PAULI[ax]))
        assert np.array_equal(sigp[ax], np.kron(PAULI[ax], np.eye(2)))


def test_cross_family_commutators_vanish_exactly():
    gam = build_family("Gamma")
    gamp = build_family("GammaPrime")
    for a in (gam["x"], gam["y"], gam["z"]):
        for b in (gamp["x"], gamp["y"], gamp["z"]):
            assert np.array_equal(commutator(a, b), np.zeros((4, 4)))


def test_self_commutator_is_zero():
    g0 = GAMMA[0]
    assert np.array_equal(commutator(g0, g0), np.zeros((4, 4)))


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_family_components_hermitian_involutions(label):
    fam = build_family(label)
    for m in (fam["x"], fam["y"], fam["z"]):
        assert np.array_equal(m, m.conj().T)
        assert np.array_equal(m @ m, I4)


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_family_cyclic_products(label):
    fam = build_family(label)
    x, y, z = fam["x"], fam["y"], fam["z"]
    assert np.array_equal(x @ y, 1j * z)
    assert np.array_equal(y @ z, 1j * x)
    assert np.array_equal(z @ x, 1j * y)


def test_sigma_squares_sum_to_three():
    sig = build_family("Sigma")
    total = sum(m @ m for m in (sig["x"], sig["y"], sig["z"]))
    assert np.array_equal(total, 3 * I4)


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_families_are_read_only_axis_mappings(label):
    fam = build_family(label)
    assert tuple(fam) == AXES
    with pytest.raises(TypeError):
        fam["x"] = IDENTITY4
    assert not any(m.flags.writeable for m in fam.values())


def test_unknown_family_label():
    with pytest.raises(ValueError):
        build_family("Delta")


def test_alpha_beta_shapes():
    assert np.array_equal(BETA, np.diag([1, 1, -1, -1]).astype(complex))
    assert len(ALPHA) == 3
    for alpha in ALPHA:
        assert np.array_equal(alpha, alpha.conj().T)
        assert np.array_equal(alpha @ alpha, I4)
        # beta anticommutes with every alpha
        assert np.array_equal(alpha @ BETA, -(BETA @ alpha))
    assert not any(m.flags.writeable for m in (BETA, *ALPHA))


# --- direction observables ----------------------------------------------------

def _direction(fam, n):
    """The family's observable along the unit direction n: n_x X + n_y Y + n_z Z."""
    return n[0] * fam["x"] + n[1] * fam["y"] + n[2] * fam["z"]


def test_direction_observables_reproduce_ground_choice():
    # A, B, C, D from directions at theta = pi/4
    gam = build_family("Gamma")
    gamp = build_family("GammaPrime")
    s = 1.0 / math.sqrt(2.0)
    a, b, c, d = plane_observables(*ground_observables(0.5))
    assert np.allclose(a, _direction(gam, (1.0, 0.0, 0.0)))
    assert np.allclose(b, _direction(gamp, (s, 0.0, -s)))
    assert np.allclose(c, _direction(gam, (0.0, 0.0, 1.0)))
    assert np.allclose(d, _direction(gamp, (-s, 0.0, -s)))
    for obs in (a, b, c, d):
        assert np.abs(obs @ obs - I4).max() < 1e-12


# --- audit ---------------------------------------------------------------------

def test_audit_passes_with_zero_residuals():
    audit = audit_algebra()
    assert all(r == 0.0 for r in audit.values())
    assert max(audit.values()) == 0.0
    assert [name for name, r in audit.items() if r != 0.0] == []


def test_audit_covers_expected_claims():
    names = set(audit_algebra())
    assert "[Gamma.x, GammaPrime.z] = 0" in names
    assert "Gamma.x^2 = 1" in names
    assert "pm col 3 product" in names
    assert "{gamma1, gamma2} = 0" in names


def test_audited_matrices_have_unit_gaussian_integer_entries():
    # the premise of the zero-tolerance audit: entries in {0, +-1, +-i}
    mats = [*GAMMA.values(), IDENTITY4]
    mats += [build_family(label)[ax] for label in FAMILY_LABELS for ax in AXES]
    mats += [m for row in PERES_MERMIN_GRID for m in row]
    for m in mats:
        parts = np.concatenate([m.real.ravel(), m.imag.ravel()])
        assert np.array_equal(parts, np.round(parts))
        assert set(np.abs(m).ravel()) <= {0.0, 1.0}


def _flip_family(label, axis):
    mats = dict(build_family(label))
    mats[axis] = -mats[axis]
    return {**clifford._FAMILIES, label: MappingProxyType(mats)}


def _flip_grid_entry(i, j):
    grid = [list(row) for row in PERES_MERMIN_GRID]
    grid[i][j] = -grid[i][j]
    return tuple(tuple(row) for row in grid)


@pytest.mark.parametrize("attribute, patched, expected", [
    ("_FAMILIES", _flip_family("GammaPrime", "y"),
     {"GammaPrime.x*y = i*z", "GammaPrime.y*z = i*x", "GammaPrime.z*x = i*y"}),
    ("PERES_MERMIN_GRID", _flip_grid_entry(2, 2),
     {"pm row 3 product", "pm col 3 product"}),
], ids=["flip-GammaPrime.y", "flip-pm-entry-3,3"])
def test_audit_fails_on_a_perturbed_matrix(monkeypatch, attribute, patched, expected):
    monkeypatch.setattr(clifford, attribute, patched)
    audit = audit_algebra()
    failures = {name: r for name, r in audit.items() if r != 0.0}
    assert failures
    assert set(failures) == expected
    assert all(r == 2.0 for r in failures.values())
    assert len(audit) == 84

