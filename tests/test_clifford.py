import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracctx import clifford
from diracctx.clifford import (
    AXES,
    FAMILY_LABELS,
    GAMMA,
    IDENTITY4,
    PERES_MERMIN_GRID,
    ObservableTriple,
    alpha_matrices,
    audit_algebra,
    beta_matrix,
    build_family,
    commutator,
    direction_observable,
    gamma_matrix,
    pauli_matrix,
)

I4 = np.eye(4)


def test_gamma0_is_offdiagonal_identity_blocks():
    expected = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert np.array_equal(gamma_matrix(0), expected)


def test_gamma5_is_block_diagonal_sign():
    # derived by multiplying out i*g0*g1*g2*g3
    assert np.array_equal(gamma_matrix(5), np.diag([-1, -1, 1, 1]).astype(complex))


def test_spatial_gammas_anticommute():
    g1, g2 = gamma_matrix(1), gamma_matrix(2)
    assert np.array_equal(g1 @ g2, -(g2 @ g1))


def test_gamma_squares():
    assert np.array_equal(gamma_matrix(0) @ gamma_matrix(0), I4)
    for i in (1, 2, 3):
        assert np.array_equal(gamma_matrix(i) @ gamma_matrix(i), -I4)


def test_invalid_gamma_index():
    with pytest.raises(ValueError):
        gamma_matrix(4)


def test_gamma_matrices_are_read_only():
    with pytest.raises(ValueError):
        gamma_matrix(0)[0, 0] = 9.0


def test_adjoint_is_involutive():
    for idx in (0, 1, 2, 3, 5):
        m = gamma_matrix(idx)
        assert np.array_equal(m.conj().T.conj().T, m)


def test_gamma_family_definition():
    fam = build_family("Gamma")
    assert np.array_equal(fam.x, gamma_matrix(0))
    assert np.array_equal(fam.y, gamma_matrix(2) @ gamma_matrix(0))
    assert np.array_equal(fam.z, 1j * gamma_matrix(2))


def test_gamma_prime_family_definition():
    fam = build_family("GammaPrime")
    assert np.array_equal(fam.x, gamma_matrix(3) @ gamma_matrix(5))
    assert np.array_equal(fam.y, 1j * gamma_matrix(3) @ gamma_matrix(1))
    assert np.array_equal(fam.z, gamma_matrix(5) @ gamma_matrix(1))


def test_sigma_families_are_kron_products():
    sig = build_family("Sigma")
    sigp = build_family("SigmaPrime")
    for ax in AXES:
        assert np.array_equal(sig.component(ax), np.kron(np.eye(2), pauli_matrix(ax)))
        assert np.array_equal(sigp.component(ax), np.kron(pauli_matrix(ax), np.eye(2)))


def test_cross_family_commutators_vanish_exactly():
    gam = build_family("Gamma")
    gamp = build_family("GammaPrime")
    for a in gam.components():
        for b in gamp.components():
            assert np.array_equal(commutator(a, b), np.zeros((4, 4)))


def test_self_commutator_is_zero():
    g0 = gamma_matrix(0)
    assert np.array_equal(commutator(g0, g0), np.zeros((4, 4)))


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_family_components_hermitian_involutions(label):
    fam = build_family(label)
    for m in fam.components():
        assert np.array_equal(m, m.conj().T)
        assert np.array_equal(m @ m, I4)


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_family_cyclic_products(label):
    fam = build_family(label)
    x, y, z = fam.components()
    assert np.array_equal(x @ y, 1j * z)
    assert np.array_equal(y @ z, 1j * x)
    assert np.array_equal(z @ x, 1j * y)


def test_sigma_squares_sum_to_three():
    sig = build_family("Sigma")
    total = sum(m @ m for m in sig.components())
    assert np.array_equal(total, 3 * I4)


def test_unknown_family_label():
    with pytest.raises(ValueError):
        build_family("Delta")


def test_alpha_beta_shapes():
    beta = beta_matrix()
    assert np.array_equal(beta, np.diag([1, 1, -1, -1]).astype(complex))
    for alpha in alpha_matrices():
        assert np.array_equal(alpha, alpha.conj().T)
        assert np.array_equal(alpha @ alpha, I4)
        # beta anticommutes with every alpha
        assert np.array_equal(alpha @ beta, -(beta @ alpha))


# --- direction observables ----------------------------------------------------

def test_direction_observable_basis_direction():
    gam = build_family("Gamma")
    assert np.array_equal(direction_observable(gam, (1.0, 0.0, 0.0)), gam.x)


@pytest.mark.parametrize("theta", np.linspace(0.0, 2.0 * math.pi, 9))
def test_direction_observable_squares_to_identity_on_circle(theta):
    gamp = build_family("GammaPrime")
    obs = direction_observable(gamp, (math.cos(theta), 0.0, -math.sin(theta)))
    assert np.abs(obs @ obs - I4).max() < 1e-12


@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=3))
@settings(max_examples=100)
def test_direction_observable_involution_random_units(raw):
    v = np.asarray(raw)
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        return
    fam = build_family("Sigma")
    obs = direction_observable(fam, v / norm)
    assert np.abs(obs @ obs - I4).max() < 1e-12
    assert np.abs(obs - obs.conj().T).max() < 1e-12
    eigs = np.linalg.eigvalsh(obs)
    assert np.allclose(np.abs(eigs), 1.0, atol=1e-12)


def test_direction_observable_rejects_non_unit():
    with pytest.raises(ValueError):
        direction_observable(build_family("Gamma"), (1.0, 1.0, 0.0))


def test_direction_observables_reproduce_ground_choice():
    # A, B, C, D from directions at theta = pi/4
    gam = build_family("Gamma")
    gamp = build_family("GammaPrime")
    s = 1.0 / math.sqrt(2.0)
    a = direction_observable(gam, (1.0, 0.0, 0.0))
    b = direction_observable(gamp, (s, 0.0, -s))
    c = direction_observable(gam, (0.0, 0.0, 1.0))
    d = direction_observable(gamp, (-s, 0.0, -s))
    assert np.allclose(a, gam.x)
    assert np.allclose(b, (gamp.x - gamp.z) * s)
    assert np.allclose(c, gam.z)
    assert np.allclose(d, -(gamp.x + gamp.z) * s)


def test_basis_transform_preserves_structure():
    # similarity switch: a random unitary must keep involutions and commutators
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(raw)
    gam = build_family("Gamma", basis=u)
    gamp = build_family("GammaPrime", basis=u)
    for m in (*gam.components(), *gamp.components()):
        assert np.abs(m @ m - I4).max() < 1e-12
    for a in gam.components():
        for b in gamp.components():
            assert np.abs(commutator(a, b)).max() < 1e-12


def test_basis_transform_rejects_non_unitary():
    with pytest.raises(ValueError):
        build_family("Gamma", basis=np.ones((4, 4)))


# --- audit ---------------------------------------------------------------------

def test_audit_passes_with_zero_residuals():
    audit = audit_algebra()
    assert audit.passed
    assert audit.max_residual == 0.0
    assert audit.failures() == ()


def test_audit_covers_expected_claims():
    names = {c.name for c in audit_algebra().checks}
    assert "[Gamma.x, GammaPrime.z] = 0" in names
    assert "Gamma.x^2 = 1" in names
    assert "pm col 3 product" in names
    assert "{gamma1, gamma2} = 0" in names


def test_audited_matrices_have_unit_gaussian_integer_entries():
    # the premise of the zero-tolerance audit: entries in {0, +-1, +-i}
    mats = [*GAMMA.values(), IDENTITY4]
    mats += [m for label in FAMILY_LABELS for m in build_family(label).components()]
    mats += [m for row in PERES_MERMIN_GRID for m in row]
    for m in mats:
        parts = np.concatenate([m.real.ravel(), m.imag.ravel()])
        assert np.array_equal(parts, np.round(parts))
        assert set(np.abs(m).ravel()) <= {0.0, 1.0}


def _flip_family(label, axis):
    fam = build_family(label)
    mats = {ax: fam.component(ax) for ax in AXES}
    mats[axis] = -mats[axis]
    return {**clifford._FAMILIES, label: ObservableTriple(label=label, **mats)}


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
    assert not audit.passed
    assert {c.name for c in audit.failures()} == expected
    assert all(c.residual == 2.0 for c in audit.failures())
    assert len(audit.checks) == 84


def test_audit_serializes():
    payload = audit_algebra().to_dict()
    assert payload["passed"] is True
    assert all(c["residual"] == 0.0 for c in payload["checks"])


def test_observable_triple_component_access():
    fam = build_family("Sigma")
    assert isinstance(fam, ObservableTriple)
    assert np.array_equal(fam.component("y"), fam.y)
    with pytest.raises(ValueError):
        fam.component("w")
