"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them inline)."""

import math
import time

import numpy as np

from bound_states import valid_states
from diracctx.clifford import PERES_MERMIN_LINES, audit_algebra, build_family, commutator
from diracctx.contextuality import (
    chsh_value,
    excited_observables,
    ground_observables,
    optimal_xi,
    peres_mermin_value,
)
from diracctx.freeparticle import energy_split, free_chsh, free_observables
from diracctx.hydrogen import (
    FINE_STRUCTURE_ALPHA as ALPHA,
    QuantumNumbers,
    eigenstate,
    sommerfeld_mu,
)
from diracctx.spindensity import (
    pure_density,
    reduce,
    state_label,
)
from report_blocks import block_rows
from test_hydrogen import apply_K_eigencheck


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _optimal_xi(qn: QuantumNumbers):
    """xi* and the closed-form maximum of one state, from its (kappa, 2 m_j, delta)."""
    xi_star, value_star = optimal_xi(qn.kappa, 2 * qn.m_j, sommerfeld_mu(qn.n, qn.kappa, ALPHA))
    return xi_star.item(), value_star.item()


def _ground_pipeline(m_j: float) -> float:
    state = eigenstate(QuantumNumbers(1, 1, m_j), ALPHA)
    density = reduce(state)
    return chsh_value(density, *ground_observables(m_j), {})["value"][0]


def test_criterion_01_ground_state_violation():
    expected = math.sqrt(2.0) * (1.0 + math.sqrt(1.0 - ALPHA**2))
    start = time.perf_counter()
    value = _ground_pipeline(0.5)
    elapsed = time.perf_counter() - start
    error = abs(value - expected)
    ok = error < 5e-5 and elapsed < 1.0
    _report(1, ok,
            f"ground value {value:.6f} vs {expected:.6f} "
            f"(|diff| {error:.2e} < 5e-5), runtime {elapsed:.3f}s < 1s")


def test_criterion_02_kramers_partner():
    expected = math.sqrt(2.0) * (1.0 + math.sqrt(1.0 - ALPHA**2))
    value = _ground_pipeline(-0.5)
    error = abs(value - expected)
    _report(2, error < 5e-5,
            f"m_j=-1/2 value {value:.6f} with swapped observables "
            f"(|diff| {error:.2e} < 5e-5)")


def test_criterion_03_closed_form_agreement():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for qn in valid_states(4):
        xi_star, value_star = _optimal_xi(qn)
        density = reduce(eigenstate(qn, ALPHA))
        value = chsh_value(density, *excited_observables([xi_star]), {})["value"][0]
        worst = max(worst, abs(value - value_star) / value_star)
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60.0
    _report(3, ok,
            f"{count} states n<=4, worst relative gap {worst:.2e} < 1e-8, "
            f"runtime {elapsed:.1f}s < 60s")


def test_criterion_04_every_state_violates():
    all_violate = True
    above_analytic_floor = True
    count = 0
    for qn in valid_states(5):
        _, value_star = _optimal_xi(qn)
        all_violate &= value_star > 2.0
        if qn.kappa > 0:
            lower = 2.0 * math.sqrt(1.0 + (1.0 - 4.0 * ALPHA**2) / (4.0 * (qn.l + 1) ** 2))
            above_analytic_floor &= value_star > lower
        count += 1
    _report(4, all_violate and above_analytic_floor,
            f"{count} states n<=5 all exceed 2; kappa>0 branch exceeds the "
            f"analytic lower bound 2*sqrt(1+(1-4a^2)/(4(l+1)^2))")


def test_criterion_05_peres_mermin_state_independence():
    worst = 0.0
    bounds_ok = True
    count = 0
    for qn in valid_states(3):
        (report,) = block_rows(peres_mermin_value(
            reduce(eigenstate(qn, ALPHA))[None], [state_label(qn.n, qn.kappa, qn.m_j)]))
        worst = max(worst, abs(report["value"] - 6.0))
        bounds_ok &= report["bound"] == 4.0
        count += 1
    rng = np.random.default_rng(2024)
    for _ in range(100):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        (report,) = block_rows(peres_mermin_value(pure_density(raw)[None], ["random"]))
        worst = max(worst, abs(report["value"] - 6.0))
        bounds_ok &= report["bound"] == 4.0
    (report,) = block_rows(peres_mermin_value((np.eye(4) / 4.0)[None], ["maximally-mixed"]))
    worst = max(worst, abs(report["value"] - 6.0))
    _report(5, worst < 1e-10 and bounds_ok,
            f"{count} eigenstates n<=3, 100 seeded spinors, maximally mixed: "
            f"worst |value-6| = {worst:.2e} < 1e-10, bound reported 4")


def test_criterion_06_free_electron_curve():
    betas = np.linspace(0.0, 0.999, 1000)
    worst = 0.0
    min_value = math.inf
    for beta in betas:
        value = free_chsh(float(beta))["value"][0]
        worst = max(worst, abs(value - 2.0 * math.sqrt(2.0 - beta * beta)))
        min_value = min(min_value, value)
    at_rest = free_chsh(0.0)["value"][0]
    ok = (
        worst < 1e-12
        and abs(at_rest - 2.0 * math.sqrt(2.0)) < 1e-12
        and min_value > 2.0
    )
    _report(6, ok,
            f"1000-point grid worst |gap| {worst:.2e} < 1e-12; value(0) = 2*sqrt(2); "
            f"min value {min_value:.6f} > 2 up to beta 0.999")


def test_criterion_07_algebra_audit():
    audit = audit_algebra()
    gam = build_family("Gamma")
    gamp = build_family("GammaPrime")
    commutators_zero = all(
        np.array_equal(commutator(a, b), np.zeros((4, 4)))
        for a in (gam["x"], gam["y"], gam["z"])
        for b in (gamp["x"], gamp["y"], gamp["z"])
    )
    eye = np.eye(4)
    products_ok = all(
        np.array_equal(a @ b @ c, sign * eye) for _, (a, b, c), sign in PERES_MERMIN_LINES
    ) and [sign for _, _, sign in PERES_MERMIN_LINES] == [1, 1, 1, 1, 1, -1]
    ok = all(r == 0.0 for r in audit.values()) and commutators_zero and products_ok
    _report(7, ok,
            f"{len(audit)} exact checks, max residual {max(audit.values())}; "
            f"9 commutators exactly zero; only the third column product is -1")


def test_criterion_08_radial_identities():
    worst = 0.0
    count = 0
    for qn in valid_states(4):
        if qn.m_j != 0.5:
            continue  # the radial pair is m_j-independent: one check per (n, kappa)
        mu = sommerfeld_mu(qn.n, qn.kappa, ALPHA)
        analytic = (1.0 + mu) / 2.0, (1.0 - mu) / 2.0
        density = reduce(eigenstate(qn, ALPHA))
        numeric = (density[0, 0] + density[1, 1]).real, (density[2, 2] + density[3, 3]).real
        worst = max(worst, abs(numeric[0] - analytic[0]), abs(numeric[1] - analytic[1]))
        count += 1
    ok = worst < 1e-8
    _report(8, ok,
            f"{count} radial solutions n<=4: quadrature block weights match "
            f"(1+-mu)/2, worst |gap| = {worst:.2e} < 1e-8")


def test_criterion_09_dirac_operator_check():
    worst_k = 0.0
    worst_ksq = 0.0
    count = 0
    for qn in valid_states(4):
        k, k_squared, _ = apply_K_eigencheck(qn)
        worst_k = max(worst_k, abs(k - qn.kappa))
        worst_ksq = max(worst_ksq, abs(k_squared - (qn.j * (qn.j + 1) + 0.25)))
        count += 1
    ok = worst_k < 1e-10 and worst_ksq < 1e-10
    _report(9, ok,
            f"{count} states n<=4: K eigenvalue hits sign*|kappa| "
            f"(worst {worst_k:.2e}), K^2 hits j(j+1)+1/4 (worst {worst_ksq:.2e})")


def test_criterion_10_measurability_contrast():
    mus = [sommerfeld_mu(qn.n, qn.kappa, ALPHA) for qn in valid_states(10)]
    spectrum_positive = min(mus) > 0.0
    mixing_everywhere = True
    for obs in free_observables(0.5):
        weights = energy_split(0.5, obs)
        mixing_everywhere &= bool(np.any((weights > 0.0) & (weights < 1.0)))
    ok = spectrum_positive and mixing_everywhere
    _report(10, ok,
            f"all {len(mus)} energies n<=10 positive (min mu {min(mus):.6f}); "
            f"each free observable at beta=0.5 has an eigenvector with "
            f"negative-energy weight strictly inside (0, 1)")
