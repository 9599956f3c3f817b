#!/usr/bin/env python3
"""Run every headline scenario and print the numbers in one compact table.

Usage:
    python scripts/reproduce_all.py [--alpha A] [--n-max N]
"""

import argparse
import math
import time

import numpy as np

from diracctx.clifford import audit_algebra
from diracctx.contextuality import (
    chsh_value,
    excited_observables,
    ground_observables,
    optimal_xi,
    peres_mermin_value,
)
from diracctx.freeparticle import energy_split, free_chsh_curve, free_observables
from diracctx.hydrogen import (
    FINE_STRUCTURE_ALPHA,
    QuantumNumbers,
    eigenstate,
    sommerfeld_mu,
    valid_states,
)
from diracctx.spindensity import ReducedSpinDensity, reduce


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=FINE_STRUCTURE_ALPHA)
    parser.add_argument("--n-max", type=int, default=4)
    args = parser.parse_args()
    a = args.alpha

    start = time.perf_counter()
    print("=" * 78)
    print(f"relativistic spin-1/2 contextuality reproduction   (alpha = {a:.9g})")
    print("=" * 78)

    audit = audit_algebra()
    print(f"\nexact algebra audit: {len(audit.checks)} checks, "
          f"max residual {audit.max_residual}, passed={audit.passed}")

    print("\n--- ground states, dedicated observables ---")
    expected = math.sqrt(2.0) * (1.0 + math.sqrt(1.0 - a * a))
    for m_j in (0.5, -0.5):
        density = reduce(eigenstate(QuantumNumbers(1, 1, m_j), a))
        value = chsh_value(density, *ground_observables(m_j)).value
        print(f"  m_j={m_j:+.1f}: value = {value:.6f}   "
              f"closed form sqrt(2)(1+sqrt(1-a^2)) = {expected:.6f}")

    print(f"\n--- eigenstate sweep n <= {args.n_max} at optimal xi ---")
    print(f"  {'n':>2} {'kappa':>5} {'mj':>5}  {'mu':<18} {'value':<18} {'closed form':<18}")
    worst = 0.0
    smallest = math.inf
    rows = 0
    for qn in valid_states(args.n_max):
        xi_star, value_star = optimal_xi(qn, a)
        density = reduce(eigenstate(qn, a))
        value = chsh_value(density, *excited_observables(xi_star)).value
        worst = max(worst, abs(value - value_star) / value_star)
        if value_star < smallest:
            smallest, smallest_qn = value_star, qn
        rows += 1
        if qn.m_j == 0.5:  # one representative row per (n, kappa)
            print(f"  {qn.n:>2} {qn.kappa:>5} {qn.m_j:>5}  "
                  f"{sommerfeld_mu(qn.n, qn.kappa, a):<18.12f} "
                  f"{value:<18.12f} {value_star:<18.12f}")
    print(f"  {rows} states; worst quadrature/closed-form relative gap {worst:.2e}; "
          f"smallest violation {smallest:.6f} "
          f"(n={smallest_qn.n}, kappa={smallest_qn.kappa}, mj={smallest_qn.m_j}) > 2")

    print("\n--- Peres-Mermin square, noncontextual bound 4 ---")
    values = []
    for qn in valid_states(2):
        values.append(peres_mermin_value(reduce(eigenstate(qn, a))).value)
    rng = np.random.default_rng(0)
    for _ in range(50):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        values.append(peres_mermin_value(ReducedSpinDensity.from_pure(raw)).value)
    values.append(peres_mermin_value(ReducedSpinDensity.maximally_mixed()).value)
    print(f"  {len(values)} states (eigenstates, random spinors, maximally mixed): "
          f"value = 6 with spread {max(values) - min(values):.2e}")

    print("\n--- free Dirac electron, value = 2 sqrt(2 - beta^2) ---")
    betas = (0.0, 0.3, 0.6, 0.9, 0.999)
    for beta, report in zip(betas, free_chsh_curve(betas)):
        print(f"  beta={beta:<6} value = {report.value:.12f}   "
              f"closed form = {2.0 * math.sqrt(2.0 - beta * beta):.12f}")

    print("\n--- measurability contrast at beta = 0.5 ---")
    mus = [sommerfeld_mu(qn.n, qn.kappa, a) for qn in valid_states(10)]
    print(f"  hydrogen spectrum n <= 10: all positive (min mu = {min(mus):.9f})")
    for name, obs in zip("ABCD", free_observables(0.5)):
        weights = energy_split(0.5, obs).negative_weights
        formatted = ", ".join(f"{w:.4f}" for w in weights)
        print(f"  observable {name}': negative-energy weights per eigenvector: {formatted}")

    print(f"\ndone in {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
