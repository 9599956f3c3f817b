#!/usr/bin/env python3
"""Run every headline scenario through the CLI and print its numbers in one
compact table.

Each section reads the report of one CLI command (audit, ground, sweep,
peres-mermin, free-electron, measurability), as `diracctx <command>` would
write it.

Usage:
    python scripts/reproduce_all.py [--alpha A] [--n-max N]
"""

import argparse
import time

from diracctx.cli import RunConfig, execute
from diracctx.hydrogen import FINE_STRUCTURE_ALPHA


def results(command: str, **knobs) -> list:
    return execute(RunConfig(command=command, **knobs)).results


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

    (audit,) = results("audit", alpha=a)
    print(f"\nexact algebra audit: {len(audit['terms'])} checks, "
          f"max residual {audit['value']}, passed={not audit['violated']}")

    print("\n--- ground states, dedicated observables ---")
    for m_j in (0.5, -0.5):
        (ground,) = results("ground", alpha=a, m_j=m_j)
        print(f"  m_j={m_j:+.1f}: value = {ground['value']:.6f}   "
              f"closed form sqrt(2)(1+sqrt(1-a^2)) = {ground['parameters']['closed_form']:.6f}")

    print(f"\n--- eigenstate sweep n <= {args.n_max} at optimal xi ---")
    print(f"  {'n':>2} {'kappa':>5} {'mj':>5}  {'mu':<18} {'value':<18} {'closed form':<18}")
    sweep = results("sweep", alpha=a, n_max=args.n_max)
    for r in sweep:
        p = r["parameters"]
        if p["mj"] == 0.5:  # one representative row per (n, kappa)
            print(f"  {p['n']:>2} {p['kappa']:>5} {p['mj']:>5}  {p['mu']:<18.12f} "
                  f"{r['value']:<18.12f} {p['closed_form']:<18.12f}")
    worst = max(abs(r["value"] - r["parameters"]["closed_form"]) / r["parameters"]["closed_form"]
                for r in sweep)
    smallest = min(sweep, key=lambda r: r["parameters"]["closed_form"])["parameters"]
    print(f"  {len(sweep)} states; worst quadrature/closed-form relative gap {worst:.2e}; "
          f"smallest violation {smallest['closed_form']:.6f} "
          f"(n={smallest['n']}, kappa={smallest['kappa']}, mj={smallest['mj']}) > 2")

    print("\n--- Peres-Mermin square, noncontextual bound 4 ---")
    values = [r["value"] for r in results("peres-mermin", alpha=a, n_max=2)]
    print(f"  {len(values)} states (eigenstates, random spinors, maximally mixed): "
          f"value = 6 with spread {max(values) - min(values):.2e}")

    print("\n--- free Dirac electron, value = 2 sqrt(2 - beta^2) ---")
    for r in results("free-electron", alpha=a, beta_grid=(0.0, 0.3, 0.6, 0.9, 0.999)):
        p = r["parameters"]
        print(f"  beta={p['beta_v']:<6} value = {r['value']:.12f}   "
              f"closed form = {p['closed_form']:.12f}")

    print("\n--- measurability contrast at beta = 0.5 ---")
    spectrum, *mixing = results("measurability", alpha=a, n_max=10, beta=0.5)
    print(f"  hydrogen spectrum n <= 10: all positive "
          f"(min mu = {spectrum['terms']['min_mu']:.9f})")
    for name, r in zip("ABCD", mixing):
        formatted = ", ".join(f"{w:.4f}" for w in r["terms"].values())
        print(f"  observable {name}': negative-energy weights per eigenvector: {formatted}")

    print(f"\ndone in {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
