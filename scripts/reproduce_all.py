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

import numpy as np

from diracctx.cli import RunConfig, execute
from diracctx.hydrogen import FINE_STRUCTURE_ALPHA


def results(command: str, **knobs) -> list:
    """The report blocks of one command, read from execute's one-shot results."""
    return list(execute(RunConfig(command=command, **knobs))["results"])


def column(blocks: list, *keys: str) -> np.ndarray:
    """One column of the blocks, joined: column(blocks, "parameters", "mu")."""
    columns = []
    for block in blocks:
        for key in keys:
            block = block[key]
        columns.append(block)
    return np.concatenate(columns)


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

    (audit,) = results("audit")
    print(f"\nexact algebra audit: {len(audit['terms'])} checks, "
          f"max residual {audit['value'][0]}, passed={not audit['violated'][0]}")

    print("\n--- ground states, dedicated observables ---")
    for m_j in (0.5, -0.5):
        (ground,) = results("ground", alpha=a, mj=m_j)
        print(f"  m_j={m_j:+.1f}: value = {ground['value'][0]:.6f}   closed form "
              f"sqrt(2)(1+sqrt(1-a^2)) = {ground['parameters']['closed_form'][0]:.6f}")

    print(f"\n--- eigenstate sweep n <= {args.n_max} at optimal xi ---")
    print(f"  {'n':>2} {'kappa':>5} {'mj':>5}  {'mu':<18} {'value':<18} {'closed form':<18}")
    sweep = results("sweep", alpha=a, n_max=args.n_max)
    n, kappa, mj, mu, closed_form = (
        column(sweep, "parameters", key) for key in ("n", "kappa", "mj", "mu", "closed_form"))
    value = column(sweep, "value")
    for row in zip(n, kappa, mj, mu, value, closed_form):
        if row[2] == 0.5:  # one representative row per (n, kappa)
            print("  {:>2} {:>5} {:>5}  {:<18.12f} {:<18.12f} {:<18.12f}".format(*row))
    worst = np.max(np.abs(value - closed_form) / closed_form)
    i = np.argmin(closed_form)
    print(f"  {len(value)} states; worst relative gap to 2 sqrt(mu^2 + X^2) {worst:.2e}; "
          f"smallest violation {closed_form[i]:.6f} "
          f"(n={n[i]}, kappa={kappa[i]}, mj={mj[i]}) > 2")

    print("\n--- Peres-Mermin square, noncontextual bound 4 ---")
    values = column(results("peres-mermin", alpha=a, n_max=2), "value")
    print(f"  {len(values)} states (eigenstates, random spinors, maximally mixed): "
          f"value = 6 with spread {np.ptp(values):.2e}")

    print("\n--- free Dirac electron, value = 2 sqrt(2 - beta^2) ---")
    for beta in (0.0, 0.3, 0.6, 0.9, 0.999):
        (point,) = results("free-electron", beta=beta)
        p = point["parameters"]
        print(f"  beta={p['beta_v'][0]:<6} value = {point['value'][0]:.12f}   "
              f"closed form = {p['closed_form'][0]:.12f}")

    print("\n--- measurability contrast at beta = 0.5 ---")
    spectrum, *mixing = results("measurability", alpha=a, n_max=10, beta=0.5)
    print(f"  hydrogen spectrum n <= 10: all positive "
          f"(min mu = {spectrum['terms']['min_mu'][0]:.9f})")
    # one one-row mixing block per observable, with the weight of each of its eigenvectors
    for name, block in zip("ABCD", mixing):
        formatted = ", ".join(f"{w:.4f}" for (w,) in block["terms"].values())
        print(f"  observable {name}': negative-energy weights per eigenvector: {formatted}")

    print(f"\ndone in {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
