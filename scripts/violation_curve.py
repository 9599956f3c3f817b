#!/usr/bin/env python3
"""Tabulate the free-electron violation curve as CSV on stdout.

Usage:
    python scripts/violation_curve.py --points 200 > curve.csv
"""

import argparse

from diracctx.cli import RunConfig, execute


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta-min", type=float, default=0.0)
    parser.add_argument("--beta-max", type=float, default=0.999)
    parser.add_argument("--points", type=int, default=200)
    args = parser.parse_args()

    # the CLI's --beta-grid stream: the rows come a block at a time
    grid = f"{args.beta_min!r}:{args.beta_max!r}:{args.points}"
    rows = execute(RunConfig(command="free-electron", beta_grid=grid))["results"]
    print("beta,theta,value,closed_form,violated")
    for row in rows:
        p = row["parameters"]
        print(f"{p['beta_v']:.15g},{p['theta']:.15g},{row['value']:.15g},"
              f"{p['closed_form']:.15g},{'true' if row['violated'] else 'false'}")


if __name__ == "__main__":
    main()
