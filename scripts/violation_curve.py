#!/usr/bin/env python3
"""Tabulate the free-electron violation curve as CSV on stdout.

Usage:
    python scripts/violation_curve.py --points 200 > curve.csv
"""

import argparse

import numpy as np

from diracctx.cli import RunConfig, execute


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta-min", type=float, default=0.0)
    parser.add_argument("--beta-max", type=float, default=0.999)
    parser.add_argument("--points", type=int, default=200)
    args = parser.parse_args()

    # the CLI's --beta-grid stream: the rows come a block of columns at a time
    grid = f"{args.beta_min!r}:{args.beta_max!r}:{args.points}"
    blocks = execute(RunConfig(command="free-electron", beta_grid=grid))["results"]
    print("beta,theta,value,closed_form,violated")
    for block in blocks:
        p = block["parameters"]
        violated = np.where(block["violated"], "true", "false")
        columns = (p["beta_v"], p["theta"], block["value"], p["closed_form"], violated)
        rows = zip(*(column.tolist() for column in columns))
        print("".join("%.15g,%.15g,%.15g,%.15g,%s\n" % row for row in rows), end="")


if __name__ == "__main__":
    main()
