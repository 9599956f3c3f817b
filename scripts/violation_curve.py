#!/usr/bin/env python3
"""Tabulate the free-electron violation curve as CSV on stdout.

Usage:
    python scripts/violation_curve.py --points 200 > curve.csv
"""

import argparse

import numpy as np

from diracctx.freeparticle import free_chsh_curve


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta-min", type=float, default=0.0)
    parser.add_argument("--beta-max", type=float, default=0.999)
    parser.add_argument("--points", type=int, default=200)
    args = parser.parse_args()

    print("beta,theta,value,closed_form,violated")
    for row in free_chsh_curve(np.linspace(args.beta_min, args.beta_max, args.points)):
        p = row["parameters"]
        print(f"{p['beta_v']:.15g},{p['theta']:.15g},{row['value']:.15g},"
              f"{p['closed_form']:.15g},{'true' if row['violated'] else 'false'}")


if __name__ == "__main__":
    main()
