#!/usr/bin/env python3
"""Reproduce the one-node ambiguity example: one biasing function, two legal
node declarations, two different transformed laws.

Prints the normalizers and the pointwise relation between the two densities,
and optionally writes both densities as CSV.  Exits 1 when a check fails.
"""

import argparse
import csv
import sys

import biasforge as bf


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", help="write grid, p, q as CSV")
    args = parser.parse_args()

    rep = bf.ambiguity_demo()
    print("input law          : uniform on [-1, 1], bias = positive part")
    print(f"alpha (node at -1) : {rep['alpha']:.12f}   (5/12 = {5 / 12:.12f})")
    print(f"beta  (node at  0) : {rep['beta']:.12f}   (1/6  = {1 / 6:.12f})")
    print(f"E[B(X)]            : {rep['b_mean']:.12f}")
    print(f"sup |p - closed|   : {rep['sup_err_p']:.3e}")
    print(f"sup |q - closed|   : {rep['sup_err_q']:.3e}")
    print(f"sup |alpha p - beta q - E[B] on [-1,0)| : {rep['sup_err_relation']:.3e}")
    print("passed" if rep["passed"] else "FAILED")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "p", "q"])
            for row in zip(rep["grid"], rep["p"], rep["q"]):
                writer.writerow([f"{v:.12g}" for v in row])
        print(f"densities written to {args.out}")
    return 0 if rep["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
