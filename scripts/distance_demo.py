#!/usr/bin/env python3
"""Coupling-based distance bound demo.

Runs the first-order bound pipeline twice against the standard normal target
of the zero-bias transform: once with the self-coupling that is exact at the
fixed point (the bound collapses to Monte Carlo noise), and once with an
independent coupling of a deliberately wrong input law.  Exits 1 unless the
self-coupled bound is within 5 MC sigma (acceptance 8's rule) and the
independent bound exceeds 5 MC sigma.
"""

import argparse
import math
import sys

import biasforge as bf


def run_case(label, law, coupling, n, seed):
    stats = bf.first_order_coupling_stats(law, bf.zero_bias_spec(), n, seed,
                                          coupling=coupling)
    db = bf.first_order_bound(stats["coupling_gap"], stats["alpha"], stats["b_mean"],
                              (1.0, 1.0, 1.0))
    sigma = math.hypot(stats["alpha_se"], stats["b_mean_se"])
    print(f"{label}:")
    print(f"  coupling gap  {db.coupling_gap:.5f}")
    print(f"  |1 - alpha|   {db.alpha_dev:.5f}")
    print(f"  |E B(X)|      {db.residuals[0]:.5f}")
    print(f"  bound         {db.bound:.5f}   (MC sigma {sigma:.5f})")
    return db.bound, sigma


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    self_bound, self_sigma = run_case("normal, self-coupled at the fixed point", bf.normal(),
                                      "self", args.n, args.seed)
    wrong_bound, wrong_sigma = run_case("uniform[0,1], independent coupling", bf.uniform(0, 1),
                                        "independent", args.n, args.seed + 1)
    passed = self_bound <= 5 * self_sigma and wrong_bound > 5 * wrong_sigma
    print("passed" if passed else "FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
