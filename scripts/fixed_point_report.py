#!/usr/bin/env python3
"""Fixed points of first-order transforms, checked two ways: density-level
comparison of the transformed law against its input, and the residual of the
fixed-point differential equation p'/p = -B/alpha on a probe grid.  Exits 1
when the density-level check fails.
"""

import sys

import numpy as np

import biasforge as bf


def main():
    suite = bf.fixed_point_suite()
    print("density-level sup gaps (tolerance 1e-3):")
    for name, gap in suite["sup_gaps"].items():
        print(f"  {name:32s} {gap:.3e}")

    print("differential-equation residuals:")
    checks = [
        ("normal / zero-bias", bf.normal(), bf.zero_bias_spec(), None),
        ("exponential / sign-bias", bf.exponential(1.0), bf.sign_spec(0.0),
         np.linspace(0.05, 8.0, 160)),
        ("half-normal / zero-bias", bf.half_normal(1.3), bf.zero_bias_spec(),
         np.linspace(0.05, 5.0, 100)),
    ]
    for name, law, spec, probes in checks:
        r = bf.fixed_point_check(law, spec, probes=probes)
        print(f"  {name:32s} max residual {r.max_residual:.3e} over {r.n_probes} probes")

    print("passed" if suite["passed"] else "FAILED")
    return 0 if suite["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
