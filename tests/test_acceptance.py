"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with -s to see the lines."""

import math
import time

import numpy as np
import pytest

import biasforge as bf
from primitives import ks_suite, power_sum_ratio


def report(num, name, ok, detail, elapsed, limit):
    line = (f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.2f}s < {limit:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < limit, line


def test_acceptance_1_ambiguity_reproduction():
    t0 = time.perf_counter()
    rep = bf.ambiguity_demo()
    elapsed = time.perf_counter() - t0
    ok = (rep["alpha_err"] <= 1e-10 and rep["beta_err"] <= 1e-10
          and rep["b_mean_err"] <= 1e-10
          and rep["sup_err_p"] <= 1e-8 and rep["sup_err_q"] <= 1e-8
          and rep["sup_err_relation"] <= 1e-8)
    detail = (f"alpha=5/12±{rep['alpha_err']:.1e}, beta=1/6±{rep['beta_err']:.1e}, "
              f"sup_p={rep['sup_err_p']:.1e}, sup_q={rep['sup_err_q']:.1e}, "
              f"relation={rep['sup_err_relation']:.1e}")
    report(1, "one-node ambiguity reproduction", ok, detail, elapsed, 1.0)


def test_acceptance_2_exact_identity_matched_order():
    t0 = time.perf_counter()
    rep = bf.exact_identity_suite(seed=2024, count=200, m_max=3, d_max=6, tol=1e-10)
    elapsed = time.perf_counter() - t0
    detail = f"{rep['count']} configs, max rel err {rep['max_rel_err']:.2e} <= 1e-10"
    report(2, "matched-order identity suite", rep["passed"], detail, elapsed, 5.0)


def test_acceptance_3_exact_identity_lifted_order():
    t0 = time.perf_counter()
    rep = bf.chain_identity_suite(seed=2025, count=100, m_max=4, tol=1e-9)
    elapsed = time.perf_counter() - t0
    detail = f"{rep['count']} configs, max rel err {rep['max_rel_err']:.2e} <= 1e-9"
    report(3, "parity-lifted identity suite", rep["passed"], detail, elapsed, 10.0)


def test_acceptance_4_coefficient_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_pair = 0.0
    worst_vanish = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 7))
        while True:
            nodes = np.sort(rng.uniform(-3.0, 3.0, k))
            if k == 1 or np.min(np.diff(nodes)) >= 1e-2:
                break
        nodes = tuple(nodes)
        for i in range(7):
            for j in range(i, 7):
                ps = power_sum_ratio(nodes, k + j - i - 1)
                sym = bf.interp_coeff(nodes, i, j)
                worst_pair = max(worst_pair, abs(ps - sym) / (1 + abs(sym)))
        for n in range(max(k - 1, 0)):
            worst_vanish = max(worst_vanish, abs(power_sum_ratio(nodes, n)))
    elapsed = time.perf_counter() - t0
    ok = worst_pair <= 1e-9 and worst_vanish <= 1e-9
    detail = (f"500 node sets, route gap {worst_pair:.2e} <= 1e-9, "
              f"low-exponent sum {worst_vanish:.2e} <= 1e-9")
    report(4, "coefficient route equivalence", ok, detail, elapsed, 1.0)


def test_acceptance_5_fixed_points():
    t0 = time.perf_counter()
    gaps = {}

    Z = bf.normal()
    t = bf.bias(Z, bf.zero_bias_spec())
    ts = np.linspace(-4.0, 4.0, 161)
    gaps["normal"] = float(np.max(np.abs(np.asarray(t.density(ts)) - Z.density(ts))))

    mix = bf.half_normal_mixture(0.3, 1.2)
    t = bf.bias(mix, bf.zero_bias_spec())
    ts = np.linspace(-4.8, 4.8, 160)  # even count keeps the jump at 0 off the grid
    gaps["half-normal mixture"] = float(np.max(np.abs(np.asarray(t.density(ts))
                                                      - mix.density(ts))))

    E = bf.exponential(1.0)
    t = bf.bias(E, bf.sign_spec(0.0))
    ts = np.linspace(0.0, 8.0, 161)
    gaps["exponential"] = float(np.max(np.abs(np.asarray(t.density(ts)) - E.density(ts))))

    elapsed = time.perf_counter() - t0
    ok = all(g <= 1e-3 for g in gaps.values())
    detail = ", ".join(f"{k} gap {v:.1e}" for k, v in gaps.items()) + " (tol 1e-3)"
    report(5, "fixed-point densities", ok, detail, elapsed, 10.0)


def test_acceptance_6_order_two_lift_of_centered_uniform():
    t0 = time.perf_counter()
    U = bf.uniform(-1.0, 1.0)
    spec = bf.unit_bias_spec()
    lifted = bf.bias_to_order(U, spec, 2)
    beta_ok = abs(lifted.beta - 1 / 6) <= 1e-14

    bank = bf.TestFunctionBank.build(2, d_max=7, n_kinked=0, n_smooth=14, seed=6)
    members = bank.for_order(2)[:20]
    assert len(members) == 20
    reports = [bf.check_identity_mc(U, spec, 2, F, 100_000, seed=600 + 7 * i,
                                    transform=lifted)
               for i, F in enumerate(members)]
    zs = [r.z for r in reports]
    again = bf.check_identity_mc(U, spec, 2, members[0], 100_000, seed=600,
                                 transform=lifted)
    first = reports[0]
    reproducible = (again.lhs, again.rhs, again.z) == (first.lhs, first.rhs, first.z)
    elapsed = time.perf_counter() - t0
    ok = beta_ok and all(abs(z) <= 4 for z in zs) and reproducible
    detail = (f"beta=1/6 exact, 20 reports max|z|={max(abs(z) for z in zs):.2f} <= 4, "
              f"bit-reproducible={reproducible}")
    report(6, "order-two lift of the centered uniform", ok, detail, elapsed, 30.0)


def test_acceptance_7_sampler_density_agreement():
    t0 = time.perf_counter()
    rep = ks_suite(seed=7, n=100_000)
    elapsed = time.perf_counter() - t0
    worst = max(rep["stats"].values())
    detail = (f"{len(rep['stats'])} configurations, worst statistic {worst:.4f} "
              f"< critical {rep['critical']:.4f} at 1%")
    report(7, "sampler/density agreement", rep["passed"], detail, elapsed, 60.0)


def test_acceptance_8_distance_bound_pipeline():
    t0 = time.perf_counter()
    hand = bf.first_order_bound(0.1, 0.95, 0.02, (1, 1, 1)).bound
    arithmetic_ok = hand == pytest.approx(0.17, abs=1e-15)

    stats = bf.first_order_coupling_stats(bf.normal(), bf.zero_bias_spec(),
                                          100_000, 8, coupling="self")
    db = bf.first_order_bound(stats["coupling_gap"], stats["alpha"], stats["b_mean"],
                              (1, 1, 1))
    sigma = math.hypot(stats["alpha_se"], stats["b_mean_se"])
    noise_ok = db.bound <= 5 * sigma
    elapsed = time.perf_counter() - t0
    ok = arithmetic_ok and noise_ok
    detail = (f"hand value 0.17 exact, self-coupled bound {db.bound:.2e} "
              f"<= 5*MC-sigma {5 * sigma:.2e}")
    report(8, "distance-bound pipeline", ok, detail, elapsed, 30.0)
