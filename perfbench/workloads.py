"""The benchmark's workloads.

Every workload has a ``setup`` round (timed as set-up; repeated so that its
median is reported) and a ``run_pass`` (timed as the solve phase).  Passes
within a run repeat the same inputs, which are generated from the workload
seed, so each pass does the same work and the run reports medians over
passes.  Every result is checked against an oracle in ``oracles``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import biasforge as bf
import oracles as O
from recorder import OpFailed

# A run makes max(2, round(seconds / NOMINAL_PASS_S)) passes, so the work of
# a run, and with it every percentile's sample count, is fixed by --seconds
# alone.  The values are near each pass's wall time at the parent commit on
# the reference machine (2 vCPU Intel Xeon, Python 3.11, numpy 2.4, scipy
# 1.17): continuous-cold 6-8 s, discrete-exact 1.0-1.6 s, sampling-warm
# 0.4-0.6 s, cli 12-17 s; continuous-cold's is set so that it makes three
# passes at 15 s.
NOMINAL_PASS_S = {
    "continuous-cold": 5.0,
    "discrete-exact": 1.5,
    "sampling-warm": 0.6,
    "cli": 15.0,
}

DRAWS = 100_000


def passes_for(workload, seconds):
    return max(2, int(round(seconds / NOMINAL_PASS_S[workload])))


# ---------------------------------------------------------------------------
# inputs shared by the workloads
# ---------------------------------------------------------------------------

def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _identity(x):
    return np.asarray(x, dtype=float)


def _plus_part(x):
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def _sign(x):
    return np.sign(np.asarray(x, dtype=float))


def zero_bias_spec():
    return bf.SignChangeSpec(_identity, bf.NodeSet((0.0,)), label="x")


def unit_spec():
    return bf.SignChangeSpec(_ones, bf.NodeSet(()), label="1")


def xplus_spec(node):
    return bf.SignChangeSpec(_plus_part, bf.NodeSet((float(node),)), kinks=(0.0,),
                             label=f"x-plus@{node}")


def node_product_spec(nodes, positive=None):
    """B(x) = prod(x - x_j), times a positive factor when one is given."""
    nodes = tuple(float(x) for x in nodes)

    def B(x):
        arr = np.asarray(x, dtype=float)
        out = np.ones_like(arr)
        for xj in nodes:
            out = out * (arr - xj)
        return out if positive is None else out * positive(arr)

    return bf.SignChangeSpec(B, bf.NodeSet(nodes), label=f"prod(x-{nodes})")


def half_normal_mixture(w, sigma):
    return bf.make_mixture([bf.half_normal(sigma), bf.negative_half_normal(sigma)],
                           [w, 1.0 - w])


def draw_seeds(seed, count, stream):
    """Seeds for RandomSource, one stream per purpose."""
    ss = np.random.SeedSequence([int(seed), stream])
    return [int(s) for s in ss.generate_state(count, dtype=np.uint64) >> np.uint64(2)]


def _check_draws(rec, label, draws, lo, hi, n):
    ok = (draws.shape == (n,) and bool(np.all(np.isfinite(draws)))
          and float(draws.min()) >= lo - 1e-9 and float(draws.max()) <= hi + 1e-9)
    rec.check(f"{label}: {n} finite draws inside the support", ok)


# ---------------------------------------------------------------------------
# continuous-cold
# ---------------------------------------------------------------------------

COLD_GRID = 257          # density grid points per configuration
COLD_CDF_GRID = 513      # numeric_cdf table points
CLOSED_TOL = 1e-6        # quadrature at 1e-9, divided by alpha >= 1/6
TABLE_TOL = 1e-4         # 2049-point tables with linear interpolation
RECIPE_TOL = 1e-6        # relative; recipe moments are quadrature at 1e-9
GRID_MOMENT_TOL = 1e-3   # trapezoid on COLD_GRID points over [-1, 1]


def _cold_configs():
    """(name, build function, closed-form density, density tolerance, closed-form
    moment of order p, whether density moments are checked)."""
    U = bf.uniform(-1.0, 1.0)
    return [
        ("normal-zero-bias",
         lambda: bf.bias(bf.normal(), zero_bias_spec()),
         O.normal_pdf, CLOSED_TOL, O.normal_moment, False),
        ("exponential-equilibrium",
         lambda: bf.bias(bf.exponential(1.0),
                         bf.SignChangeSpec(_sign, bf.NodeSet((0.0,)), kinks=(0.0,))),
         O.exponential_pdf, CLOSED_TOL, math.factorial, False),
        ("half-normal-mixture-zero-bias",
         lambda: bf.bias(half_normal_mixture(0.3, 1.2), zero_bias_spec()),
         lambda t: O.half_normal_mixture_pdf(t, 0.3, 1.2), CLOSED_TOL,
         lambda p: O.half_normal_mixture_moment(p, 0.3, 1.2), False),
        ("uniform-xplus-node-1",
         lambda: bf.bias(U, xplus_spec(-1.0)),
         lambda t: O.uniform_xplus_pdf(t, -1.0), CLOSED_TOL,
         lambda p: O.uniform_xplus_moment(p, -1.0), False),
        ("uniform-xplus-node0",
         lambda: bf.bias(U, xplus_spec(0.0)),
         lambda t: O.uniform_xplus_pdf(t, 0.0), CLOSED_TOL,
         lambda p: O.uniform_xplus_moment(p, 0.0), False),
        ("uniform-chain-k2",
         lambda: bf.bias(U, node_product_spec((-0.5, 0.5))),
         None, None, lambda p: O.uniform_node_product_moment(p, (-0.5, 0.5)), True),
        ("uniform-chain-k3",
         lambda: bf.bias(U, node_product_spec((-0.6, 0.0, 0.6))),
         None, None, lambda p: O.uniform_node_product_moment(p, (-0.6, 0.0, 0.6)), True),
        ("uniform-lift-order2",
         lambda: bf.bias_to_order(U, unit_spec(), 2),
         O.uniform_lift2_pdf, TABLE_TOL, O.uniform_lift2_moment, True),
        ("normal-second-order",
         lambda: bf.second_order_transform(bf.normal(), _ones, zero_bias_spec()),
         O.second_order_normal_pdf, CLOSED_TOL, O.second_order_normal_moment, False),
    ]


class ContinuousCold:
    """Fresh transforms of catalog continuous laws: first density grid
    (paying any lazy table build), numeric CDF, draws and a KS check, and
    moments through the construction record against closed forms."""

    name = "continuous-cold"

    def __init__(self, seed, passes):
        self.configs = _cold_configs()
        self.seeds = draw_seeds(seed, len(self.configs), 1)
        self.sets = []
        self.rounds = passes        # one fresh set of transforms per pass

    def setup(self, rec):
        built = []
        for name, build, *_ in self.configs:
            try:
                with rec.op("construct", f"{name}/construct"):
                    built.append(build())
            except OpFailed:
                built.append(None)
        self.sets.append(built)

    def run_pass(self, rec, index):
        transforms = self.sets[index % len(self.sets)]
        crit = O.kolmogorov_critical(DRAWS)
        for (name, _, pdf, pdf_tol, moment, grid_moments), tr, seed in zip(
                self.configs, transforms, self.seeds):
            if tr is None:
                continue
            with contextlib.suppress(OpFailed):
                self._one(rec, name, tr, pdf, pdf_tol, moment, grid_moments, seed, crit)

    def _one(self, rec, name, tr, pdf, pdf_tol, moment, grid_moments, seed, crit):
        law = tr.law
        ts = np.linspace(law.lo, law.hi, COLD_GRID)
        with rec.op("density", f"{name}/density", units=ts.size):
            vals = np.asarray(tr.density(ts), dtype=float)
        rec.check(f"{name}: density finite and nonnegative",
                  vals.shape == ts.shape and bool(np.all(np.isfinite(vals)))
                  and float(vals.min()) >= 0.0)
        if pdf is not None:
            ref = pdf(ts)
            keep = np.isfinite(ref)     # the oracle marks jump points with nan
            rec.within(f"{name}: density vs closed form",
                       np.max(np.abs(vals[keep] - ref[keep])), pdf_tol)

        with rec.op("draws", f"{name}/draws", units=DRAWS):
            draws = tr.sample(DRAWS, bf.RandomSource(seed))
        _check_draws(rec, name, draws, law.lo, law.hi, DRAWS)

        with rec.op("mc", f"{name}/ks", units=1):
            cdf = bf.numeric_cdf(law, n=COLD_CDF_GRID)
            stat = bf.ks_statistic(draws, cdf)
        rec.within(f"{name}: KS statistic vs critical value", stat, crit)

        with rec.op("exact", f"{name}/moments", units=1):
            mom = bf.recipe_moments(tr.recipe, 4)
        for p in range(1, 5):
            want = moment(p)
            rec.within(f"{name}: recipe moment {p} vs closed form",
                       mom[p] - want, RECIPE_TOL * max(1.0, abs(want)))
        if grid_moments:
            for p, got in enumerate(O.trapezoid_moments(ts, vals, 4), start=1):
                rec.within(f"{name}: density moment {p} vs recipe moment",
                           got - mom[p], GRID_MOMENT_TOL)


# ---------------------------------------------------------------------------
# discrete-exact
# ---------------------------------------------------------------------------

EXACT_MATCHED = 150
EXACT_LIFTED = 150
EMPIRICAL_SIZES = (1_000, 10_000, 50_000)
EMPIRICAL_GRID = 33
EMPIRICAL_TOL = 1e-9     # relative; sums of the same terms in another order


def _random_atoms(rng):
    n = int(rng.integers(2, 9))
    while True:
        xs = np.sort(rng.uniform(-2.0, 2.0, n))
        if np.all(np.diff(xs) > 1e-3):
            break
    ws = rng.uniform(0.2, 1.0, n)
    return bf.from_atoms(list(zip(xs.tolist(), (ws / ws.sum()).tolist())))


def _random_spec(rng, k):
    """Node product times q(x)^2 + c > 0: valid for every law by construction."""
    while True:
        nodes = np.sort(rng.uniform(-1.8, 1.8, k))
        if k < 2 or np.all(np.diff(nodes) > 0.2):
            break
    q = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, 3))
    c = float(rng.uniform(0.2, 1.0))
    return node_product_spec(nodes.tolist(), positive=lambda x: q(x) ** 2 + c)


def _random_poly(rng, degree):
    return bf.Polynomial(tuple(rng.uniform(-1.0, 1.0, degree + 1).tolist()))


class DiscreteExact:
    """Seed-generated atom laws through check_identity_exact at matched and
    lifted order, and empirical laws of growing size through bias, alpha, a
    density grid and draws, checked against the vectorized closed form.
    No quadrature is involved."""

    name = "discrete-exact"
    rounds = 3

    def __init__(self, seed, passes):
        self.seed = seed
        self.draw_seeds = draw_seeds(seed, len(EMPIRICAL_SIZES), 2)
        self.state = None
        self.oracles = None

    def setup(self, rec):
        rng = np.random.default_rng([int(self.seed), 3])
        configs = []
        for i in range(EXACT_MATCHED + EXACT_LIFTED):
            if i < EXACT_MATCHED:
                m = int(rng.integers(0, 4))
                k = m
            else:
                m = int(rng.integers(2, 5))
                k = int(rng.choice(np.arange(m % 2, m - 1, 2)))
            X = _random_atoms(rng)
            configs.append((f"k={k},m={m}#{i}", X, _random_spec(rng, k), m,
                            _random_poly(rng, int(rng.integers(0, m + 4)))))
        samples = [rng.normal(0.3, 1.1, n) for n in EMPIRICAL_SIZES]
        with rec.op("construct", "empirical-laws"):
            laws = [bf.from_samples(s) for s in samples]
        self.state = (configs, laws)
        self.oracles = [O.EmpiricalZeroBias(s) for s in samples]
        for n, oracle in zip(EMPIRICAL_SIZES, self.oracles):
            rec.within(f"empirical n={n}: oracle CDF total mass", oracle.total_mass() - 1.0, 1e-9)

    def run_pass(self, rec, index):
        configs, laws = self.state
        for label, X, spec, m, F in configs:
            try:
                with rec.op("exact", f"exact/{label}", units=1):
                    rep = bf.check_identity_exact(X, spec, m, F)
            except OpFailed:
                continue
            scale = max(1.0, abs(rep.lhs), abs(rep.rhs))
            rec.check(f"exact {label}: two routes agree", rep.passed,
                      abs(rep.lhs - rep.rhs) / scale, rep.tol)
        crit = O.kolmogorov_critical(DRAWS)
        for n, X, oracle, seed in zip(EMPIRICAL_SIZES, laws, self.oracles, self.draw_seeds):
            with contextlib.suppress(OpFailed):
                self._empirical(rec, n, X, oracle, seed, crit)

    def _empirical(self, rec, n, X, oracle, seed, crit):
        label = f"empirical n={n}"
        spec = zero_bias_spec()
        with rec.op("construct", f"{label}/bias"):
            tr = bf.bias(X, spec)
            alpha = bf.alpha_of(X, spec)
        rec.within(f"{label}: alpha vs mean(x^2)", alpha - oracle.alpha,
                   EMPIRICAL_TOL * oracle.alpha)
        ts = np.linspace(0.98 * oracle.xs[0], 0.98 * oracle.xs[-1], EMPIRICAL_GRID)
        with rec.op("density", f"{label}/density", units=ts.size):
            vals = np.asarray(tr.density(ts), dtype=float)
        ref = oracle.pdf(ts)
        rec.within(f"{label}: density vs vectorized closed form",
                   np.max(np.abs(vals - ref)), EMPIRICAL_TOL * max(1.0, float(ref.max())))
        with rec.op("draws", f"{label}/draws", units=DRAWS):
            draws = tr.sample(DRAWS, bf.RandomSource(seed))
        _check_draws(rec, label, draws, oracle.xs[0], oracle.xs[-1], DRAWS)
        with rec.op("mc", f"{label}/ks", units=1):
            stat = bf.ks_statistic(draws, oracle.cdf)
        rec.within(f"{label}: KS statistic vs critical value", stat, crit)


# ---------------------------------------------------------------------------
# sampling-warm
# ---------------------------------------------------------------------------

WARM_GRID = 100_001
WARM_BLOCKS = 4
MC_DRAWS = 50_000
MC_Z_MAX = 4.0           # the library's own bound on |z|
MEAN_Z_MAX = 5.0         # draw-block means: a correct sampler fails ~1 in 10^6
WARM_EMPIRICAL = 50_000
BANK_SEED = 7            # fixed test functions; the workload seed drives the streams


class SamplingWarm:
    """Transforms whose lazy tables are filled during set-up; the timed
    phase only reads them: density grids, 1e5-draw blocks of every
    transform kind, Monte Carlo identity reports (repeated for
    bit-reproducibility) and first-order coupling statistics."""

    name = "sampling-warm"
    rounds = 3

    def __init__(self, seed, passes):
        self.seed = seed
        rng = np.random.default_rng([int(seed), 4])
        self.samples = rng.normal(0.3, 1.1, WARM_EMPIRICAL)
        self.block_seeds = draw_seeds(seed, 5 * WARM_BLOCKS, 5)
        self.mc_seeds = draw_seeds(seed, 16, 6)
        self.state = None

    def setup(self, rec):
        U = bf.uniform(-1.0, 1.0)
        k2 = node_product_spec((-0.5, 0.5))
        with rec.op("construct", "warm/construct"):
            kinds = {
                "seed-and-shrink": bf.bias(U, k2),
                "inverse-cdf-tilt": bf.tilt(bf.exponential(1.0), _identity),
                "order-2-lift": bf.bias_to_order(U, unit_spec(), 2),
                "second-order-mixture": bf.second_order_transform(bf.normal(), _ones,
                                                                  zero_bias_spec()),
                "empirical-bootstrap": bf.bias(bf.from_samples(self.samples), zero_bias_spec()),
            }
            xplus0 = bf.bias(U, xplus_spec(0.0))
        with rec.op("construct", "warm/fill-tables"):
            rs = bf.RandomSource(0)
            for t in kinds.values():
                bf.sample(getattr(t, "law", t), rs, 4096)
            bf.sample(xplus0.law, rs, 16)
            kinds["order-2-lift"].density(0.0)
        self.state = (U, kinds, xplus0)
        empirical = O.EmpiricalZeroBias(self.samples)
        self.means = {
            "seed-and-shrink": [O.uniform_node_product_moment(p, (-0.5, 0.5)) for p in (1, 2)],
            "inverse-cdf-tilt": [2.0, 6.0],
            "order-2-lift": [O.uniform_lift2_moment(1), O.uniform_lift2_moment(2)],
            "second-order-mixture": [O.second_order_normal_moment(1),
                                     O.second_order_normal_moment(2)],
            "empirical-bootstrap": [empirical.moment(1), empirical.moment(2)],
        }
        bank1 = bf.TestFunctionBank.build(1, d_max=4, n_kinked=2, n_smooth=2, seed=BANK_SEED)
        bank2 = bf.TestFunctionBank.build(2, d_max=4, n_kinked=0, n_smooth=2, seed=BANK_SEED + 1)
        self.reports = (
            [("x-plus@0", U, xplus_spec(0.0), 1, F, xplus0)
             for F in _pick(bank1.for_order(1), ("x^2", "kinked-0", "spline-0"))]
            + [("order-2-lift", U, unit_spec(), 2, F, kinds["order-2-lift"])
               for F in _pick(bank2.for_order(2), ("x^3", "x^4", "spline-0"))]
            + [("seed-and-shrink", U, k2, 2, F, kinds["seed-and-shrink"])
               for F in _pick(bank2.for_order(2), ("x^3", "spline-1"))]
        )

    def run_pass(self, rec, index):
        U, kinds, xplus0 = self.state
        self._densities(rec, kinds)
        for i, (name, t) in enumerate(kinds.items()):
            law = getattr(t, "law", t)
            mean, second = self.means[name]
            sd = math.sqrt(second - mean * mean)
            for b in range(WARM_BLOCKS):
                try:
                    with rec.op("draws", f"{name}/block", units=DRAWS):
                        draws = bf.sample(law, bf.RandomSource(self.block_seeds[i * WARM_BLOCKS + b]),
                                          DRAWS)
                except OpFailed:
                    continue
                _check_draws(rec, name, draws, law.lo, law.hi, DRAWS)
                rec.within(f"{name}: block mean within {MEAN_Z_MAX} standard errors",
                           (float(np.mean(draws)) - mean) / (sd / math.sqrt(DRAWS)), MEAN_Z_MAX)
        for (label, X, spec, m, F, t), seed in zip(self.reports, self.mc_seeds):
            with contextlib.suppress(OpFailed):
                self._mc_report(rec, f"{label}/{F.name}", X, spec, m, F, t, seed)
        with contextlib.suppress(OpFailed):
            self._coupling(rec, U, xplus0)

    def _densities(self, rec, kinds):
        ts = np.linspace(-1.0, 1.0, WARM_GRID)
        with contextlib.suppress(OpFailed):
            with rec.op("density", "order-2-lift/density", units=ts.size):
                vals = np.asarray(kinds["order-2-lift"].density(ts), dtype=float)
            rec.within("order-2-lift: warm density vs closed form",
                       np.max(np.abs(vals - O.uniform_lift2_pdf(ts))), TABLE_TOL)
        gamma = kinds["inverse-cdf-tilt"]
        ts = np.linspace(0.0, min(gamma.hi, 40.0), WARM_GRID)
        with contextlib.suppress(OpFailed):
            with rec.op("density", "inverse-cdf-tilt/density", units=ts.size):
                vals = np.asarray(gamma.density(ts), dtype=float)
            rec.within("inverse-cdf-tilt: density vs Gamma(2, 1)",
                       np.max(np.abs(vals - O.gamma2_pdf(ts))), CLOSED_TOL)

    def _mc_report(self, rec, label, X, spec, m, F, transform, seed):
        with rec.op("mc", f"mc/{label}", units=1):
            rep = bf.check_identity_mc(X, spec, m, F, MC_DRAWS, seed, transform=transform)
        pooled = math.hypot(rep.se_lhs, rep.se_rhs)
        z = 0.0 if pooled == 0.0 else (rep.lhs - rep.rhs) / pooled
        rec.check(f"mc {label}: |z| <= {MC_Z_MAX}", rep.passed and abs(z) <= MC_Z_MAX,
                  abs(z), MC_Z_MAX)
        with rec.op("exact", f"mc-repeat/{label}", units=1):
            again = bf.check_identity_mc(X, spec, m, F, MC_DRAWS, seed, transform=transform)
        rec.check(f"mc {label}: bit-identical on a repeat",
                  (rep.lhs, rep.rhs, rep.se_lhs, rep.se_rhs) ==
                  (again.lhs, again.rhs, again.se_lhs, again.se_rhs))

    def _coupling(self, rec, U, xplus0):
        seed = self.mc_seeds[-1]
        with rec.op("mc", "coupling/independent", units=1):
            ind = bf.first_order_coupling_stats(U, xplus_spec(0.0), DRAWS, seed)
        rec.within("coupling independent: alpha vs 1/6",
                   (ind["alpha"] - 1 / 6) / ind["alpha_se"], MEAN_Z_MAX)
        rec.within("coupling independent: E[B] vs 1/4",
                   (ind["b_mean"] - 0.25) / ind["b_mean_se"], MEAN_Z_MAX)
        rec.check("coupling independent: positive finite gap",
                  math.isfinite(ind["coupling_gap"]) and ind["coupling_gap"] > 0)
        with rec.op("mc", "coupling/self", units=1):
            own = bf.first_order_coupling_stats(bf.normal(), zero_bias_spec(), DRAWS, seed + 1,
                                                coupling="self")
        rec.check("coupling self: zero gap", own["coupling_gap"] == 0.0)
        rec.within("coupling self: alpha vs 1", (own["alpha"] - 1.0) / own["alpha_se"], MEAN_Z_MAX)
        rec.within("coupling self: E[B] vs 0", own["b_mean"] / own["b_mean_se"], MEAN_Z_MAX)


def _pick(members, names):
    by_name = {f.name: f for f in members}
    return [by_name[n] for n in names]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

UNIFORM = '{"family":"uniform","params":{"lo":-1,"hi":1}}'
EXPONENTIAL = '{"family":"exponential","params":{"rate":1}}'
NORMAL = '{"family":"normal","params":{"mean":0,"std":1}}'
CHILD_MAIN = "import sys; from biasforge.cli import main; sys.argv[0] = 'biasforge'; main()"
CHILD_IMPORT = ("import time; t = time.perf_counter(); import biasforge; "
                "print(time.perf_counter() - t, biasforge.__file__)")


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def child_import_seconds(src):
    """Import time of biasforge measured inside a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", CHILD_IMPORT], env=child_env(src),
                         capture_output=True, text=True, timeout=120, check=True)
    seconds, path = out.stdout.split()
    if not os.path.realpath(path).startswith(os.path.realpath(src)):
        raise RuntimeError(f"child imported biasforge from {path}, not {src}")
    return float(seconds)


def _csv_rows(text, header):
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected CSV header {header!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


class Cli:
    """A fixed script of subcommands, each run as one child interpreter at a
    time (``biasforge.cli.main`` through ``python -c``, with PYTHONPATH set to
    the checkout's ``src``).  The traced run executes the same argv
    in-process through ``biasforge.cli.run``."""

    name = "cli"
    rounds = 0

    def __init__(self, seed, passes, src=None, in_process=False):
        self.src = src
        self.in_process = in_process
        s = str(int(seed) % 1_000_000)
        experiment = json.dumps({
            "test_distribution": json.loads(NORMAL),
            "operator": {"order": 1, "bias": "x", "nodes": [0.0]},
            "constants": {"c0": 1.0, "c1": 2.0, "c2": 1.5},
            "coupling": "self", "n_samples": DRAWS, "seed": int(s)})
        independent = json.dumps({
            "test_distribution": json.loads(UNIFORM),
            "operator": {"order": 1, "bias": "x-plus", "nodes": [0.0]},
            "constants": {"c0": 1.0, "c1": 2.0, "c2": 1.5},
            "coupling": "independent", "n_samples": DRAWS, "seed": int(s) + 1})
        self.script = [
            ("catalog", "command", ["catalog"], self._catalog),
            ("transform", "exact",
             ["transform", "--dist", UNIFORM, "--bias", "x-plus", "--nodes", "[0]"],
             self._transform),
            ("bias-km", "exact",
             ["bias-km", "--dist", UNIFORM, "--bias", "identity", "--nodes", "[]",
              "--k", "0", "--m", "2"], self._bias_km),
            ("density-one-node", "density",
             ["density", "--dist", UNIFORM, "--bias", "x-plus", "--nodes", "[0]", "--m", "1",
              "--grid", "-1", "1", "201"], self._density_one_node),
            ("density-normal-zero-bias", "density",
             ["density", "--dist", NORMAL, "--bias", "x", "--grid", "-4", "4", "201"],
             self._density_normal),
            ("density-m2", "density",
             ["density", "--dist", UNIFORM, "--bias", "identity", "--nodes", "[]", "--m", "2",
              "--grid", "-1", "1", "201"], self._density_m2),
            ("sample-equilibrium", "draws",
             ["sample", "--dist", EXPONENTIAL, "--bias", "sign(x-0)", "--n", str(DRAWS),
              "--seed", s], self._sample_equilibrium),
            ("sample-xplus", "draws",
             ["sample", "--dist", UNIFORM, "--bias", "x-plus", "--nodes", "[0]",
              "--n", str(DRAWS), "--seed", s], self._sample_xplus),
            ("verify-ambi", "exact", ["verify", "--suite", "ambi", "--seed", s], self._passed),
            ("verify-exact", "exact", ["verify", "--suite", "exact", "--seed", s],
             self._verify_exact),
            ("verify-fixed-point", "exact", ["verify", "--suite", "fixed-point", "--seed", s],
             self._verify_fixed_point),
            ("distance-self", "mc", ["distance", "--experiment", experiment], self._distance),
            ("distance-independent", "mc", ["distance", "--experiment", independent],
             self._distance_independent),
        ]
        self.output_bytes = 0

    def setup(self, rec):
        pass

    def run_pass(self, rec, index):
        total = 0
        for label, kind, argv, check in self.script:
            try:
                with rec.op(kind, f"cli/{label}") as box:
                    code, out = self._run(argv)
                    if code != 0:
                        raise RuntimeError(f"exit code {code}")
                    box["units"] = check(rec, label, out)
            except OpFailed:
                continue
            total += len(out.encode())
        self.output_bytes = total

    def _run(self, argv):
        if self.in_process:
            import biasforge.cli as cli
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.run(list(argv))
            return code, buf.getvalue()
        proc = subprocess.run([sys.executable, "-c", CHILD_MAIN, *argv], env=child_env(self.src),
                              capture_output=True, text=True, timeout=170)
        return proc.returncode, proc.stdout

    # -- output checks: each returns the units of work the command delivered

    def _catalog(self, rec, label, out):
        rep = json.loads(out)
        fams = {"uniform", "exponential", "normal", "half-normal", "negative-half-normal"}
        rec.check(f"{label}: families and suites listed",
                  fams <= set(rep["families"]) and len(rep["suites"]) == 4)
        return 1

    def _transform(self, rec, label, out):
        rep = json.loads(out)
        rec.check(f"{label}: k = m = 1", rep["k"] == 1 and rep["m"] == 1)
        rec.within(f"{label}: alpha vs 1/6", rep["alpha"] - 1 / 6, 1e-9)
        return 1

    def _bias_km(self, rec, label, out):
        rep = json.loads(out)
        rec.within(f"{label}: beta vs 1/6", rep["beta"] - 1 / 6, 1e-9)
        rec.check(f"{label}: one chain normalizer of 1/6",
                  len(rep["chain_normalizers"]) == 1
                  and abs(rep["chain_normalizers"][0] - 1 / 6) <= 1e-9)
        return 1

    def _density(self, rec, label, out, pdf, tol):
        rows = _csv_rows(out, "t,p")
        rec.check(f"{label}: 201 rows", rows.shape == (201, 2))
        rec.within(f"{label}: density vs closed form",
                   np.max(np.abs(rows[:, 1] - pdf(rows[:, 0]))), tol)
        return rows.shape[0]

    def _density_one_node(self, rec, label, out):
        return self._density(rec, label, out, lambda t: O.uniform_xplus_pdf(t, 0.0), CLOSED_TOL)

    def _density_normal(self, rec, label, out):
        return self._density(rec, label, out, O.normal_pdf, CLOSED_TOL)

    def _density_m2(self, rec, label, out):
        return self._density(rec, label, out, O.uniform_lift2_pdf, TABLE_TOL)

    def _sample(self, rec, label, out, cdf, law):
        rows = _csv_rows(out, "x")
        rec.check(f"{label}: {DRAWS} rows", rows.shape == (DRAWS, 1))
        rec.within(f"{label}: KS vs {law}", O.ks_against(rows[:, 0], cdf),
                   O.kolmogorov_critical(rows.shape[0]))
        return rows.shape[0]

    def _sample_equilibrium(self, rec, label, out):
        return self._sample(rec, label, out, O.exponential_cdf, "Exp(1), the fixed point")

    def _sample_xplus(self, rec, label, out):
        return self._sample(rec, label, out, lambda t: O.uniform_xplus_cdf(t, 0.0),
                            "the closed-form CDF")

    def _passed(self, rec, label, out):
        rec.check(f"{label}: passed", json.loads(out)["passed"] is True)
        return 1

    def _verify_exact(self, rec, label, out):
        rep = json.loads(out)
        counts = (rep["matched_order"]["count"], rep["chain"]["count"])
        rec.check(f"{label}: passed with 200 + 100 reports",
                  rep["passed"] is True and counts == (200, 100))
        return sum(counts)

    def _verify_fixed_point(self, rec, label, out):
        rep = json.loads(out)
        rec.check(f"{label}: passed on 4 laws", rep["passed"] is True and len(rep["sup_gaps"]) == 4)
        return len(rep["sup_gaps"])

    def _distance(self, rec, label, out):
        rep = json.loads(out)
        se = rep["ingredient_se"]
        rec.check(f"{label}: zero gap under self coupling", rep["coupling_gap"] == 0.0)
        rec.within(f"{label}: alpha within {MEAN_Z_MAX} se of 1", rep["alpha_dev"] / se["alpha"],
                   MEAN_Z_MAX)
        rec.within(f"{label}: E[B] within {MEAN_Z_MAX} se of 0", rep["b_mean"] / se["b_mean"],
                   MEAN_Z_MAX)
        c0, c1, c2 = rep["constants"]
        want = c2 * rep["coupling_gap"] + c1 * rep["alpha_dev"] + c0 * abs(rep["b_mean"])
        rec.within(f"{label}: bound is its stated combination", rep["bound"] - want,
                   1e-12 * max(1.0, want))
        return 1

    def _distance_independent(self, rec, label, out):
        rep = json.loads(out)
        se = rep["ingredient_se"]
        rec.check(f"{label}: positive gap", rep["coupling_gap"] > 0.0)
        rec.within(f"{label}: alpha within {MEAN_Z_MAX} se of 1/6",
                   (rep["alpha_dev"] - 5 / 6) / se["alpha"], MEAN_Z_MAX)
        rec.within(f"{label}: E[B] within {MEAN_Z_MAX} se of 1/4",
                   (rep["b_mean"] - 0.25) / se["b_mean"], MEAN_Z_MAX)
        return 1


WORKLOADS = {w.name: w for w in (ContinuousCold, DiscreteExact, SamplingWarm, Cli)}
