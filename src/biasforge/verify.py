"""Two-route identity verification: exact moment algebra against atom
summation, paired Monte Carlo with z-scores, the worked one-node
ambiguity example, fixed-point density comparisons, and goodness-of-fit
machinery for sampler/density agreement.  The built-in biases it uses and
exports are those of ``transform``.

Every Monte Carlo report derives its two sample streams from the report
seed by fixed offsets (recorded in the report), so reports are
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateAlpha, DegenerateBeta, InputError
from .distributions import (
    Distribution,
    RandomSource,
    expectation,
    exponential,
    from_atoms,
    half_normal,
    make_mixture,
    negative_half_normal,
    normal,
    sample,
    uniform,
)
from .polynomials import NodeSet, PiecewisePoly, Polynomial, correction_poly, lagrange_poly
from .transform import (  # the built-in biases are exported here too
    BiasedDistribution,
    SignChangeSpec,
    bias,
    centered_bias_spec,
    plus_part,
    recipe_moments,
    sign_spec,
    unit_bias_spec,
    zero_bias_spec,
)
from .higher import bias_to_order

LHS_SEED_OFFSET = 1_000_003
RHS_SEED_OFFSET = 2_000_003
MC_Z_MAX = 4.0
FIXED_POINT_TOL = 1e-3  # sup gap between a fixed point's density and its transform's
_KS_CRITICAL = {0.01: 1.6276, 0.05: 1.3581, 0.10: 1.2238}
_KS_BLOCK = 1 << 14  # sorted points per CDF call of ks_statistic


# ---------------------------------------------------------------------------
# test-function bank
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BankFunction:
    """A test function with exact derivatives.

    ``order`` is the largest derivative order for which the member belongs
    to the matching smoothness class and reports an exact derivative;
    ``None`` marks polynomial members, smooth at every order.
    """

    name: str
    fn: object  # Polynomial | PiecewisePoly
    order: Optional[int] = None

    def supports(self, m: int) -> bool:
        return self.order is None or m <= self.order

    def value(self, x):
        return self.fn(x)

    def derivative(self, order: int):
        return self.fn.derivative(order)


@dataclass(frozen=True)
class TestFunctionBank:
    members: tuple

    def for_order(self, m: int):
        return [f for f in self.members if f.supports(m)]

    @staticmethod
    def build(m: int, d_max: int = 6, n_kinked: int = 4, n_smooth: int = 6,
              seed: int = 0) -> "TestFunctionBank":
        """Monomials up to degree d_max, random-knot piecewise-linear
        Lipschitz members (order 1), and compactly based splines obtained
        by integrating a piecewise-linear bump m times (order m, exact
        m-th derivative equal to the bump)."""
        rng = np.random.default_rng(seed)

        def knots_and_values():  # 3-5 sorted knots at least 0.05 apart, values in [-1, 1]
            nk = int(rng.integers(3, 6))
            knots = np.sort(rng.uniform(-2.0, 2.0, nk))
            while np.any(np.diff(knots) < 0.05):
                knots = np.sort(rng.uniform(-2.0, 2.0, nk))
            return knots, rng.uniform(-1.0, 1.0, nk)

        members = [BankFunction(f"x^{d}", Polynomial.monomial(d)) for d in range(1, d_max + 1)]
        if m == 1:
            for i in range(n_kinked):
                knots, vals = knots_and_values()
                members.append(BankFunction(
                    f"kinked-{i}",
                    PiecewisePoly.linear_interpolant(knots, vals, extend="constant"),
                    order=1))
        for i in range(n_smooth):
            knots, vals = knots_and_values()
            vals[0] = vals[-1] = 0.0  # continuous compact bump
            bump = PiecewisePoly.linear_interpolant(knots, vals, extend="zero")
            fn = bump
            for _ in range(m):
                fn = fn.antiderivative(anchor=float(knots[0]))
            members.append(BankFunction(f"spline-{i}", fn, order=m))
        return TestFunctionBank(tuple(members))


# ---------------------------------------------------------------------------
# identity reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    label: str
    lhs: float
    rhs: float
    se_lhs: float
    se_rhs: float
    z: float
    passed: bool
    method: str
    tol: float
    seeds: Optional[dict] = None


def _lhs_polynomials(spec: SignChangeSpec, m: int, fn):
    """Interpolant at the nodes and the order-m correction polynomial for a
    test function exposing exact derivatives (Polynomial or PiecewisePoly)."""
    nodes = tuple(spec.nodes)
    L = lagrange_poly(nodes, [float(fn(x)) for x in nodes])
    if not hasattr(fn, "derivative"):
        raise InputError("test function must expose derivatives")
    derivs = [float(fn.derivative(j)(0.0)) for j in range(spec.k, m)]
    R = correction_poly(derivs, nodes, m)
    return L, R


def check_identity_exact(X: Distribution, spec: SignChangeSpec, m: int, F: Polynomial,
                         tol: float = 1e-9) -> IdentityReport:
    """Both sides of the defining identity on a point-mass law (atoms or an
    empirical law), by fully independent routes: the atom sum of
    ``expectation`` with exact interpolation/correction polynomials on the
    left, the construction's moment algebra on the right.  Exact comparison
    at a relative tolerance."""
    if X.locs is None:
        raise InputError("exact route needs a point-mass law")
    L, R = _lhs_polynomials(spec, m, F)
    lhs = expectation(X, lambda x: spec.bias_values(x) * (F(x) - R(x) - L(x)))

    transform = bias_to_order(X, spec, m)
    normalizer = transform.beta if (transform.beta is not None) else transform.alpha
    Fm = F.derivative(m)
    if Fm.degree < 0:
        rhs = 0.0
    else:
        mom = recipe_moments(transform.recipe, Fm.degree)
        rhs = normalizer * float(sum(c * mom[i] for i, c in enumerate(Fm.coeffs)))

    scale = max(1.0, abs(lhs), abs(rhs))
    return IdentityReport(label=f"exact(k={spec.k}, m={m}, deg={F.degree})",
                          lhs=lhs, rhs=rhs, se_lhs=0.0, se_rhs=0.0, z=0.0,
                          passed=bool(abs(lhs - rhs) <= tol * scale),
                          method="exact-atoms", tol=tol)


def check_identity_mc(X: Distribution, spec: SignChangeSpec, m: int, F: BankFunction,
                      n: int, seed: int,
                      transform: Optional[BiasedDistribution] = None) -> IdentityReport:
    """Paired Monte Carlo check of the defining identity with pooled
    standard errors, passed at |z| <= MC_Z_MAX; the two streams use seeds
    at fixed offsets from the report seed."""
    if not F.supports(m):
        raise InputError(f"bank member {F.name} does not support order {m}")
    if n < 2:
        raise InputError("Monte Carlo standard errors need n >= 2 draws")
    if transform is None:
        transform = bias_to_order(X, spec, m)
    normalizer = transform.beta if (transform.beta is not None) else transform.alpha
    L, R = _lhs_polynomials(spec, m, F.fn)

    lhs_seed = int(seed) + LHS_SEED_OFFSET
    rhs_seed = int(seed) + RHS_SEED_OFFSET

    def mean_se(terms):
        return float(np.mean(terms)), float(np.std(terms, ddof=1) / math.sqrt(n))

    xs = sample(X, RandomSource(lhs_seed), n)
    lhs_terms = np.array(F.value(xs), dtype=float)  # B (F - R - L), in one buffer
    lhs_terms -= R(xs)
    lhs_terms -= L(xs)
    lhs_terms *= spec.bias_values(xs)
    lhs, se_l = mean_se(lhs_terms)
    del xs, lhs_terms  # freed before the right side is drawn
    ys = transform.sample(n, RandomSource(rhs_seed))
    rhs, se_r = mean_se(normalizer * np.asarray(F.derivative(m)(ys), dtype=float))
    pooled = math.hypot(se_l, se_r)
    z = 0.0 if pooled == 0.0 else (lhs - rhs) / pooled
    return IdentityReport(label=f"mc({F.name}, k={spec.k}, m={m})",
                          lhs=lhs, rhs=rhs, se_lhs=se_l, se_rhs=se_r, z=float(z),
                          passed=bool(abs(z) <= MC_Z_MAX), method="monte-carlo", tol=MC_Z_MAX,
                          seeds={"seed": int(seed), "lhs_seed": lhs_seed,
                                 "rhs_seed": rhs_seed})


# ---------------------------------------------------------------------------
# the worked ambiguity example
# ---------------------------------------------------------------------------

def ambiguity_demo() -> dict:
    """One biasing function, two legal node choices, two different laws.

    For X uniform on [-1, 1] and B the positive part, the node may be
    declared at -1 or at 0.  The demo computes both normalizers and both
    densities, checks them against the closed forms

        q(t) = (3/2)(1 - t^2) on [0, 1]
        p(t) = (3/5)(1 - t^2) on [0, 1]  +  3/5 on [-1, 0)

    and verifies alpha * p - beta * q = E[B(X)] on [-1, 0), zero elsewhere.
    """
    X = uniform(-1.0, 1.0)
    spec_lo = SignChangeSpec(plus_part, NodeSet((-1.0,)), kinks=(0.0,), label="x-plus@-1")
    spec_hi = SignChangeSpec(plus_part, NodeSet((0.0,)), label="x-plus@0")
    law_p, law_q = bias(X, spec_lo), bias(X, spec_hi)
    alpha, beta = law_p.alpha, law_q.alpha
    b_mean = expectation(X, plus_part)

    ts = np.linspace(-1.0, 1.0, 1001)
    p, q = law_p.density(ts), law_q.density(ts)

    q_closed = np.where((ts >= 0) & (ts <= 1), 1.5 * (1 - ts**2), 0.0)
    p_closed = np.where((ts >= 0) & (ts <= 1), 0.6 * (1 - ts**2), 0.0) \
        + np.where((ts >= -1) & (ts < 0), 0.6, 0.0)
    relation = alpha * p - beta * q - b_mean * ((ts >= -1) & (ts < 0))

    report = {
        "alpha": float(alpha),
        "beta": float(beta),
        "b_mean": float(b_mean),
        "alpha_err": abs(alpha - 5.0 / 12.0),
        "beta_err": abs(beta - 1.0 / 6.0),
        "b_mean_err": abs(b_mean - 0.25),
        "sup_err_p": float(np.max(np.abs(p - p_closed))),
        "sup_err_q": float(np.max(np.abs(q - q_closed))),
        "sup_err_relation": float(np.max(np.abs(relation))),
        "grid": ts.tolist(),
        "p": p.tolist(),
        "q": q.tolist(),
    }
    report["passed"] = bool(
        report["alpha_err"] <= 1e-10 and report["beta_err"] <= 1e-10
        and report["b_mean_err"] <= 1e-10
        and report["sup_err_p"] <= 1e-8 and report["sup_err_q"] <= 1e-8
        and report["sup_err_relation"] <= 1e-8)
    return report


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------

def ks_statistic(samples, cdf) -> float:
    """Exact one-sample Kolmogorov-Smirnov statistic against an elementwise
    CDF callable, which must return one value per point (``InputError``
    otherwise).  The CDF and the steps k / n are formed for ``_KS_BLOCK``
    sorted points at a time, so the sorted copy is the only full-length
    array: the same statistic, with two full-length temporaries fewer."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise InputError("empty sample")
    above = below = -np.inf
    for i in range(0, n, _KS_BLOCK):
        part = xs[i:i + _KS_BLOCK]
        F = np.asarray(cdf(part), dtype=float)
        if F.shape != part.shape:
            raise InputError(f"the CDF gave shape {F.shape} for {part.size} points; "
                             "it must be elementwise")
        steps = np.arange(i, i + part.size + 1, dtype=float)
        steps /= n                                              # k / n, k = i..i+len(part)
        above = np.maximum(above, np.subtract(steps[1:], F).max())  # NaN propagates
        below = np.maximum(below, np.subtract(F, steps[:-1]).max())
    return float(max(above, below))


def ks_critical(n: int, level: float = 0.01) -> float:
    """Asymptotic two-sided critical value of the statistic at the given level."""
    if level not in _KS_CRITICAL:
        raise InputError(f"tabulated levels: {sorted(_KS_CRITICAL)}")
    if not n >= 1:
        raise InputError(f"a critical value needs a sample size n >= 1, not {n!r}")
    return _KS_CRITICAL[level] / math.sqrt(n)


# ---------------------------------------------------------------------------
# randomized configurations (shared by suites and tests)
# ---------------------------------------------------------------------------

def random_discrete(rng: np.random.Generator, max_atoms: int = 8) -> Distribution:
    n = int(rng.integers(2, max_atoms + 1))
    while True:
        xs = np.sort(rng.uniform(-2.0, 2.0, n))
        if n == 1 or np.all(np.diff(xs) > 1e-3):
            break
    ws = rng.uniform(0.2, 1.0, n)
    ws = ws / ws.sum()
    return from_atoms(list(zip(xs, ws)))


def random_valid_spec(rng: np.random.Generator, k: int) -> SignChangeSpec:
    """Spec with k declared nodes that is valid by construction: the bias is
    the node product times a strictly positive polynomial."""
    if k == 0:
        nodes = ()
    else:
        while True:
            nodes = np.sort(rng.uniform(-1.8, 1.8, k))
            if k == 1 or np.all(np.diff(nodes) > 0.2):
                break
        nodes = tuple(float(x) for x in nodes)
    q = Polynomial(tuple(rng.uniform(-1.0, 1.0, 3)))  # degree 2
    c = float(rng.uniform(0.2, 1.0))

    def B(x, _nodes=nodes, _q=q, _c=c):
        arr = np.asarray(x, dtype=float)
        out = np.ones_like(arr)
        for xj in _nodes:
            out = out * (arr - xj)
        qv = _q(arr)
        res = out * (qv * qv + _c)
        return float(res) if arr.ndim == 0 else res

    return SignChangeSpec(B, NodeSet(nodes))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _exact_suite(name: str, seed: int, count: int, tol: float, draw) -> dict:
    """``count`` exact identity reports on the configurations (X, spec, m, F)
    that ``draw(rng)`` gives (degenerate ones skipped), and their worst gap."""
    rng = np.random.default_rng(seed)
    reports = []
    while len(reports) < count:
        try:
            reports.append(check_identity_exact(*draw(rng), tol=tol))
        except (DegenerateAlpha, DegenerateBeta):
            continue
    worst = max(abs(r.lhs - r.rhs) / max(1.0, abs(r.lhs), abs(r.rhs)) for r in reports)
    return {"suite": name, "count": len(reports), "tol": tol,
            "max_rel_err": worst, "passed": all(r.passed for r in reports)}


def exact_identity_suite(seed: int = 0, count: int = 200, m_max: int = 3,
                         d_max: int = 6, tol: float = 1e-10) -> dict:
    """Randomized matched-order (k == m) configurations, checked exactly."""
    def draw(rng):
        k = int(rng.integers(0, m_max + 1))
        return (random_discrete(rng), random_valid_spec(rng, k), k,
                Polynomial.monomial(int(rng.integers(0, d_max + 1))))
    return _exact_suite("exact", seed, count, tol, draw)


def chain_identity_suite(seed: int = 0, count: int = 100, m_max: int = 4,
                         tol: float = 1e-9) -> dict:
    """Randomized parity-matched (k <= m) configurations through the
    second-difference chain, checked exactly."""
    def draw(rng):
        m = int(rng.integers(1, m_max + 1))
        k = int(rng.choice(np.arange(m % 2, m + 1, 2)))
        return (random_discrete(rng, max_atoms=6), random_valid_spec(rng, k), m,
                Polynomial.monomial(int(rng.integers(0, m + 4))))
    return _exact_suite("chain", seed, count, tol, draw)


def mc_identity_suite(seed: int = 0, n: int = 100_000) -> dict:
    """Monte Carlo identity checks on catalog configurations, including the
    order-lifted transform of the centered uniform (exact normalizer 1/6)."""
    results = []

    def run_config(label, X, spec, m, bank_members, base_seed, transform=None):
        if transform is None:
            transform = bias_to_order(X, spec, m)
        for i, F in enumerate(bank_members):
            rep = check_identity_mc(X, spec, m, F, n, base_seed + 7 * i,
                                    transform=transform)
            results.append((label, rep))
        return transform

    U = uniform(-1.0, 1.0)
    bank1 = TestFunctionBank.build(1, d_max=4, n_kinked=2, n_smooth=2, seed=seed)
    run_config("uniform/x-plus@0", U, SignChangeSpec(plus_part, NodeSet((0.0,)), kinks=(0.0,)), 1,
               bank1.for_order(1)[:8], seed)

    Z = normal()
    bank_z = TestFunctionBank.build(1, d_max=3, n_kinked=0, n_smooth=2, seed=seed + 1)
    run_config("normal/zero-bias", Z, zero_bias_spec(), 1, bank_z.for_order(1)[:5], seed + 100)

    bank2 = TestFunctionBank.build(2, d_max=7, n_kinked=0, n_smooth=14, seed=seed + 2)
    members = bank2.for_order(2)[:20]
    lifted = bias_to_order(U, unit_bias_spec(), 2)
    run_config("uniform/order-2-lift", U, unit_bias_spec(), 2, members, seed + 200,
               transform=lifted)

    return {"suite": "mc", "n": int(n), "count": len(results),
            "lifted_beta": float(lifted.beta),
            "max_abs_z": max(abs(r.z) for _, r in results),
            "passed": all(r.passed for _, r in results),
            "reports": [{"config": label, "label": r.label, "lhs": r.lhs, "rhs": r.rhs,
                         "z": r.z, "passed": r.passed, "seeds": r.seeds}
                        for label, r in results]}


def half_normal_mixture(w: float = 0.3, sigma: float = 1.2) -> Distribution:
    return make_mixture([half_normal(sigma), negative_half_normal(sigma)],
                        [w, 1.0 - w])


def fixed_point_suite() -> dict:
    """Density-level fixed points of first-order transforms:

    - the zero-bias transform maps the standard normal to itself;
    - signed half-normal mixtures are fixed under the bias B(x) = x at 0;
    - the centered bias fixes a shifted normal;
    - the sign bias at 0 (equilibrium transform) fixes the unit exponential.
    """
    cases = [
        ("normal-zero-bias", normal(), zero_bias_spec(), np.linspace(-4.0, 4.0, 161)),
        # an even count keeps the jump point t=0 off the grid
        ("half-normal-mixture", half_normal_mixture(0.3, 1.2), zero_bias_spec(),
         np.linspace(-4.8, 4.8, 160)),
        ("shifted-normal-centered-bias", normal(0.7, 1.0), centered_bias_spec(0.7),
         np.linspace(0.7 - 4.0, 0.7 + 4.0, 161)),
        ("exponential-equilibrium", exponential(1.0), sign_spec(0.0), np.linspace(0.0, 8.0, 161)),
    ]
    gaps = {label: float(np.max(np.abs(bias(X, spec).density(ts) - X.density(ts))))
            for label, X, spec, ts in cases}
    return {"suite": "fixed-point", "tol": FIXED_POINT_TOL, "sup_gaps": gaps,
            "passed": all(g <= FIXED_POINT_TOL for g in gaps.values())}


def _exact_suites(seed: int, n: int) -> dict:
    a, b = exact_identity_suite(seed), chain_identity_suite(seed + 1)
    return {"suite": "exact", "matched_order": a, "chain": b,
            "passed": a["passed"] and b["passed"]}


# the suites behind the command-line interface, in the order it lists them
_SUITES = {
    "exact": _exact_suites,
    "mc": mc_identity_suite,
    "ambi": lambda seed, n: {**{k: v for k, v in ambiguity_demo().items()
                                if k not in ("grid", "p", "q")}, "suite": "ambi"},
    "fixed-point": lambda seed, n: fixed_point_suite(),
}


def run_suite(name: str, seed: int = 0, n: int = 100_000) -> dict:
    """Named verification suites behind the command-line interface."""
    if name not in _SUITES:
        raise InputError(f"suite must be one of: {', '.join(_SUITES)}")
    return _SUITES[name](seed, n)
