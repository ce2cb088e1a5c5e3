import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import biasforge as bf
import biasforge.distributions as D
from biasforge import NodeSet, SignChangeSpec


def ones(x):
    return np.ones_like(np.asarray(x, float))


def zeros(x):
    return np.zeros_like(np.asarray(x, float))


def zero_spec_at(a):
    return SignChangeSpec(zeros, NodeSet((a,)))


def laplace():
    def dens(x):
        return 0.5 * np.exp(-np.abs(np.asarray(x, float)))

    def cdf(x):
        arr = np.asarray(x, float)
        return np.where(arr < 0, 0.5 * np.exp(arr), 1 - 0.5 * np.exp(-arr))

    def draw(rs, n):
        u = rs.uniform(n)
        return np.where(u < 0.5, np.log(2 * u), -np.log(2 * (1 - u)))

    return bf.Distribution(lo=-np.inf, hi=np.inf,
                           density=dens, cdf=cdf, sampler=draw, kinks=(0.0,),
                           label="laplace")


# ---------------------------------------------------------------------------
# operator description
# ---------------------------------------------------------------------------

def test_operator_parity_validation():
    good = bf.SteinOperator(order=2, coeffs=(bf.unit_bias_spec(), bf.zero_bias_spec()))
    assert good.order == 2
    with pytest.raises(bf.ParityMismatch):
        bf.SteinOperator(order=2, coeffs=(bf.zero_bias_spec(), bf.zero_bias_spec()))
    with pytest.raises(bf.InputError):
        bf.SteinOperator(order=1, coeffs=())


# ---------------------------------------------------------------------------
# second order
# ---------------------------------------------------------------------------

def test_second_order_reduces_to_one_node_transform(uniform_sym):
    # with no order-0 load the transform is the plain one-node law of B1
    t = bf.second_order_transform(uniform_sym, zeros, bf.zero_bias_spec())
    direct = bf.bias(uniform_sym, bf.zero_bias_spec())
    assert t.alpha == pytest.approx(direct.alpha, rel=1e-12)
    ts = np.linspace(-0.9, 0.9, 37)
    assert np.max(np.abs(np.asarray(t.density(ts)) - np.asarray(direct.density(ts)))) <= 1e-8


def test_second_order_reduces_to_second_difference(uniform_sym):
    # constant order-0 load, vanishing order-1 load: the second-difference law
    t = bf.second_order_transform(uniform_sym, ones, zero_spec_at(0.0))
    assert t.alpha == pytest.approx(1 / 6, rel=1e-12)
    # density formula evaluated by hand at the center: (1/alpha) E[X 1{X>=0}] = 1.5
    assert t.density(0.0) == pytest.approx(1.5, rel=1e-9)
    ts = np.linspace(-1, 1, 101)
    closed = 1.5 * (1 - np.abs(ts)) ** 2
    assert np.max(np.abs(np.asarray(t.density(ts)) - closed)) <= 1e-8


def test_second_order_density_worked_mixed_case(uniform_sym):
    # B0 = 1, B1 = x, a = 0: alpha = 1/6 + 1/3 and by hand q(0) = 1
    B1 = bf.zero_bias_spec()
    t = bf.second_order_transform(uniform_sym, ones, B1)
    assert t.alpha == pytest.approx(0.5, rel=1e-12)
    assert t.density(0.0) == pytest.approx(1.0, rel=1e-8)
    assert bf.second_order_density(uniform_sym, ones, B1.bias, 0.0, 5.0) == 0.0


def test_second_order_density_normalizes(uniform_sym):
    t = bf.second_order_transform(uniform_sym, ones, bf.zero_bias_spec())
    total = quad(lambda x: float(t.density(x)), -1, 1, points=[0], limit=200)[0]
    assert total == pytest.approx(1.0, abs=1e-6)


def test_second_order_identity_via_moments(uniform_sym):
    # f = x^4: E[B0 (f - f(0) - f'(0)x) + B1 (f' - f'(0))] = E[X^4] + 4E[X^4] = 1
    t = bf.second_order_transform(uniform_sym, ones, bf.zero_bias_spec())
    lhs = bf.moment(uniform_sym, 4) + 4 * bf.moment(uniform_sym, 4)
    rhs = t.alpha * 12 * t.moment(2)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_second_order_identity_on_atoms():
    # X in {0, 1} fair, a = 0, B0 = x+, B1 = 0, f = x^3: lhs E[X+ X^3] = 1/2
    X = bf.from_atoms([(0.0, 0.5), (1.0, 0.5)])
    t = bf.second_order_transform(X, bf.plus_part, zero_spec_at(0.0), B0_kinks=(0.0,))
    assert t.alpha == pytest.approx(0.25, rel=1e-12)
    rhs = t.alpha * 6 * t.moment(1)
    assert rhs == pytest.approx(0.5, rel=1e-9)
    assert t.moment(1) == pytest.approx(1 / 3, rel=1e-9)


def test_second_order_degenerate_alpha():
    with pytest.raises(bf.DegenerateAlpha):
        bf.second_order_transform(bf.dirac(0.0), zeros, zero_spec_at(0.0))
    # B0 = 1 tilts to the point mass at the node, whose second difference is
    # degenerate: alpha_1 = 0 again
    with pytest.raises(bf.DegenerateAlpha):
        bf.second_order_transform(bf.dirac(0.0), ones, zero_spec_at(0.0))


def test_second_order_transform_reads_b0_once_on_one_probe(monkeypatch):
    # one grid on the window of X serves both the verdict on B0 and the B0
    # tilt, and B0 is evaluated once on its points; the normal's window is its
    # closed form and every law built on it keeps its own, so no tail probe
    # runs (8 when each integral probed its integrand)
    X = bf.normal()
    grid = np.linspace(*X.effective_support(), D._PROBE_GRID)
    on_grid, probes = [], []

    def B0(x):
        on_grid.append(np.array_equal(np.asarray(x, float), grid))
        return ones(x)

    def probe(*args, fn=D._effective_bounds):
        probes.append(args)
        return fn(*args)

    monkeypatch.setattr(D, "_effective_bounds", probe)
    bf.second_order_transform(X, B0, bf.zero_bias_spec())
    assert sum(on_grid) == 1
    assert len(probes) == 0


def test_second_order_transform_names_where_b0_is_negative():
    X = bf.normal()
    bad = float(np.linspace(*X.effective_support(), D._PROBE_GRID)[1234])
    B0 = lambda x: np.where(np.asarray(x, float) == bad, -0.5, 1.0)
    with pytest.raises(bf.NegativeWeight, match=f"negative at x={bad!r}"):
        bf.second_order_transform(X, B0, bf.zero_bias_spec())


def test_second_order_sampler_matches_density(uniform_sym):
    t = bf.second_order_transform(uniform_sym, ones, bf.zero_bias_spec())
    n = 30_000
    draws = t.sample(n, bf.RandomSource(21))
    table = bf.TabulatedDensity.from_callable(t.law.density, -1, 1, 4097, knots=(0.0,))
    assert bf.ks_statistic(draws, table.cdf) < bf.ks_critical(n, 0.01)


_SECOND_ORDER_CASES = {
    "normal": lambda: (bf.normal(), ones, bf.zero_bias_spec()),
    "uniform": lambda: (bf.uniform(-1.0, 1.0), lambda x: 1.0 + np.asarray(x, float) ** 2,
                        bf.zero_bias_spec()),
    "exponential": lambda: (bf.exponential(1.0), ones, bf.sign_spec(0.0)),
    "atoms": lambda: (bf.from_atoms([(-1.0, 0.3), (0.5, 0.3), (1.5, 0.4)]),
                      lambda x: 1.0 + np.asarray(x, float) ** 2, bf.zero_bias_spec()),
}


@pytest.mark.parametrize("name", sorted(_SECOND_ORDER_CASES))
def test_second_order_alpha_matches_operator_alpha(name):
    # alpha_1 = z0 times the tilt's second-difference normalizer, plus the
    # one-node alpha_2, against the independent route: two expectations
    from biasforge.stein import _operator_alpha

    X, B0, B1 = _SECOND_ORDER_CASES[name]()
    t = bf.second_order_transform(X, B0, B1)
    assert t.alpha == pytest.approx(_operator_alpha(X, B0, B1.bias, B1.nodes[0]), rel=1e-12)


def test_second_order_construction_takes_two_panel_passes(construction_calls):
    # the B1 transform's tilt and the B0 tilt, whose pass records the
    # seed moments about the node (the chain's normalizer, with no
    # expectation of its own) and carries the density's rows, so its first
    # read adds none
    t = bf.second_order_transform(bf.normal(), ones, bf.zero_bias_spec())
    assert construction_calls == {"panels": 2, "expectation": 0, "beta_of": 0}
    t.density(np.linspace(t.law.lo, t.law.hi, 257))
    assert construction_calls["panels"] == 2


# ---------------------------------------------------------------------------
# general order
# ---------------------------------------------------------------------------

def test_higher_order_single_component_is_order_lift(uniform_sym):
    op = bf.SteinOperator(order=2, coeffs=(bf.unit_bias_spec(), zero_spec_at(0.0)))
    t = bf.higher_order_transform(uniform_sym, op)
    direct = bf.bias_to_order(uniform_sym, bf.unit_bias_spec(), 2)
    assert t.beta == pytest.approx(direct.beta, rel=1e-12)
    ts = np.linspace(-0.9, 0.9, 31)
    assert np.max(np.abs(np.asarray(t.density(ts)) - np.asarray(direct.density(ts)))) <= 1e-9


def test_higher_order_matches_second_order(uniform_sym):
    op = bf.SteinOperator(order=2, coeffs=(bf.unit_bias_spec(), bf.zero_bias_spec()))
    ho = bf.higher_order_transform(uniform_sym, op)
    so = bf.second_order_transform(uniform_sym, ones, bf.zero_bias_spec())
    assert ho.beta == pytest.approx(so.alpha, rel=1e-10)
    ts = np.linspace(-0.95, 0.95, 77)
    gap = np.max(np.abs(np.asarray(ho.density(ts)) - np.asarray(so.density(ts))))
    assert gap <= 1e-4  # 2.4e-7: the lift's linear table against the exact read


def test_higher_order_mixture_weights_pointwise():
    X = bf.from_atoms([(-1.0, 0.3), (0.5, 0.3), (1.5, 0.4)])
    op = bf.SteinOperator(order=2, coeffs=(bf.unit_bias_spec(), bf.zero_bias_spec()))
    ho = bf.higher_order_transform(X, op)
    comp0 = bf.bias_to_order(X, bf.unit_bias_spec(), 2)
    comp1 = bf.bias(X, bf.zero_bias_spec())
    w0 = comp0.beta / (comp0.beta + comp1.alpha)
    ts = np.linspace(-0.9, 1.4, 23)
    mix = w0 * np.asarray(comp0.density(ts)) + (1 - w0) * np.asarray(comp1.density(ts))
    assert np.max(np.abs(np.asarray(ho.density(ts)) - mix)) <= 1e-6


def test_higher_order_three_identity_on_atoms():
    # order-3 operator with coefficient sign-change counts (1, 0, 1):
    # the summed left side with exact interpolants and corrections equals the
    # total normalizer times the third-derivative moment of the mixture
    rng = np.random.default_rng(77)
    from biasforge import Polynomial

    trials = 0
    while trials < 5:
        X = bf.random_discrete(rng, max_atoms=5)
        coeffs = (bf.random_valid_spec(rng, 1), bf.random_valid_spec(rng, 0),
                  bf.random_valid_spec(rng, 1))
        op = bf.SteinOperator(order=3, coeffs=coeffs)
        try:
            t = bf.higher_order_transform(X, op)
        except (bf.DegenerateAlpha, bf.DegenerateBeta, bf.AllBetaZero):
            continue
        F = Polynomial.monomial(int(rng.integers(3, 7)))
        lhs = 0.0
        for j, spec in enumerate(op.coeffs):
            Fj = F.derivative(j)
            m_j = 3 - j
            L = bf.lagrange_poly(tuple(spec.nodes), [Fj(x) for x in spec.nodes])
            R = bf.correction_poly([Fj.derivative(i)(0.0) for i in range(spec.k, m_j)],
                                   tuple(spec.nodes), m_j)
            lhs += sum(mass * float(spec.bias(x)) * (Fj(x) - R(x) - L(x))
                       for x, mass in X.atoms)
        F3 = F.derivative(3)
        mom = bf.recipe_moments(t.recipe, max(F3.degree, 0))
        rhs = t.beta * sum(c * mom[i] for i, c in enumerate(F3.coeffs))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
        trials += 1


def test_higher_order_all_zero_rejected(uniform_sym):
    op = bf.SteinOperator(order=2, coeffs=(zero_spec_at(0.0).__class__(zeros, NodeSet(())),
                                           zero_spec_at(0.0)))
    with pytest.raises(bf.AllBetaZero):
        bf.higher_order_transform(uniform_sym, op)


def test_higher_order_computes_each_beta_once(monkeypatch):
    # order 3 with sign-change counts (1, 0, 1): coefficients 0 and 1 are
    # lifted (k < m - j) and need a beta; coefficient 2 is not.  Each lift's
    # beta is its chain's product, so construction never calls beta_of, and
    # that independent route agrees with it
    import biasforge.higher as higher
    import biasforge.stein as stein

    calls = []

    def counted(*args):
        calls.append(args[2])
        return beta_of(*args)

    beta_of = higher.beta_of
    monkeypatch.setattr(higher, "beta_of", counted)
    # a pre-pass in stein would call its own imported name
    monkeypatch.setattr(stein, "beta_of", counted, raising=False)
    X = bf.from_atoms([(-1.0, 0.3), (0.5, 0.3), (1.5, 0.4)])
    op = bf.SteinOperator(order=3, coeffs=(bf.zero_bias_spec(), bf.unit_bias_spec(),
                                           bf.zero_bias_spec()))
    t = bf.higher_order_transform(X, op)
    assert calls == []
    lifted = [(p, spec, 3 - j) for j, (p, spec) in enumerate(zip(t.recipe.parts, op.coeffs))
              if p.beta is not None]
    assert [m for _, _, m in lifted] == [3, 2]
    for p, spec, m in lifted:
        assert p.beta == pytest.approx(beta_of(X, spec, m), rel=1e-12)
    norms = [p.alpha if p.beta is None else p.beta for p in t.recipe.parts]
    assert t.recipe.weights == tuple(b / t.beta for b in norms)


# ---------------------------------------------------------------------------
# distance bounds
# ---------------------------------------------------------------------------

def test_first_order_bound_hand_values():
    assert bf.first_order_bound(0.1, 0.95, 0.02, (1, 1, 1)).bound == pytest.approx(0.17)
    assert bf.first_order_bound(0.0, 1.0, 0.0, (1, 1, 1)).bound == 0.0
    db = bf.first_order_bound(0.1, 0.95, 0.7, (1, 1, 1), f_at_node=0.0)
    assert db.bound == pytest.approx(0.15)
    assert bf.first_order_bound(0.1, 0.95, 0.02, {"c0": 2, "c1": 3, "c2": 4}).bound \
        == pytest.approx(4 * 0.1 + 3 * 0.05 + 2 * 0.02)


def test_second_order_bound_hand_values():
    db = bf.second_order_bound(0.05, 1.02, (0.01, 0.01), (1, 1, 1, 1))
    assert db.bound == pytest.approx(0.09)
    assert bf.second_order_bound(0.2, 1.0, (0.0, 0.0), (1, 1, 1, 1)).bound == pytest.approx(0.2)


def test_bound_constant_validation():
    with pytest.raises(bf.InputError):
        bf.first_order_bound(0.1, 1.0, 0.0, (1, -1, 1))
    with pytest.raises(bf.InputError):
        bf.first_order_bound(0.1, 1.0, 0.0, (1, 1))


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 2), st.floats(0, 2), st.floats(0, 2), st.floats(0, 0.5))
def test_first_order_bound_monotone(gap, dev, b, bump):
    base = bf.first_order_bound(gap, 1 + dev, b, (1, 1, 1)).bound
    assert bf.first_order_bound(gap + bump, 1 + dev, b, (1, 1, 1)).bound >= base
    assert bf.first_order_bound(gap, 1 + dev + bump, b, (1, 1, 1)).bound >= base
    assert bf.first_order_bound(gap, 1 + dev, b + bump, (1, 1, 1)).bound >= base


def test_self_coupling_at_fixed_point_is_noise_level():
    stats = bf.first_order_coupling_stats(bf.normal(), bf.zero_bias_spec(),
                                          100_000, 2024, coupling="self")
    assert stats["coupling_gap"] == 0.0
    db = bf.first_order_bound(stats["coupling_gap"], stats["alpha"], stats["b_mean"],
                              (1, 1, 1))
    sigma = math.hypot(stats["alpha_se"], stats["b_mean_se"])
    assert db.bound <= 5 * sigma


def test_independent_coupling_reports_positive_gap(uniform_sym):
    stats = bf.first_order_coupling_stats(uniform_sym, bf.zero_bias_spec(),
                                          20_000, 3, coupling="independent")
    assert stats["coupling_gap"] > 0.1  # the transform moves mass toward the edges


def test_coupling_stats_need_two_draws_for_their_standard_errors(uniform_sym):
    with pytest.raises(bf.InputError, match="n >= 2"):
        bf.first_order_coupling_stats(uniform_sym, bf.zero_bias_spec(), 1, 3)


def test_second_order_self_coupling_is_noise_level():
    # Laplace target of f'' - f with vanishing solution data at the node:
    # self-coupling makes the gap zero and the bound collapses to the
    # Monte Carlo noise of the normalizer estimate
    n = 100_000
    draws = bf.sample(laplace(), bf.RandomSource(404), n)
    alpha_terms = 0.5 * draws**2  # B0 = 1, B1 = 0, a = 0
    alpha_hat = float(alpha_terms.mean())
    se = float(alpha_terms.std(ddof=1) / math.sqrt(n))
    db = bf.second_order_bound(0.0, alpha_hat, (0.0, 0.0), (0, 0, 1, 1))
    assert db.bound <= 5 * se


# ---------------------------------------------------------------------------
# fixed-point checks
# ---------------------------------------------------------------------------

def test_fixed_point_normal_zero_bias():
    r = bf.fixed_point_check(bf.normal(), bf.zero_bias_spec())
    assert r.max_residual <= 1e-4


def test_fixed_point_exponential_sign_bias():
    r = bf.fixed_point_check(bf.exponential(1.0), bf.sign_spec(0.0),
                             probes=np.linspace(0.05, 8.0, 160))
    assert r.max_residual <= 1e-4


def test_fixed_point_half_normal():
    r = bf.fixed_point_check(bf.half_normal(1.3), bf.zero_bias_spec(),
                             probes=np.linspace(0.05, 5.0, 100))
    assert r.max_residual <= 1e-4


def test_fixed_point_discriminates_non_fixed_law():
    r = bf.fixed_point_check(bf.uniform(0, 1), bf.zero_bias_spec(),
                             probes=np.linspace(0.1, 0.9, 30))
    assert r.max_residual > 0.1


@pytest.mark.parametrize("law, probes", [
    (lambda: bf.normal(), [0.0]),              # within NODE_MARGIN of the node
    (lambda: bf.uniform(0, 1), [5.0, 7.0]),    # where the density is zero
], ids=["near-node", "no-density"])
def test_fixed_point_check_with_no_usable_probe_raises(law, probes):
    # a check that evaluated nothing must not read as a perfect fixed point
    with pytest.raises(bf.InputError, match="no usable probe"):
        bf.fixed_point_check(law(), bf.zero_bias_spec(), probes=probes)


@pytest.mark.parametrize("law, spec, probes", [
    (bf.normal, bf.zero_bias_spec, None),
    (lambda: bf.exponential(1.0), lambda: bf.sign_spec(0.0), np.linspace(0.05, 8.0, 160)),
    (lambda: bf.uniform(0, 1), bf.zero_bias_spec, np.linspace(-0.5, 1.5, 41)),
], ids=["normal", "exponential", "uniform"])
def test_fixed_point_check_matches_a_per_probe_loop(law, spec, probes):
    # the reference evaluates the same Richardson formulas one probe at a
    # time, in the same order of operations, so the results are equal
    from biasforge.stein import DENSITY_FLOOR, FD_STEP, NODE_MARGIN
    Z, spec = law(), spec()
    r = bf.fixed_point_check(Z, spec, probes=probes)
    if probes is None:
        lo, hi = Z.effective_support()
        probes = np.linspace(lo + 2 * NODE_MARGIN, hi - 2 * NODE_MARGIN, 201)
    p, alpha = (lambda t: float(Z.density(t))), bf.alpha_of(Z, spec)

    def d1(t):
        diff = lambda h: (p(t + h) - p(t - h)) / (2.0 * h)
        return (4.0 * diff(FD_STEP / 2) - diff(FD_STEP)) / 3.0

    worst, arg, used = 0.0, math.nan, 0
    for t in map(float, probes):
        if any(abs(t - x) < NODE_MARGIN for x in spec.nodes) or p(t) <= DENSITY_FLOOR:
            continue
        used += 1
        res = abs(d1(t) / p(t) + float(spec.bias(t)) / alpha)
        if res > worst:
            worst, arg = res, t
    assert (r.max_residual, r.argmax, r.n_probes) == (worst, arg, used)


def test_fixed_point_second_order_laplace():
    r = bf.fixed_point_check(laplace(), B0=ones, B1=zeros, B1_deriv=zeros,
                             a=0.0, probes=np.linspace(-6, 6, 121))
    assert r.max_residual <= 1e-4


def test_fixed_point_second_order_discriminates_non_fixed_law():
    # the standard normal does not solve alpha p'' = p (alpha = 1/2): the
    # residual p |t^2/2 - 3/2| is 3/2 p(0) ~ 0.6 near the origin
    r = bf.fixed_point_check(bf.normal(), B0=ones, B1=zeros, B1_deriv=zeros,
                             a=0.0, probes=np.linspace(-3, 3, 60))
    assert r.mode == "second-order"
    assert r.max_residual > 0.5
    assert abs(r.argmax) < 0.1


@pytest.mark.parametrize("kwargs", [
    {},                                                      # no operator at all
    {"B0": ones, "B1": zeros},                               # no B1_deriv
    {"spec": bf.zero_bias_spec(), "B0": ones, "B1": zeros, "B1_deriv": zeros},  # both orders
], ids=["nothing", "no-B1-deriv", "spec-and-coefficients"])
def test_fixed_point_check_needs_one_operator(kwargs):
    with pytest.raises(bf.InputError):
        bf.fixed_point_check(bf.normal(), **kwargs)


# ---------------------------------------------------------------------------
# half-normal characterization by Monte Carlo
# ---------------------------------------------------------------------------

def _lipschitz_bank(seed, count=20):
    return bf.TestFunctionBank.build(1, d_max=0, n_kinked=count, n_smooth=0,
                                     seed=seed).for_order(1)


def _stein_residual_z(X, members, n, seed):
    # per-sample a_i = E[X^2] f'(X_i) - X_i (f(X_i) - f(0)), z = mean/se
    sigma2 = bf.moment(X, 2)
    draws = bf.sample(X, bf.RandomSource(seed), n)
    zs = []
    for F in members:
        a = sigma2 * np.asarray(F.derivative(1)(draws), float) \
            - draws * (np.asarray(F.value(draws), float) - float(F.value(0.0)))
        se = a.std(ddof=1) / math.sqrt(n)
        # members constant on the support satisfy the identity identically
        zs.append(float(a.mean() / se) if se > 0 else 0.0)
    return zs


def test_half_normal_identity_holds_and_discriminates():
    members = _lipschitz_bank(11, 20)
    n = 100_000
    zs = _stein_residual_z(bf.half_normal(1.0), members, n, 501)
    assert all(abs(z) <= 4 for z in zs)
    zs_bad = _stein_residual_z(bf.uniform(0, 1), members, n, 502)
    assert max(abs(z) for z in zs_bad) > 10


def test_second_order_law_density_matches_pointwise_oracle():
    # the law reads one panel table of the loads B1 + B0 (x - a) and B0; the
    # pointwise oracle integrates B1 + B0 (x - t) afresh at every t
    X = bf.normal()
    B1 = bf.zero_bias_spec()
    t = bf.second_order_transform(X, ones, B1)
    ts = np.concatenate((np.linspace(-10, 10, 41), [0.0, -1e-7, 1e-7, 0.3141]))
    ref = np.array([bf.second_order_density(X, ones, B1.bias, 0.0, s, alpha=t.alpha)
                    for s in ts])
    got = t.density(ts)
    assert got.shape == ts.shape
    assert np.max(np.abs(got - ref)) <= 1e-14  # 1.1e-16 measured
    scalar = t.density(float(ts[7]))
    assert isinstance(scalar, float) and scalar == pytest.approx(got[7], abs=1e-15)
