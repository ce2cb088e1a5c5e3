import math

import numpy as np
import pytest
from scipy.integrate import quad

import biasforge as bf
import biasforge.distributions as distributions
import biasforge.transform as transform
from biasforge import Polynomial
from conftest import call_concurrently
from primitives import cold_bias_cases, moment_via_coefficients


# ---------------------------------------------------------------------------
# second-difference transform
# ---------------------------------------------------------------------------

def test_second_difference_normalizer_and_mean():
    # setting f(x) = x^3 in the defining identity gives E[X^3]/(6 beta_1)
    U = bf.uniform(0, 1)
    hat = bf.second_difference_transform(U, 0.0)
    assert hat.alpha == pytest.approx(0.5 * (1 / 3), rel=1e-10)
    assert hat.moment(1) == pytest.approx(0.25, rel=1e-9)


def test_second_difference_point_mass_degenerates():
    with pytest.raises(bf.DegenerateAlpha):
        bf.second_difference_transform(bf.dirac(0.7), 0.7)


def test_second_difference_density_closed_form(uniform_sym):
    # hand calculation: both one-node sign stages in closed form give
    # (3/2)(1 - |t|)^2 on [-1, 1] for the centered uniform
    hat = bf.second_difference_transform(uniform_sym, 0.0)
    ts = np.linspace(-1, 1, 201)
    closed = 1.5 * (1 - np.abs(ts)) ** 2
    assert np.max(np.abs(np.asarray(hat.density(ts)) - closed)) <= 1e-3


def test_second_difference_identity_on_atoms():
    # E[f(X) - f(a) - f'(a)(X - a)] = (1/2)E[(X-a)^2] E[f''(hat)] for f = x^3:
    # with atoms {0, 1} and a = 0 the left side is E[X^3] = 1/2
    X = bf.from_atoms([(0.0, 0.5), (1.0, 0.5)])
    hat = bf.second_difference_transform(X, 0.0)
    lhs = 0.5  # E[X^3]
    rhs = hat.alpha * 6 * hat.moment(1)
    assert rhs == pytest.approx(lhs, rel=1e-10)
    assert hat.moment(1) == pytest.approx(1 / 3, rel=1e-10)


def test_second_difference_identity_at_nonzero_location():
    # f = x^3, a = 0.5: atom-sum remainder against the chain moment route
    X = bf.from_atoms([(-0.5, 0.3), (0.5, 0.2), (1.5, 0.5)])
    a = 0.5
    hat = bf.second_difference_transform(X, a)
    lhs = sum(m * (x**3 - a**3 - 3 * a**2 * (x - a)) for x, m in X.atoms)
    rhs = hat.alpha * 6 * hat.moment(1)
    assert rhs == pytest.approx(lhs, rel=1e-12)


def test_transform_composes_with_itself():
    # the zero-bias fixed point survives a second application built on the
    # constructed law (transforms are ordinary distributions)
    Z = bf.normal()
    once = bf.bias(Z, bf.zero_bias_spec())
    twice = bf.bias(once.law, bf.zero_bias_spec())
    ts = np.linspace(-3.5, 3.5, 41)
    assert np.max(np.abs(np.asarray(twice.density(ts)) - Z.density(ts))) <= 1e-9


def test_second_difference_moments_match_double_sign_stage():
    # the chain moment map must agree with literally applying the two
    # one-node sign stages (via their own recipes) on a discrete input
    X = bf.from_atoms([(-1.0, 0.25), (0.5, 0.35), (2.0, 0.4)])
    hat = bf.second_difference_transform(X, 0.0)
    stage1 = bf.bias(X, bf.sign_spec(0.0))
    n = 300_000
    draws = stage1.sample(n, bf.RandomSource(44))
    stage2_draws = bf.bias(bf.from_samples(draws), bf.sign_spec(0.0)) \
        .sample(n, bf.RandomSource(45))
    for p in (1, 2):
        se = np.std(stage2_draws**p, ddof=1) / math.sqrt(n)
        assert abs((stage2_draws**p).mean() - hat.moment(p)) < 6 * se


def _step_moments(mom):
    """E[(Z - a)^p] = E[(W - a)^{p+2}] / ((p+2)(p+1) E[(W - a)^2] / 2): one
    second-difference step on moments about its location."""
    b = mom[2] / 2.0
    return np.array([mom[p + 2] / ((p + 2) * (p + 1) * b) for p in range(len(mom) - 2)])


_RECORD_LAWS = {"atoms": lambda: bf.random_discrete(np.random.default_rng(17)),
                "uniform": lambda: bf.uniform(-1.0, 2.0),
                "normal": lambda: bf.normal(0.3, 1.2)}


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("a", [0.0, 0.37, -1.1])
@pytest.mark.parametrize("name", sorted(_RECORD_LAWS))
def test_second_difference_record_moments_bit_identical(name, a):
    # the chain record at a location gives, bit for bit, the raw moments it
    # reads shifted to the location, mapped through one step and shifted
    # back; on a density the raw moments up to order top + 2 are one stacked
    # pass, whose last bits depend on top
    X = _RECORD_LAWS[name]()
    shift = transform.shift_moments

    def ref(top):
        return shift(_step_moments(shift(distributions._moments(X, top + 2), -a)), a)

    t = bf.second_difference_transform(X, a)
    assert isinstance(t.recipe, bf.ChainRecipe) and t.recipe.location == a
    assert _bits(t.moment(p) for p in range(7)) == _bits(ref(p)[p] for p in range(7))
    assert _bits(bf.recipe_moments(t.recipe, 6)) == _bits(ref(6))


@pytest.mark.parametrize("name", sorted(_RECORD_LAWS))
def test_chain_record_moments_bit_identical(name):
    # a lift chain sits at location 0: its base moments mapped through every
    # step, with no shift
    X = _RECORD_LAWS[name]()
    for spec, m in ((bf.unit_bias_spec(), 2), (bf.unit_bias_spec(), 4),
                    (bf.zero_bias_spec(), 3)):
        t = bf.bias_to_order(X, spec, m)
        steps = len(t.recipe.step_normalizers)
        ref = bf.recipe_moments(t.recipe.base, 6 + 2 * steps)
        for _ in range(steps):
            ref = _step_moments(ref)
        assert t.recipe.location == 0.0
        assert _bits(bf.recipe_moments(t.recipe, 6)) == _bits(ref)


# ---------------------------------------------------------------------------
# the order-m normalizer
# ---------------------------------------------------------------------------

def test_beta_uniform_order_two(uniform_sym):
    assert bf.beta_of(uniform_sym, bf.unit_bias_spec(), 2) == pytest.approx(1 / 6, abs=1e-12)


def test_beta_equals_alpha_at_matched_order():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        X = bf.random_discrete(rng)
        spec = bf.random_valid_spec(rng, k)
        try:
            alpha = bf.alpha_of(X, spec)
        except bf.DegenerateAlpha:
            continue
        assert bf.beta_of(X, spec, k) == pytest.approx(alpha, rel=1e-9)


def test_beta_degenerate_on_point_mass():
    with pytest.raises(bf.DegenerateBeta):
        bf.beta_of(bf.dirac(0.0), bf.unit_bias_spec(), 2)
    with pytest.raises(bf.DegenerateBeta):  # the chain's stage is the point mass at 0
        bf.bias_to_order(bf.dirac(0.0), bf.unit_bias_spec(), 2)
    # alpha = 1e-6 and a step normalizer of 5e-7 pass their own checks, but
    # their product, beta = 5e-13, is at most ALPHA_TOL on both routes
    X = bf.from_atoms([(-1e-3, 0.5), (1e-3, 0.5)])
    tiny = bf.SignChangeSpec(lambda x: np.full_like(np.asarray(x, float), 1e-6), bf.NodeSet(()))
    with pytest.raises(bf.DegenerateBeta):
        bf.beta_of(X, tiny, 2)
    with pytest.raises(bf.DegenerateBeta):
        bf.bias_to_order(X, tiny, 2)


def test_beta_parity_guard(uniform_sym):
    with pytest.raises(bf.ParityMismatch):
        bf.beta_of(uniform_sym, bf.unit_bias_spec(), 1)


# ---------------------------------------------------------------------------
# order lifting
# ---------------------------------------------------------------------------

def test_lift_matched_order_returns_plain_transform(uniform_sym):
    spec = bf.zero_bias_spec()
    t = bf.bias_to_order(uniform_sym, spec, 1)
    assert t.beta is None
    assert isinstance(t.recipe, bf.BiasRecipe)


def test_parity_witness_full_support_rejected():
    # an order-1 identity with a nowhere-negative bias needs matching parity;
    # the full-support normal admits no such transform and the call must fail
    with pytest.raises(bf.ParityMismatch):
        bf.bias_to_order(bf.normal(), bf.unit_bias_spec(), 1)


def test_equilibrium_style_transform_for_nonnegative_input():
    # a law bounded below does admit it, through one sign change at the edge:
    # E[f(X) - f(0)] = E[X] E[f'(X')] with the unit exponential fixed
    E = bf.exponential(1.0)
    t = bf.bias(E, bf.sign_spec(0.0))
    assert t.alpha == pytest.approx(1.0, rel=1e-9)  # E[X - 0]
    # f = x^2: E[X^2] - 0 = alpha * 2 E[X'] and the transform of Exp(1) is Exp(1)
    assert t.moment(1) == pytest.approx(bf.moment(E, 2) / 2, rel=1e-8)


def test_order_lift_normalizer_chain(uniform_sym):
    # two chained steps from the centered uniform: running normalizers
    # 1/6 and 1/20, with overall beta = E[X^4]/4! = 1/120
    t = bf.bias_to_order(uniform_sym, bf.unit_bias_spec(), 4)
    assert t.beta == pytest.approx(1 / 120, rel=1e-10)
    assert t.recipe.step_normalizers == pytest.approx((1 / 6, 1 / 20), rel=1e-10)


def test_order_lift_identity_continuous_by_quadrature(uniform_sym):
    # E[F(X) - maclaurin_3(F)(X)] = beta E[F''''] for F = x^4 on U[-1,1]:
    # left side 1/5, right side (1/120) * 24 * 1 = 1/5
    t = bf.bias_to_order(uniform_sym, bf.unit_bias_spec(), 4)
    lhs = bf.moment(uniform_sym, 4)  # odd maclaurin terms vanish under symmetry
    rhs = t.beta * 24 * t.moment(0)
    assert lhs == pytest.approx(rhs, rel=1e-9)
    # and for F = x^6: E[X^6] - (6 choose ...) maclaurin terms = beta E[360 X^2]
    lhs = bf.moment(uniform_sym, 6)
    rhs = t.beta * 360 * t.moment(2)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_order_lift_exact_identity_randomized():
    rng = np.random.default_rng(314)
    done = 0
    while done < 30:
        m = int(rng.integers(1, 5))
        k = int(rng.choice(np.arange(m % 2, m + 1, 2)))
        X = bf.random_discrete(rng, max_atoms=6)
        spec = bf.random_valid_spec(rng, k)
        F = Polynomial.monomial(int(rng.integers(0, m + 4)))
        try:
            rep = bf.check_identity_exact(X, spec, m, F, tol=1e-9)
        except (bf.DegenerateAlpha, bf.DegenerateBeta):
            continue
        assert rep.passed, (k, m, F.degree, rep.lhs, rep.rhs)
        done += 1


def test_seed_moment_coefficient_route_agrees():
    # E[Y^j] by the shrink recursion vs the interpolation-residual formula
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 20:
        k = int(rng.integers(1, 4))
        X = bf.random_discrete(rng)
        spec = bf.random_valid_spec(rng, k)
        try:
            t = bf.bias(X, spec)
        except bf.DegenerateAlpha:
            continue
        moms = bf.recipe_moments(t.recipe, 4)
        for j in range(5):
            via_coeff = moment_via_coefficients(X, spec, j)
            assert via_coeff == pytest.approx(moms[j], rel=1e-10, abs=1e-10)
        checked += 1
    # the seven density laws of the benchmark's continuous-cold workload,
    # whose moments read the seed moments the construction's pass recorded;
    # the coefficient route takes an expectation per power (an odd moment of
    # a symmetric law cancels to ~1e-17, hence the absolute floor)
    for name, X, spec in cold_bias_cases():
        moms = bf.recipe_moments(bf.bias(X, spec).recipe, 4)
        for j in range(5):
            via_coeff = moment_via_coefficients(X, spec, j)
            assert via_coeff == pytest.approx(moms[j], rel=1e-12, abs=1e-14), (name, j)


def test_lift_beta_matches_beta_of_on_atoms():
    # the chain's beta, alpha times its step normalizers, against the
    # independent route: one atom sum of B (x^m - interpolant)
    rng = np.random.default_rng(2032)
    for _ in range(60):
        k = int(rng.integers(0, 3))
        m = k + 2 * int(rng.integers(1, (5 - k) // 2 + 1))  # m <= 5
        X = bf.random_discrete(rng, max_atoms=6)
        spec = bf.random_valid_spec(rng, k)
        t = bf.bias_to_order(X, spec, m)
        assert t.beta == pytest.approx(bf.beta_of(X, spec, m), rel=1e-12), (k, m)


@pytest.mark.parametrize("law, spec, m", [
    (bf.normal(), bf.unit_bias_spec(), 2),
    (bf.normal(), bf.unit_bias_spec(), 4),
    (bf.normal(), bf.zero_bias_spec(), 3),
    (bf.uniform(-1.0, 1.0), bf.unit_bias_spec(), 4),
    (bf.uniform(-1.0, 1.0), bf.zero_bias_spec(), 5),
    (bf.uniform(-1.0, 1.0), bf.SignChangeSpec(bf.plus_part, (-1.0,), kinks=(0.0,)), 3),
    (bf.exponential(1.0), bf.unit_bias_spec(), 2),
    (bf.exponential(1.0), bf.sign_spec(0.0), 3),
    (bf.normal(0.3, 1.2), bf.unit_bias_spec(), 4),
    (bf.normal(0.3, 1.2), transform.centered_bias_spec(0.3), 3),
], ids=["normal-2", "normal-4", "normal-zero-3", "uniform-4", "uniform-zero-5",
        "uniform-xplus-3", "exp-2", "exp-sign-3", "normal-shifted-4", "normal-centered-3"])
def test_lift_beta_matches_beta_of_on_densities(law, spec, m):
    t = bf.bias_to_order(law, spec, m)
    assert t.beta == pytest.approx(bf.beta_of(law, spec, m), rel=1e-12)


@pytest.mark.parametrize("law, m", [(bf.uniform(-1.0, 1.0), 2), (bf.normal(), 4)],
                         ids=["uniform-2", "normal-4"])
def test_lift_construction_takes_one_panel_pass(construction_calls, law, m):
    # the base's alpha-and-normaliser pass, which records its seed moments
    # to order 4 >= m - k: beta is their product, with no integral of its own
    # (two passes when the seed moments took one of their own)
    bf.bias_to_order(law, bf.unit_bias_spec(), m)
    assert construction_calls == {"panels": 1, "expectation": 0, "beta_of": 0}


def test_lifted_law_beta_consistency(uniform_sym):
    # beta must equal alpha * E[Y^{m-k}] / (m-k)! with Y the base stage
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = int(rng.integers(0, 3))
        m = k + 2
        X = bf.random_discrete(rng, max_atoms=5)
        spec = bf.random_valid_spec(rng, k)
        try:
            t = bf.bias_to_order(X, spec, m)
        except (bf.DegenerateAlpha, bf.DegenerateBeta):
            continue
        base_moms = bf.recipe_moments(t.recipe.base, m - k)
        assert t.beta == pytest.approx(
            t.alpha * base_moms[m - k] / math.factorial(m - k), rel=1e-9)


def test_order_two_lift_density_and_sampling(uniform_sym):
    t = bf.bias_to_order(uniform_sym, bf.unit_bias_spec(), 2)
    assert t.beta == pytest.approx(1 / 6, abs=1e-14)
    ts = np.linspace(-1, 1, 101)
    closed = 1.5 * (1 - np.abs(ts)) ** 2  # hand-derived law of the lifted uniform
    assert np.max(np.abs(np.asarray(t.density(ts)) - closed)) <= 1e-3
    total = quad(lambda x: float(t.density(x)), -1, 1, points=[0])[0]
    assert total == pytest.approx(1.0, abs=1e-6)


def test_order_two_lift_built_once_under_concurrent_reads(monkeypatch, uniform_sym):
    builds = []
    build = transform._identity_table

    def counting(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(transform, "_identity_table", counting)
    t = bf.bias_to_order(uniform_sym, bf.unit_bias_spec(), 2)
    values = call_concurrently(lambda: t.density(0.25))
    assert len(builds) == 1
    assert len(set(values)) == 1


def test_two_step_lift_of_normal_samples_and_normalizes():
    # each step's sampler tilts the previous step's tabulated law, here on an
    # infinite support; the draws must follow the tabulated density
    t = bf.bias_to_order(bf.normal(), bf.unit_bias_spec(), 4)
    xs = np.linspace(-9.0, 9.0, 20001)
    assert np.trapezoid(np.asarray(t.density(xs)), xs) == pytest.approx(1.0, abs=1e-6)
    n = 20_000
    draws = t.sample(n, bf.RandomSource(17))
    assert bf.ks_statistic(draws, bf.numeric_cdf(t.law)) < bf.ks_critical(n, 0.01)


def test_moment_of_lifted_law_reads_its_table():
    # the lifted law's density is a lazily built table, and expectations
    # against the law integrate that table: adaptive quadrature over a
    # piecewise-linear table hits round-off on the normal's infinite support
    t = bf.bias_to_order(bf.normal(), bf.unit_bias_spec(), 2)
    for q in (1, 2):
        assert bf.moment(t.law, q) == pytest.approx(t.moment(q), abs=1e-4)


def test_absolute_continuity_no_repeats(uniform_sym):
    n = 100_000
    lifted = bf.bias_to_order(uniform_sym, bf.unit_bias_spec(), 2)
    draws = lifted.sample(n, bf.RandomSource(2))
    assert np.unique(draws).size == n
    one_node = bf.bias(bf.from_atoms([(-1, 0.5), (1, 0.5)]), bf.zero_bias_spec())
    draws = one_node.sample(n, bf.RandomSource(3))
    assert np.unique(draws).size == n


def test_lift_input_validation(uniform_sym):
    with pytest.raises(bf.InputError):
        bf.bias_to_order(uniform_sym, bf.zero_bias_spec(), 0)  # k > m
    with pytest.raises(bf.ParityMismatch):
        bf.bias_to_order(uniform_sym, bf.zero_bias_spec(), 2)  # k=1, m=2


def test_first_draw_of_lift_over_one_node_base_reads_one_table(monkeypatch):
    # the step tilts the one-node law, whose density is read from one panel
    # table: its inverse-CDF table is not one adaptive integral per point
    t = bf.bias_to_order(bf.normal(), bf.zero_bias_spec(), 3)
    calls = []
    for module in (distributions, transform):
        inner = module.integrate_fn

        def counting(*args, _inner=inner, **kwargs):
            calls.append(1)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, "integrate_fn", counting)
    draws = t.sample(200_000, bf.RandomSource(5))
    assert len(calls) < 50
    assert draws.mean() == pytest.approx(t.moment(1), abs=5 * draws.std() / math.sqrt(draws.size))
