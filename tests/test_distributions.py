import dataclasses
import math
import threading
import warnings
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad
from scipy.stats import norm

import biasforge as bf
from biasforge import distributions as D
from conftest import atoms_strategy, call_concurrently
from primitives import cold_bias_cases, normal_about


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_uniform_square():
    assert bf.moment(bf.uniform(-1, 1), 2) == pytest.approx(1 / 3, abs=1e-12)


def test_moment_symmetric_two_point():
    d = bf.from_atoms([(-1, 0.5), (1, 0.5)])
    assert bf.moment(d, 4) == 1.0


def test_moment_three_point_brute_force():
    # oracle: plain atom sum
    xs, w = [-1.0, 0.0, 2.0], 1 / 3
    expected = sum(w * x**4 for x in xs)
    d = bf.from_atoms([(x, w) for x in xs])
    assert bf.moment(d, 4) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(17 / 3)


def test_moment_zeroth_is_one():
    assert bf.moment(bf.normal(), 0) == 1.0


def test_moment_matches_catalog_closed_forms():
    # quadrature route vs closed forms
    assert bf.moment(bf.exponential(2.0), 3) == pytest.approx(math.factorial(3) / 8, rel=1e-9)
    assert bf.moment(bf.normal(0, 2), 4) == pytest.approx(3 * 16, rel=1e-9)
    hn = bf.half_normal(1.5)
    assert bf.moment(hn, 2) == pytest.approx(1.5**2, rel=1e-9)
    assert bf.moment(hn, 1) == pytest.approx(1.5 * math.sqrt(2 / math.pi), rel=1e-9)


@pytest.mark.parametrize("n, expected", [(2, 1.0), (4, 3.0)])
def test_moment_of_cached_density(n, expected):
    # a tabulated density integrates by the panel rule, its grid as break points
    assert bf.moment(bf.cache_density(bf.normal(), 2049), n) == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize("n", [0, 1])
def test_a_table_of_fewer_than_two_points_is_an_input_error(n):
    # a one-point grid read a CDF of 1.0 at the median of the zero-bias
    # normal law, and an empty one a zero mass
    law = bf.bias(bf.normal(), bf.zero_bias_spec()).law
    for build in (lambda: bf.numeric_cdf(law, n=n), lambda: bf.cache_density(law, n),
                  lambda: D.TabulatedDensity.from_callable(bf.normal().density, -1, 1, n=n)):
        with pytest.raises(bf.InputError, match="at least 2 grid points"):
            build()
    assert bf.numeric_cdf(law, n=2)(0.0) == 0.5


def _table_integral(table, q, lo=-math.inf):
    """∫ x^q pdf(x) dx over the segments of ``table`` at or above ``lo`` (a
    grid point), in exact rational arithmetic: pdf = a + b x on each."""
    xs = [Fraction(x) for x in table.xs.tolist()]
    ys = [Fraction(y) for y in table.ys.tolist()]
    exact = Fraction(0)
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if x0 < lo:
            continue
        b = (y1 - y0) / (x1 - x0)
        a = y0 - b * x0
        exact += (a * (x1 ** (q + 1) - x0 ** (q + 1)) / (q + 1)
                  + b * (x1 ** (q + 2) - x0 ** (q + 2)) / (q + 2))
    return exact


@pytest.mark.parametrize("p", [4, 6, 10])
def test_moment_of_a_table_is_its_exact_piecewise_polynomial_integral(p, fallbacks):
    # the moment of a linear-interpolation table is a sum of polynomial
    # integrals over its segments, computed here in exact rational
    # arithmetic; so are the stacked moments and a tilt's normaliser and
    # mean, and the panels reach them with the grid as break points alone
    law = bf.bias_to_order(bf.uniform(-1, 1), bf.unit_bias_spec(), 2).law
    cached = bf.cache_density(law, 17)
    table = cached.density
    assert bf.moment(cached, p) == pytest.approx(float(_table_integral(table, p)), rel=1e-13)
    stacked = D._moments(cached, p)
    for q in range(1, p + 1):  # an odd moment of this symmetric law cancels to ~0
        exact = _table_integral(table, q)
        scale = exact if q % 2 == 0 else 2 * _table_integral(table, q, lo=0) - exact  # E|X|^q
        assert abs(stacked[q] - float(exact)) <= 1e-13 * float(scale), q
    # w = x^p + x^(p-1) is negative on (-1, 0): z = E[max(w, 0)] splits at 0, a grid point
    assert 0.0 in table.xs
    w = lambda x: np.asarray(x, float) ** p + np.asarray(x, float) ** (p - 1)
    probe = D._probe_points(cached)
    _, z, mean, *_ = D._tilt(cached, w, (), probe, w(probe))
    exact_z = _table_integral(table, p, lo=0) + _table_integral(table, p - 1, lo=0)
    exact_mean = _table_integral(table, p) + _table_integral(table, p - 1)
    assert z == pytest.approx(float(exact_z), rel=1e-13)
    assert mean == pytest.approx(float(exact_mean), rel=1e-13)
    assert fallbacks == []


def test_expectation_of_a_table_keeps_the_caller_s_break_points():
    # a step at 0.1003 inside a segment of the order-2 lift's table: the
    # table's own rule (integrate_weighted) does not see it and was off by
    # 6.1e-5, and the sign transform's alpha = E|X - c| by 8e-9 relative; as
    # a break point of the panels both are exact
    c = 0.1003
    lift = bf.bias_to_order(bf.uniform(-1, 1), bf.unit_bias_spec(), 2).law
    table = lift.density.get()
    assert c not in table.xs
    xs = [Fraction(x) for x in table.xs.tolist()]
    ys = [Fraction(y) for y in table.ys.tolist()]
    exact, exact_alpha, C = Fraction(0), Fraction(0), Fraction(c)
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        b = (y1 - y0) / (x1 - x0)
        a = y0 - b * x0
        mass = lambda u, v: a * (v - u) + b * (v * v - u * u) / 2  # ∫_u^v (a + b x) dx
        first = lambda u, v: a * (v * v - u * u) / 2 + b * (v ** 3 - u ** 3) / 3  # ∫ x (a + b x)
        cut = min(max(C, x0), x1)
        exact += mass(cut, x1) - mass(x0, cut)  # sign(x - c): -1 below c, +1 above
        exact_alpha += (first(cut, x1) - C * mass(cut, x1)) - (first(x0, cut) - C * mass(x0, cut))
    got = bf.expectation(lift, lambda x: np.sign(np.asarray(x, float) - c), points=(c,))
    assert abs(got - float(exact)) <= 1e-12
    assert bf.bias(lift, bf.sign_spec(c)).alpha == pytest.approx(float(exact_alpha), rel=1e-12)


def _generic(d):
    """The density of ``d`` as a law of its own, with no window given: its
    window is the tail probe's."""
    return bf.Distribution(lo=d.lo, hi=d.hi, density=d.density, label=f"generic {d.label}")


def test_moment_of_mass_the_tail_probe_misses_raises():
    # near 1000 the tangent probe grid is ~800 apart and sees no mass; a
    # density always has mass, so this is a loud failure, not E[X] = 0
    with pytest.raises(bf.NonIntegrable, match="no density mass"):
        bf.moment(_generic(bf.normal(1000, 1e-3)), 1)


def _normal_moment(mu, sig, n):
    return (1.0, mu, mu ** 2 + sig ** 2, mu ** 3 + 3 * mu * sig ** 2,
            mu ** 4 + 6 * mu ** 2 * sig ** 2 + 3 * sig ** 4)[n]


@pytest.mark.parametrize("mu", [-1e6, -1000.0, -500.0, 0.0, 0.5, 400.0, 500.0, 1000.0, 1e6])
@pytest.mark.parametrize("sig", [1e-6, 1e-3, 1.0, 30.0, 1e3])
def test_normal_moments_from_the_closed_form_window(mu, sig):
    # the window is mu +- sig sqrt(2 ln(1 / TAIL_EPS)), so no mass is too
    # narrow or too far out for the probe grid (mu = 500 and 1000 raised
    # NonIntegrable with a probed window).  Where |mu| / sig > 1e6 the
    # density is only ~sig / ulp(mu) < 2^33 floats wide and the quadrature
    # nodes round by up to 1e-4 sig: there the moments are held to the
    # quadrature tolerance (seen: at most 3.3e-10).  An odd moment at mu = 0
    # is 0, which has no relative error: it is held to the scale sig^n
    d = bf.normal(mu, sig)
    lo, hi = d.effective_support()
    assert hi - lo == pytest.approx(2 * 8.583864105157389 * sig, rel=1e-4)
    tol = 1e-12 if abs(mu) <= 1e6 * sig else D.REL_TOL
    got = D._moments(d, 4)
    for n in range(1, 5):
        want = _normal_moment(mu, sig, n)
        scale = abs(want) if want else sig ** n
        assert abs(bf.moment(d, n) - want) <= tol * scale
        assert abs(got[n] - want) <= tol * scale


def test_expectation_of_an_overflowing_integrable_weight_without_warnings():
    # e^x overflows far out on the tail probe, where the normal density is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = bf.expectation(bf.normal(), lambda x: np.exp(x))
        tilted = bf.tilt(bf.normal(), np.exp)  # normal(1, 1)
        assert bf.moment(tilted, 1) == pytest.approx(1.0, rel=1e-9)
    assert value == pytest.approx(math.exp(0.5), rel=1e-12)


@pytest.mark.parametrize("d, w", [
    (bf.normal(), lambda x: np.exp(np.asarray(x) ** 2)),
    (bf.exponential(1.0), np.exp),
], ids=["normal-exp-x2", "exponential-exp-x"])
def test_expectation_of_a_weight_that_does_not_decay_raises(d, w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bf.NonIntegrable):
            bf.expectation(d, w)


def test_expectation_of_an_integrable_weight_that_overflows_first_raises():
    # E[e^{0.49 X^2}] = 1/sqrt(0.02) is finite, but the product overflows near
    # |x| = 38, where e^{-0.01 x^2} is still far above TAIL_EPS: a numerical limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bf.NonIntegrable, match="overflows"):
            bf.expectation(bf.normal(), lambda x: np.exp(0.49 * np.asarray(x) ** 2))


def test_moment_heavy_tail_raises():
    cauchy = bf.Distribution(lo=-np.inf, hi=np.inf,
                             density=lambda x: 1.0 / (np.pi * (1 + np.asarray(x, float) ** 2)))
    with pytest.raises(bf.NonIntegrable):
        bf.moment(cauchy, 2)


# ---------------------------------------------------------------------------
# the adaptive panel integral, against integrate_fn as the oracle
# ---------------------------------------------------------------------------

@pytest.fixture
def fallbacks(monkeypatch):
    """The [a, b] of every integrate_fn call the panel integral falls back to."""
    calls = []
    oracle = D.integrate_fn

    def counted(f, lo, hi, *args, **kwargs):
        calls.append((lo, hi))
        return oracle(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(D, "integrate_fn", counted)
    return calls


def _panel_integral(f):
    """The panel integral of ``f`` on the window [-1, 1] of a law on [-1, 1],
    as a one-row stack."""
    fv = D.as_array_fn(f)
    return D._window_integral(lambda x: fv(x)[None], bf.uniform(-1.0, 1.0))[0][0]


@pytest.mark.parametrize("d", [bf.normal(0.5, 1.5), bf.exponential(1.5)], ids=["normal", "exp"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_panel_moments_match_adaptive_oracle(d, n, fallbacks):
    oracle = bf.integrate_fn(lambda x: x ** n * d.density(x), d.lo, d.hi, points=d.kinks)
    assert bf.moment(d, n) == pytest.approx(oracle, rel=1e-10)
    assert fallbacks == []  # smooth integrands converge on the panels alone


def test_panel_integral_undeclared_kink(fallbacks):
    f = lambda x: np.abs(x - 0.3) * np.exp(x)
    oracle = bf.integrate_fn(f, -1, 1, points=(0.3,))
    assert _panel_integral(f) == pytest.approx(oracle, abs=1e-9)
    assert bf.expectation(bf.uniform(-1, 1), f) == pytest.approx(oracle / 2, abs=1e-9)
    assert fallbacks == []  # a kink converges by bisection


def test_panel_integral_undeclared_jump():
    f = lambda x: np.where(x > 0.3, np.exp(x), 0.0)
    oracle = bf.integrate_fn(f, -1, 1, points=(0.3,))
    assert oracle == pytest.approx(math.e - math.exp(0.3), abs=1e-12)
    assert _panel_integral(f) == pytest.approx(oracle, abs=1e-9)


def test_panel_integral_scalar_only_callable():
    # max() refuses arrays, so as_array_fn evaluates it point by point
    f = lambda x: max(x - 0.3, 0.0)
    oracle = bf.integrate_fn(lambda x: 0.5 * f(x), -1, 1, points=(0.3,))
    assert oracle == pytest.approx(0.1225, abs=1e-12)
    assert bf.expectation(bf.uniform(-1, 1), f) == pytest.approx(oracle, abs=1e-9)


def test_panel_integral_singularity_falls_back_to_integrate_fn(fallbacks):
    f = lambda x: np.abs(x) ** -0.5
    oracle = bf.integrate_fn(f, -1, 1, points=(0.0,))
    assert oracle == pytest.approx(4.0, abs=1e-9)
    assert _panel_integral(f) == pytest.approx(oracle, abs=1e-9)
    # only the few smallest panels at the singularity exhaust the bisection depth
    assert 0 < len(fallbacks) <= 4
    assert all(max(abs(lo), abs(hi)) < 1e-6 for lo, hi in fallbacks)


def test_singular_integrand_is_finite_or_raises_never_inf():
    # E|X - c|^(-1/2) = sqrt(1 + c) + sqrt(1 - c) on the uniform; where a
    # sliver at c makes quad put a node on c it returns inf with no message,
    # and integrate_fn raises in place of that inf (also with c undeclared)
    U = bf.uniform(-1.0, 1.0)
    cases = [(c, (c,)) for c in np.linspace(0.05, 0.95, 41)] + [(0.185, ())]
    for c, points in cases:
        def f(x, c=c):
            with np.errstate(divide="ignore"):  # the integrand's own inf at c
                return np.abs(np.asarray(x, dtype=float) - c) ** -0.5
        try:
            value = bf.expectation(U, f, points=points)
        except bf.NonIntegrable:
            continue
        assert value == pytest.approx(math.sqrt(1 + c) + math.sqrt(1 - c), abs=1e-7), c


@pytest.mark.parametrize("law", [
    lambda: bf.uniform(-1, 1),
    lambda: bf.bias_to_order(bf.uniform(-1, 1), bf.unit_bias_spec(), 2).law,
], ids=["uniform", "table"])
def test_panel_integral_non_finite_integrand_goes_whole_to_integrate_fn(law, fallbacks):
    # sqrt is NaN on the negative half, so the rule there is not finite: the
    # window goes to the oracle at once (NaN) instead of being bisected; a
    # table's 2,000 grid points go with it as break points
    with np.errstate(invalid="ignore"):
        assert math.isnan(bf.expectation(law(), np.sqrt))
    assert fallbacks == [(-1.0, 1.0)]


def test_stack_with_a_non_finite_rule_goes_whole_to_integrate_fn_row_by_row(fallbacks):
    # sqrt, the last of three rows, is NaN on the negative half: the window
    # goes to the oracle for every row of the stack, its row count read from
    # the stack, and each row's value is that of integrate_fn on that row
    rows = (np.exp, lambda x: x * x, np.sqrt)
    with np.errstate(invalid="ignore"):
        got, _, panels = D._window_integral(lambda x: np.stack([f(x) for f in rows]),
                                            bf.uniform(-1.0, 1.0))
        want = [bf.integrate_fn(f, -1.0, 1.0) for f in rows]
    assert panels is None and fallbacks == [(-1.0, 1.0)] * 3
    assert got.shape == (3,) and math.isnan(got[2])
    assert got[:2].tolist() == want[:2]


def test_panel_integral_caps_open_panels(fallbacks):
    # at panel scale sin(1e9 x)^2 is noise and the open panels double every
    # round; past the cap the whole window goes to the oracle, which fails
    # loudly
    with pytest.raises(bf.NonIntegrable):
        _panel_integral(lambda x: np.sin(1e9 * x) ** 2)
    assert fallbacks == [(-1.0, 1.0)]


def _reference_panel_integral(f, lo, hi, points=(), window=None):
    """The adaptive panel integral as one loop with its halves in one call of
    the integrand: the form ``_panels`` replaced, kept as the reference.  It
    starts from the edges of ``_start_panels`` on ``window``, by default the
    tail probe's window of f.  A panel still open after the last round keeps
    the rule on its halves where its error is within the whole tolerance,
    else integrate_fn values each half."""
    fv = D.as_array_fn(f)
    if window is None:
        window = D._effective_bounds(fv, lo, hi)
        if not window[0] < window[1]:
            return 0.0
    edges = D._start_panels(fv, window, lo, hi, points)[0]
    lo_e, hi_e = edges[0], edges[-1]
    inner = [float(p) for p in points if lo_e < float(p) < hi_e]
    a, b = edges[:-1], edges[1:]
    whole = D._gauss_legendre(fv, a, b)
    width, done = hi_e - lo_e, 0.0
    for _ in range(D._PANEL_DEPTH):
        mid = 0.5 * (a + b)
        halves = D._gauss_legendre(fv, np.concatenate((a, mid)), np.concatenate((mid, b)))
        left, right = halves[:a.size], halves[a.size:]
        fine = left + right
        if not (np.isfinite(fine).all() and np.isfinite(whole).all()):
            return D.integrate_fn(fv, lo_e, hi_e, points=inner)
        tol = D.ABS_TOL + D.REL_TOL * abs(done + fine.sum())
        open_ = np.abs(fine - whole) > tol * (b - a) / width
        if np.count_nonzero(open_) > D._PANEL_OPEN_MAX:
            return D.integrate_fn(fv, lo_e, hi_e, points=inner)
        done += float(fine[~open_].sum())
        far = np.tile((np.abs(fine - whole) > tol)[open_], 2)
        a, b = np.concatenate((a[open_], mid[open_])), np.concatenate((mid[open_], b[open_]))
        whole = np.concatenate((left[open_], right[open_]))
        if not a.size:
            return done
    return done + sum(D.integrate_fn(fv, x, y) if out else rule
                      for x, y, rule, out in zip(a, b, whole, far))


CATALOG = [bf.normal(0.5, 1.5), bf.exponential(1.5), bf.half_normal(1.3),
           bf.negative_half_normal(0.7), bf.uniform(-1, 2)]


@pytest.mark.parametrize("d", CATALOG, ids=lambda d: d.label)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_panel_moments_equal_the_reference_loop(d, n):
    assert bf.moment(d, n) == _reference_panel_integral(
        lambda x: d.density(x) * x ** n, d.lo, d.hi, points=d.kinks, window=d.effective_support())


@pytest.mark.parametrize("f", [lambda x: np.abs(x - 0.3) * np.exp(x),
                               lambda x: np.where(x > 0.3, np.exp(x), 0.0),
                               lambda x: np.abs(x) ** -0.5], ids=["kink", "jump", "singularity"])
def test_panel_integral_equals_the_reference_loop(f):
    assert _panel_integral(f) == _reference_panel_integral(f, -1, 1)


def _reference_bounds(f, lo, hi):
    """``_effective_bounds`` with its tangent grid rebuilt on every call: the
    form the module constant replaced, kept as the reference."""
    if math.isfinite(lo) and math.isfinite(hi):
        return float(lo), float(hi)
    half = math.pi / 2 - 1e-6
    xs = np.tan(np.linspace(-half, half, D._PROBE_GRID))
    xs = xs[(xs >= lo) & (xs <= hi)]
    xs = np.concatenate(([lo] if math.isfinite(lo) else [], xs, [hi] if math.isfinite(hi) else []))
    vals = np.abs(D.as_array_fn(f)(xs))
    vals[~np.isfinite(vals)] = 0.0
    idx = np.nonzero(vals >= D.TAIL_EPS * vals.max())[0]
    return float(xs[max(idx[0] - 1, 0)]), float(xs[min(idx[-1] + 1, len(xs) - 1)])


@pytest.mark.parametrize("d", CATALOG + [bf.normal(), bf.normal(-40.0, 2.0), bf.exponential(80.0),
                                         bf.tilt(bf.normal(), lambda x: 1.0 + np.asarray(x) ** 2)],
                         ids=lambda d: d.label)
def test_probe_windows_are_bit_identical_to_a_fresh_grid(d):
    assert not D._TAN_PROBE.flags.writeable
    moment_2 = lambda x: d.density(x) * x ** 2
    for f, window in ((d.density, D._effective_bounds(d.density, d.lo, d.hi)),
                      (moment_2, D._effective_bounds(moment_2, d.lo, d.hi))):
        assert [x.hex() for x in window] == [x.hex() for x in _reference_bounds(f, d.lo, d.hi)]


TAIL_FAULTS = {  # an integrand, and the words of the NonIntegrable it raises
    "one-over-x-squared": (lambda x: 1.0 / (1.0 + x * x), "has not decayed"),
    "overflows": (lambda x: np.exp(0.49 * x * x) * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
                  "overflows before"),
}


@pytest.mark.parametrize("fault", sorted(TAIL_FAULTS))
@pytest.mark.parametrize("lo, hi", [(-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf)],
                         ids=["left", "right", "two-sided"])
def test_probe_and_ladder_raise_the_same_tail_message(fault, lo, hi):
    # one tail rule: the probe (through integrate_fn, or the window of a
    # generic density) and the ladder that widens a kept window raise the
    # same NonIntegrable for the same integrand; e^{0.49 x^2} on the normal
    # is integrable, but overflows near |x| = 38 while still above the threshold
    f, words = TAIL_FAULTS[fault]
    fv = D.as_array_fn(f)
    routes = (lambda: bf.integrate_fn(f, lo, hi),
              lambda: bf.Distribution(lo=lo, hi=hi, density=f).effective_support(),
              lambda: D._start_panels(fv, (max(lo, -8.5), min(hi, 8.5)), lo, hi, ()))
    messages = set()
    for route in routes:
        with pytest.raises(bf.NonIntegrable) as err:
            route()
        messages.add(str(err.value))
    assert len(messages) == 1 and words in messages.pop()


@pytest.mark.parametrize("start", [0, 1])
def test_row_of_running_products_gives_the_bits_of_the_stack(start):
    # a fallback integrates one row at scalar points through _row: the
    # stack's own row, bit for bit, with head and factor called once per call
    heads, factors = [], []
    head = lambda x: heads.append(1) or np.exp(np.asarray(x, float))
    factor = lambda x: factors.append(1) or np.asarray(x, float) - 0.3
    g = D._running_products(head, factor, 5, start=start)
    xs = np.linspace(-2.0, 3.0, 101)
    stack = g(xs)
    assert stack.shape == (5, 101) and len(heads) == len(factors) == 1
    np.testing.assert_allclose(stack, np.exp(xs) * (xs - 0.3) ** np.arange(start, start + 5)[:, None],
                               rtol=1e-14)
    for j in range(5):
        row = D._row(g, j)
        for i in range(0, 101, 10):
            assert row(float(xs[i])) == stack[j, i]
    assert len(heads) == len(factors) == 1 + 5 * 11
    # one row from the head alone: the factor is never called
    one = D._running_products(head, factor, 1)
    assert np.array_equal(one(xs)[0], np.exp(xs)) and len(factors) == 1 + 5 * 11


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    # the rule's nodes and weights are written out so that importing the
    # package does not load numpy.polynomial; they are its values exactly
    x, w = np.polynomial.legendre.leggauss(8)
    assert D._GX.tobytes() == x.tobytes() and D._GW.tobytes() == w.tobytes()


def test_tail_rows_widen_the_panels_but_not_the_tilt_window():
    # rows riding a tilt's pass: x f decays later than the constant tilt's
    # f, so the pass's panels reach past the normal's window, and the tilt
    # keeps that window, its law and its normaliser as without the rows;
    # the rows' panels tile the wider span and sum to their integrals
    X, ones = bf.normal(), lambda x: np.ones_like(np.asarray(x, float))
    probe = D._probe_points(X)
    wx = ones(probe)
    plain, z, mean, none, _ = D._tilt(X, ones, (), probe, wx)
    loads = lambda x: np.stack((ones(x), np.asarray(x, float) ** 2, ones(x)))  # w, then the rows
    law, z2, mean2, panels, _ = D._tilt(X, ones, (), probe, wx, loads, (0.0,))
    assert none is None
    assert law.effective_support() == plain.effective_support() == X.effective_support()
    assert (z2, mean2) == pytest.approx((z, mean), rel=1e-15) and law.kinks == plain.kinks
    lefts, vals, end = np.concatenate(panels[0]), np.concatenate(panels[1], axis=1), panels[2]
    assert vals.shape == (2, lefts.size) and lefts.min() < X.effective_support()[0]
    assert end > X.effective_support()[1]
    np.testing.assert_allclose(vals.sum(axis=1), [1.0, 1.0], rtol=0, atol=1e-12)
    assert np.ptp(np.diff(np.append(np.sort(lefts), end))) < end - lefts.min()  # they tile it


def test_panels_tile_the_window_for_stacked_integrands(fallbacks, monkeypatch):
    # two integrands on a leading axis, one with a jump: the final panels
    # tile the window and each integrand's values sum to its integral; the
    # jump row's slivers, still open after the last round, keep the rule on
    # their halves, whose error there is within the whole tolerance, so no
    # row reaches integrate_fn
    rows, probe = (np.exp, lambda x: np.where(x > 0.3, 1.0, 0.0)), (-0.5, 0.2999, 0.3001, 0.9)
    seen, counted = [], D.integrate_fn

    def fv(x):
        return np.stack([f(x) for f in rows])

    def valued(f, lo, hi, *args, **kwargs):  # what each fallback integrates, at the probe
        seen.append([float(f(x)) for x in probe])
        return counted(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(D, "integrate_fn", valued)
    total, lefts, vals = D._panels(fv, np.linspace(-1.0, 1.0, 65))
    lefts, vals = np.concatenate(lefts), np.concatenate(vals, axis=1)
    order = np.argsort(lefts)
    edges = np.append(lefts[order], 1.0)
    assert edges[0] == -1.0 and np.all(np.diff(edges) > 0)
    np.testing.assert_allclose(D._gauss_legendre(fv, edges[:-1], edges[1:]), vals[:, order],
                               rtol=0, atol=1e-9)
    assert fallbacks == [] and seen == []
    assert np.min(np.diff(edges)) < 1e-8  # the jump's 2^-24 slivers stay open, at 0.3
    assert abs(edges[np.argmin(np.diff(edges))] - 0.3) < 1e-8
    np.testing.assert_allclose(vals.sum(axis=1), [math.e - 1 / math.e, 0.7], rtol=0, atol=1e-9)
    np.testing.assert_allclose(total, vals.sum(axis=1), rtol=0, atol=1e-15)


def _counting_probes(monkeypatch):
    """The list that each call of the tail probe appends to."""
    calls = []
    probe = D._effective_bounds
    monkeypatch.setattr(D, "_effective_bounds", lambda *a: calls.append(a) or probe(*a))
    return calls


def test_expectation_reads_the_window_the_law_keeps(monkeypatch):
    # a catalog law's window is its closed form and a generic density is
    # probed once, on first use; a density the probe finds no mass in
    # raises, however often it is read
    calls = _counting_probes(monkeypatch)
    assert bf.moment(bf.normal(0.5, 1.5), 2) == pytest.approx(2.5, rel=1e-10)
    assert calls == []
    d = _generic(bf.normal(0.5, 1.5))
    assert [bf.moment(d, n) for n in (1, 2)] == pytest.approx([0.5, 2.5], rel=1e-10)
    assert len(calls) == 1
    far = _generic(bf.normal(1000, 1e-3))
    for _ in range(2):
        with pytest.raises(bf.NonIntegrable):
            bf.moment(far, 1)
    assert len(calls) == 3


def test_a_replaced_density_does_not_keep_the_old_window(monkeypatch):
    # the window is the constructor's, not an argument: a law cannot be
    # given one, and a replaced density is probed for its own
    with pytest.raises(TypeError):
        bf.Distribution(lo=-math.inf, hi=math.inf, density=bf.normal().density, window=(0, 1))
    d = bf.normal()
    assert d.effective_support() == pytest.approx((-8.5839, 8.5839), abs=1e-4)
    shifted = dataclasses.replace(d, density=bf.normal(40.0, 2.0).density)
    calls = _counting_probes(monkeypatch)
    assert isinstance(shifted._window, D._Lazy)  # the probe, not the old window
    lo, hi = shifted.effective_support()
    assert len(calls) == 1 and lo < 40.0 - 16.0 and 40.0 + 16.0 < hi
    assert bf.moment(shifted, 1) == pytest.approx(40.0, rel=1e-12)


def test_concurrent_first_reads_probe_a_generic_window_once(monkeypatch):
    calls = _counting_probes(monkeypatch)
    d = _generic(bf.normal(0.5, 1.5))
    windows = call_concurrently(d.effective_support, workers=6)
    assert len(calls) == 1 and len(set(windows)) == 1


# ---------------------------------------------------------------------------
# moments of all orders in one stacked pass
# ---------------------------------------------------------------------------

STACKED_TOL = 1e-12  # relative, against max(1, |m_p|): the stacked pass and moment


def _per_order(d, top):
    return np.array([bf.moment(d, p) for p in range(top + 1)])


STACKED_LAWS = [bf.normal(), bf.normal(40.0, 2.0), bf.exponential(0.2), bf.half_normal(),
                bf.uniform(-1.0, 2.0),
                bf.tilt(bf.normal(0.5, 1.5), lambda x: np.asarray(x) ** 2),
                bf.tilt(bf.exponential(1.5), lambda x: np.sqrt(np.abs(x))),
                bf.tilt(bf.normal(), lambda x: np.sqrt(np.abs(x)), weight_kinks=(0.0,)),
                bf.make_mixture([bf.normal(-1.0, 0.5), bf.uniform(0.0, 3.0)], [0.4, 0.6])]


@pytest.mark.parametrize("d", STACKED_LAWS, ids=lambda d: d.label)
def test_stacked_moments_agree_with_moment(d):
    # one panel pass for orders 1..8 agrees with one integral per order
    # within STACKED_TOL relative (seen: at most 3.2e-13)
    got, ref = D._moments(d, 8), _per_order(d, 8)
    assert got[0] == 1.0
    assert np.all(np.abs(got - ref) <= STACKED_TOL * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("d", [bf.from_atoms([(-1.5, 0.2), (0.3, 0.5), (2.0, 0.3)]),
                               bf.random_discrete(np.random.default_rng(5)),
                               bf.from_samples(np.random.default_rng(6).normal(size=5000))],
                         ids=["atoms", "random", "empirical"])
def test_stacked_moments_of_point_masses_are_bit_identical(d):
    # point masses take moment order by order: the same bits
    got, ref = D._moments(d, 8), _per_order(d, 8)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in ref]


def test_stacked_moments_of_a_mixture_without_a_density_sum_its_components():
    # the weights sum to 0.9999999999999999 in floats; the order-0 moment is 1.0
    comps = [bf.from_atoms([(-1.0, 0.5), (2.0, 0.5)]), bf.normal(0.5, 1.5), bf.dirac(0.25)]
    d = bf.make_mixture(comps, [0.3, 0.35, 0.35])
    assert d.density is None
    got, ref = D._moments(d, 6), _per_order(d, 6)
    want = sum(w * D._moments(c, 6) for c, w in zip(comps, (0.3, 0.35, 0.35)))
    assert got[0] == 1.0 and np.array_equal(got[1:], want[1:])
    assert np.all(np.abs(got - ref) <= STACKED_TOL * np.maximum(1.0, np.abs(ref)))


def test_moments_about_a_far_center_are_taken_about_it():
    # point masses sum (x - c)^p exactly (here every term is exact), and a
    # mixture without a density takes its components' moments about c:
    # raw moments shifted to c cancelled (3.6e-3 off on the fourth moment of
    # the mixture; measured 3.6e-15 now, the normal's pass)
    atoms = bf.from_atoms([(999.0, 0.25), (1000.5, 0.5), (1001.0, 0.25)])
    want = [float(sum(Fraction(w) * (Fraction(x) - 1000) ** p for x, w in atoms.atoms))
            for p in range(7)]
    assert D._moments(atoms, 6, 1000.0).tolist() == want
    d = bf.make_mixture([bf.from_atoms([(999.0, 0.5), (1001.0, 0.5)]), bf.normal(1000.5, 0.01)],
                        [0.5, 0.5])
    assert d.density is None and d.components is not None
    half, about = Fraction(1, 2), normal_about(1000.5, 0.01, 1000)
    want = [float(half * (half * ((-1) ** p + 1) + about(p))) for p in range(5)]
    np.testing.assert_allclose(D._moments(d, 4, 1000.0), want, rtol=1e-13, atol=0)


def test_stacked_moments_of_a_singular_tilt_take_the_fallback_row_by_row(fallbacks):
    # 1/sqrt|x - c| leaves slivers open at c: integrate_fn values each of
    # them at most once per order, and only for an order whose error on the
    # panel it halves exceeds the whole tolerance; the higher orders, small
    # near c, keep the rule.  Both routes rest on integrate_fn there, so
    # they agree within the quadrature tolerance, ABS_TOL + REL_TOL |m_p|
    c = 0.0123
    d = bf.tilt(bf.uniform(-1.0, 1.1), lambda x: 1.0 / np.sqrt(np.abs(x - c)))
    fallbacks.clear()
    got = D._moments(d, 8)
    slivers = sorted(set(fallbacks))
    assert slivers and len(slivers) <= len(fallbacks) < 8 * len(slivers)
    assert all(max(abs(lo - c), abs(hi - c)) < 1e-6 for lo, hi in slivers)
    ref = _per_order(d, 8)
    assert np.all(np.abs(got - ref) <= D.ABS_TOL + D.REL_TOL * np.abs(ref))


@pytest.mark.parametrize("d", [bf.normal(0.3, 1.2), bf.normal(-40.0, 2.0), bf.exponential(0.2),
                               bf.negative_half_normal(0.7),
                               bf.tilt(bf.normal(), lambda x: 1.0 + np.asarray(x) ** 2)],
                         ids=lambda d: d.label)
def test_stacked_window_is_the_hull_of_the_single_row_windows(d):
    rows = [lambda x, p=p: d.density(x) * x ** p for p in range(1, 9)]
    stack = lambda x: np.stack([f(x) for f in rows])
    windows = [D._effective_bounds(f, d.lo, d.hi) for f in rows]
    hull = (min(a for a, _ in windows), max(b for _, b in windows))
    assert [x.hex() for x in D._effective_bounds(stack, d.lo, d.hi)] == [x.hex() for x in hull]
    # one row keeps the single integrand's window
    assert D._effective_bounds(lambda x: rows[1](x)[None], d.lo, d.hi) == windows[1]


def test_stacked_moments_raise_when_one_row_has_not_decayed():
    # density 3/4 (1 + x^2)^(-5/2): x^2 f decays below the tail threshold by
    # |x| ~ 1e6, x^3 f does not
    d = bf.Distribution(lo=-math.inf, hi=math.inf,
                        density=lambda x: 0.75 * (1.0 + np.asarray(x) ** 2) ** -2.5)
    assert D._moments(d, 2)[2] == pytest.approx(0.5, rel=1e-9)
    for route in (lambda: D._moments(d, 3), lambda: bf.moment(d, 3)):
        with pytest.raises(bf.NonIntegrable):
            route()
    with pytest.raises(bf.NonIntegrable):  # the probe finds no mass at all
        D._moments(_generic(bf.normal(1000, 1e-3)), 4)


def test_a_tilt_draws_from_its_own_window():
    # e^{7x} tilts normal() to N(7, 1): the inverse-CDF table spans the
    # window the tilt's normaliser pass widened to, not the normal's
    # [-8.58, 8.58] (where 4e5 draws had mean 6.881 and max 8.5957)
    law = bf.tilt(bf.normal(), lambda x: np.exp(7.0 * np.asarray(x, dtype=float)))
    assert law.effective_support()[1] > 7.0 + 8.58
    np.testing.assert_allclose(D._moments(law, 2), [1.0, 7.0, 50.0], rtol=1e-12)
    draws = bf.sample(law, bf.RandomSource(20261019), 400_000)
    assert abs(draws.mean() - 7.0) <= 5.0 / math.sqrt(draws.size)
    assert draws.max() > 8.6


@pytest.mark.parametrize("d", [bf.normal(), bf.normal(0.3, 1e-3), bf.normal(-40.0, 2.0),
                               bf.normal(1000.0, 7.0), bf.normal(0.0, 1e3), bf.half_normal(1.2),
                               bf.negative_half_normal(0.7), bf.exponential(1.0),
                               bf.exponential(0.2)], ids=lambda d: d.label)
def test_a_constant_tilt_keeps_its_law_s_window(d):
    # the density is TAIL_EPS of its peak at its window's ends only up to
    # rounding (1 + 3.8e-15 on normal()): the density itself takes no ladder
    # step (on normal() it took one, from +-8.5839 to +-9.4293)
    for c in (1.0, 2.5):
        law = bf.tilt(d, lambda x: np.full(np.shape(x), c))
        assert [x.hex() for x in law.effective_support()] == [x.hex() for x in d.effective_support()]


def _infinite_seeds():
    """The seed laws of the continuous-cold transforms on infinite supports:
    the zero-bias normal's, the exponential equilibrium's, the half-normal
    mixture's and the B0 = 1 tilt of the second-order transform."""
    zero = bf.zero_bias_spec()
    halves = bf.make_mixture([bf.half_normal(1.2), bf.negative_half_normal(1.2)], [0.3, 0.7])
    equilibrium = bf.bias(bf.exponential(1.0), bf.sign_spec(0.0))
    return {"normal-zero-bias": bf.bias(bf.normal(), zero).recipe.seed_law,
            "exponential-equilibrium": equilibrium.recipe.seed_law,
            "half-normal-mixture": bf.bias(halves, zero).recipe.seed_law,
            "second-order-b0": bf.tilt(bf.normal(), lambda x: np.ones_like(np.asarray(x, float)))}


@pytest.mark.parametrize("name", sorted(_infinite_seeds()))
def test_stacked_moments_from_a_kept_window_agree_with_quad(name):
    # the seed keeps the window its normaliser pass found, and the stacked
    # pass widens it for x^p: scipy's quad from the tail probe's own window
    # agrees order by order
    seed = _infinite_seeds()[name]
    got = D._moments(seed, 4)
    for p in range(1, 5):
        ref = bf.integrate_fn(lambda x, p=p: seed.density(x) * x ** p, seed.lo, seed.hi,
                              points=seed.kinks)
        assert abs(got[p] - ref) <= STACKED_TOL * max(1.0, abs(ref)), p


def test_stacked_moments_widen_the_exponential_equilibrium_window(monkeypatch):
    # the seed x e^{-x} keeps the window of its normaliser pass, [0, 42.4];
    # x^p x e^{-x} decays past it for high p, and the stacked pass takes in
    # the ladder's panels until every order has: its moments (p + 1)! then
    # hold to 1e-12 (cut at the kept window, the order-12 one is off by 1.2e-7)
    seed = _infinite_seeds()["exponential-equilibrium"]
    lo, hi = seed.effective_support()
    powers = D._running_products(D.as_array_fn(seed.density), lambda x: x, 12, start=1)
    edges = D._start_panels(powers, (lo, hi), seed.lo, seed.hi, seed.kinks)[0]
    assert edges[0] == lo == 0.0 and edges[-1] > hi + 20.0
    want = np.array([math.factorial(p + 1) for p in range(13)], dtype=float)
    np.testing.assert_allclose(D._moments(seed, 12), want, rtol=1e-12)
    calls = _counting_probes(monkeypatch)
    # a weight whose tilt decays like 1 / x^2 has not decayed by |x| ~ 1e6,
    # and the far ladder overflows e^x: the normaliser pass raises
    with pytest.raises(bf.NonIntegrable):
        bf.tilt(bf.exponential(1.0), lambda x: np.exp(x) / (1.0 + np.asarray(x, float) ** 2))
    assert calls == []


def _cold_transforms():
    """The nine transforms of catalog laws that the benchmark's
    continuous-cold workload builds."""
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zero = bf.SignChangeSpec(lambda x: np.asarray(x, dtype=float), bf.NodeSet((0.0,)))
    return [*(bf.bias(X, spec) for _, X, spec in cold_bias_cases()),
            bf.bias_to_order(bf.uniform(-1.0, 1.0), bf.SignChangeSpec(ones), 2),
            bf.second_order_transform(bf.normal(), ones, zero)]


def test_stacked_recipe_moments_probe_and_pass_once_per_density_seed(monkeypatch):
    # seven one-stage records, one lift (its base to order 6) and one
    # two-part mixture: ten density seed laws.  Each reads the moments its
    # construction's pass recorded: the seven records and the mixture's
    # one-node part to order 4, the lift's base and the mixture's
    # second-difference part to order 6, the chain's m - k past 4 (10
    # passes when each took one of its own, 44 when each order integrated
    # alone), so no panel pass and no tail probe
    transforms = _cold_transforms()
    calls = {"probe": 0, "panels": 0}
    for name, key in (("_effective_bounds", "probe"), ("_panels", "panels")):
        def counted(*args, fn=getattr(D, name), key=key, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(D, name, counted)
    for t in transforms:
        mom = bf.recipe_moments(t.recipe, 4)
        assert mom[0] == 1.0 and np.isfinite(mom).all()
    assert calls == {"probe": 0, "panels": 0}


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_dirac(rng):
    d = bf.from_atoms([(3.0, 1.0)])
    assert np.array_equal(bf.sample(d, rng, 5), np.full(5, 3.0))


def test_sample_uniform_clt_band():
    n = 100_000
    draws = bf.sample(bf.uniform(0, 1), bf.RandomSource(17), n)
    sigma = math.sqrt(1 / 12)
    assert abs(draws.mean() - 0.5) < 4 * sigma / math.sqrt(n)


def test_sample_exponential_ks():
    n = 100_000
    draws = bf.sample(bf.exponential(1.0), bf.RandomSource(23), n)
    stat = bf.ks_statistic(draws, lambda t: 1 - np.exp(-t))
    assert stat < bf.ks_critical(n, 0.01)


def test_sample_determinism():
    for d in (bf.uniform(0, 1), bf.normal(), bf.from_atoms([(0, 0.25), (1, 0.75)])):
        a = bf.sample(d, bf.RandomSource(99), 1000)
        b = bf.sample(d, bf.RandomSource(99), 1000)
        assert np.array_equal(a, b)


def test_density_only_has_no_sampler(rng):
    d = bf.Distribution(lo=0, hi=1, density=lambda x: np.ones_like(x))
    with pytest.raises(bf.NoSampler):
        bf.sample(d, rng, 3)


# ---------------------------------------------------------------------------
# the normal quantile (AS241) against the standard library and scipy
# ---------------------------------------------------------------------------

def _ulps(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


def test_normal_quantile_matches_the_standard_library():
    # NormalDist.inv_cdf is computed by the standard library, one point at a
    # time: a log grid deep into both tails and a linear grid in between
    ps = np.concatenate((np.logspace(-300, math.log10(0.5), 4000),
                         1.0 - np.logspace(-16, math.log10(0.5), 4000),
                         np.linspace(0.0, 1.0, 503)[1:-1]))
    exact = np.array([NormalDist().inv_cdf(p) for p in ps.tolist()])
    assert _ulps(D._ndtri(ps), exact).max() <= 4


def test_normal_quantile_matches_scipy():
    from scipy.special import ndtri
    u = np.random.default_rng(41).random(1_000_000)
    assert _ulps(D._ndtri(u), ndtri(u)).max() <= 8


def test_normal_quantile_edges():
    assert D._ndtri(0.0) == -math.inf and D._ndtri(1.0) == math.inf
    assert math.isnan(D._ndtri(math.nan))
    assert all(math.isnan(D._ndtri(p)) for p in (-0.25, 1.5))
    x = D._ndtri(np.array(0.975))
    assert type(x) is float and x == pytest.approx(NormalDist().inv_cdf(0.975), rel=1e-15)
    out = D._ndtri(np.array([[0.0, 0.5], [math.nan, 1.0]]))
    assert out.shape == (2, 2) and out[0, 0] == -math.inf and out[0, 1] == 0.0
    assert math.isnan(out[1, 0]) and out[1, 1] == math.inf


@pytest.mark.parametrize("d, transform", [
    (bf.normal(1.0, 2.0), lambda u: 1.0 + 2.0 * D._ndtri(u)),
    (bf.half_normal(1.5), lambda u: 1.5 * D._ndtri(0.5 * (1.0 + u))),
    (bf.negative_half_normal(1.5), lambda u: -1.5 * D._ndtri(0.5 * (1.0 + u))),
], ids=["normal", "half-normal", "negative-half-normal"])
def test_normal_family_draws_one_uniform_each(d, transform):
    rs = bf.RandomSource(6)
    draws = bf.sample(d, rs, 1000)
    assert rs.position == 1000
    assert np.array_equal(draws, transform(bf.RandomSource(6).uniform(1000)))


@pytest.mark.parametrize("sigma", [0.7, 1.5])
def test_negative_half_normal_cdf_is_twice_the_normal_cdf_below_zero(sigma):
    d = bf.negative_half_normal(sigma)
    xs = np.concatenate((np.linspace(-9 * sigma, 0.0, 401), [-1e-300, 5e-324, 0.5, 7.0]))
    want = np.where(xs < 0, 2 * norm.cdf(xs / sigma), 1.0)
    assert np.allclose(d.cdf(xs), want, rtol=1e-14, atol=0.0)
    # and against the trapezoid CDF of its density alone: the trapezoid and the
    # linear reading between knots, h^2/12 + h^2/8 times max|f'|, give 1.1e-7
    table = bf.numeric_cdf(dataclasses.replace(d, cdf=None))
    assert np.max(np.abs(table(xs) - want)) < 2e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sorted_unique_is_np_unique(seed):
    rng = np.random.default_rng(seed)
    pool = np.concatenate((rng.normal(size=50), [0.0, -0.0, 1e-300, -np.inf, np.inf]))
    xs = rng.choice(pool, size=2000)
    assert np.array_equal(D._sorted_unique(xs), np.unique(xs))
    assert np.array_equal(D._sorted_unique(xs[:1]), xs[:1])


# ---------------------------------------------------------------------------
# table lookups through a guide table: the same values as in draw order
# ---------------------------------------------------------------------------

def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _node_product(x):
    arr = np.asarray(x, dtype=float)
    return (arr + 0.5) * (arr - 0.5)


@pytest.fixture(scope="module")
def sampled_laws():
    U = bf.uniform(-1, 1)
    samples = np.random.default_rng(4).normal(0.3, 1.1, 50_000)
    k2 = bf.SignChangeSpec(_node_product, bf.NodeSet((-0.5, 0.5)))
    xplus = bf.SignChangeSpec(bf.plus_part, bf.NodeSet((0.0,)), kinks=(0.0,))
    atoms_plus_uniform = bf.make_mixture([bf.from_atoms([(0.0, 0.5), (1.0, 0.5)]), U],
                                         [0.5, 0.5])
    return {
        "seed-and-shrink": bf.bias(U, k2).law,
        "inverse-cdf-tilt": bf.tilt(bf.exponential(1.0), lambda x: np.asarray(x, float)),
        "order-2-lift": bf.bias_to_order(U, bf.unit_bias_spec(), 2).law,
        "second-order-mixture": bf.second_order_transform(bf.normal(), _ones,
                                                          bf.zero_bias_spec()).law,
        "empirical-bootstrap": bf.bias(bf.from_samples(samples), bf.zero_bias_spec()).law,
        "x-plus one-node": bf.bias(U, xplus).law,
        "flat-cdf tilt": bf.tilt(U, bf.plus_part, weight_kinks=(0.0,)),
        "atoms-plus-uniform one-node": bf.bias(atoms_plus_uniform, bf.zero_bias_spec()).law,
        "5e4-atom empirical tilt": bf.tilt(bf.from_samples(samples),
                                           lambda x: 1.0 + np.asarray(x, float) ** 2),
    }


@pytest.mark.parametrize("name", [
    "seed-and-shrink", "inverse-cdf-tilt", "order-2-lift", "second-order-mixture",
    "empirical-bootstrap", "x-plus one-node", "flat-cdf tilt",
    "atoms-plus-uniform one-node", "5e4-atom empirical tilt"])
def test_sorted_lookups_draw_bit_identical(sampled_laws, name, monkeypatch):
    # the guide-table draws against the draw-order reference on the same uniforms
    law = sampled_laws[name]
    n = 200_000
    guided = bf.sample(law, bf.RandomSource(11), n)
    lookups = []

    def in_draw_order(cum, xs, u, linear, guide=None):
        lookups.append(np.size(u))
        return np.interp(u, cum, xs) if linear else xs[np.searchsorted(cum, u, side="right")]

    monkeypatch.setattr(D, "_lookup", in_draw_order)
    in_draw_order_draws = bf.sample(law, bf.RandomSource(11), n)
    assert lookups  # the sampler reads a table through the helper
    assert np.array_equal(guided, in_draw_order_draws)


def _step_density(x):
    return np.where(np.asarray(x, dtype=float) < 0.3, 0.5, 1.5)


@pytest.mark.parametrize("table", [
    D.TabulatedDensity.from_callable(bf.plus_part, -1, 1, knots=(0.0,)),  # flat CDF on [-1, 0]
    D.TabulatedDensity.from_callable(_step_density, -1, 1, knots=(0.3,)),  # jump at 0.3
], ids=["flat-cdf", "jump"])
def test_ppf_equals_interp_at_every_table_value(table):
    u = np.concatenate((np.random.default_rng(5).permutation(table.cum), [0.0]))
    assert np.array_equal(table.ppf(u), np.interp(u, table.cum, table.xs))


def test_ppf_keeps_scalar_type_and_array_shape():
    table = D.TabulatedDensity.from_callable(_step_density, -1, 1, knots=(0.3,))
    for u in (0.3, np.float64(0.3), np.array(0.3)):
        ref = np.interp(u, table.cum, table.xs)
        out = table.ppf(u)
        assert type(out) is type(ref) and out == ref
    u = np.random.default_rng(6).random((40, 50))
    out = table.ppf(u)
    assert out.shape == (40, 50)
    assert np.array_equal(out, np.interp(u, table.cum, table.xs))


def test_ppf_is_interp_on_any_input_without_warnings():
    table = D.TabulatedDensity.from_callable(_step_density, -1, 1, knots=(0.3,))
    odd = np.array([np.nan, -0.5, 1.5, np.inf, -np.inf, 0.0, 1.0, 0.3, -0.0, 1e300, -1e300])
    grid = np.random.default_rng(7).uniform(-0.5, 1.5, (30, 40))
    grid[::7, ::5] = np.nan
    frozen = np.random.default_rng(8).random(1000)
    frozen.setflags(write=False)
    cases = [odd, np.array([]), grid, grid.T, frozen]
    for u in cases:
        ref = np.interp(u, table.cum, table.xs)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            out = table.ppf(u)
        assert out.shape == ref.shape
        assert np.array_equal(out, ref, equal_nan=True)
    assert not frozen.flags.writeable


def _around(cum):
    """Every cumulative weight and one ulp either side, with 0, inside [0, 1)."""
    u = np.concatenate((cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf),
                        [0.0, np.nextafter(1.0, 0.0)]))
    return u[(u >= 0.0) & (u < 1.0)]


def _tilt_table(base, w, kinks=()):
    """The inverse-CDF table that ``tilt(base, w)`` draws from."""
    law = bf.tilt(base, w, weight_kinks=kinks)
    return D.TabulatedDensity.from_callable(law.density, *base.effective_support(),
                                            D.INVERSE_CDF_GRID, knots=law.kinks)


@pytest.mark.parametrize("size", [1, 2, 3, 64, 1000, 50_000])
def test_guide_holds_the_counts_and_flags_the_crowded_buckets(size):
    rng = np.random.default_rng(size)
    ws = rng.random(size) ** 4  # uneven weights crowd some buckets
    cum = np.cumsum(ws / ws.sum())
    cum[-1] = 1.0
    g, scale = D._guide(cum)
    assert g.dtype == (np.int16 if size < 2 ** 15 else np.int32)
    assert scale == g.size and scale > 2 * size
    edges = np.arange(g.size + 1) / scale
    count = np.searchsorted(cum, edges, side="right")  # #{cum <= b/K}
    crowded = count[1:] - count[:-1] >= 2  # two or more weights in (b/K, (b+1)/K]
    assert np.array_equal(g < 0, crowded)
    assert np.array_equal(g[~crowded], count[:-1][~crowded])


@pytest.mark.parametrize("size", [1, 2, 3, 64, 1000, 50_000])
def test_atom_lookup_is_searchsorted_at_every_weight(size):
    rng = np.random.default_rng(size)
    ws = rng.random(size) ** 4
    ws[::5] = 0.0 if size > 1 else 1.0  # repeated cumulative weights
    cum = np.cumsum(ws / ws.sum())
    cum[-1] = 1.0
    xs = np.sort(rng.normal(size=size))
    u = np.concatenate((_around(cum), rng.random(3 * D._LOOKUP_BLOCK + 5)))
    assert np.array_equal(D._lookup(cum, xs, u, linear=False, guide=D._guide(cum)),
                          xs[np.searchsorted(cum, u, side="right")])


def test_one_atom_draws_its_location_from_u_zero_on():
    law = bf.dirac(-2.5)
    cum = np.array([1.0])
    u = np.array([0.0, 5e-324, 0.5, np.nextafter(1.0, 0.0)])
    assert np.array_equal(D._lookup(cum, law.locs, u, linear=False, guide=D._guide(cum)),
                          np.full(4, -2.5))
    assert np.array_equal(bf.sample(law, bf.RandomSource(1), 1000), np.full(1000, -2.5))


def test_atom_lookup_when_a_weight_before_the_last_exceeds_one():
    # the masses sum to 1 + 5e-13, inside ATOM_MASS_TOL; the last cumulative
    # weight is set to 1.0, so the one before it exceeds it
    law = bf.from_atoms([(-1.0, 0.5), (0.0, 0.5 + 4e-13), (2.0, 1e-13)])
    cum = np.cumsum(law.masses)
    assert cum[1] > 1.0
    cum[-1] = 1.0
    u = np.concatenate((_around(cum), [0.5, 1.0 - 1e-13, np.nextafter(1.0, 0.0)],
                        np.random.default_rng(9).random(1000)))
    ref = law.locs[np.searchsorted(cum, u, side="right")]
    assert np.array_equal(D._lookup(cum, law.locs, u, linear=False, guide=D._guide(cum)), ref)
    assert set(ref.tolist()) == {-1.0, 0.0}  # the last atom is out of reach
    n = 100_000
    rs, ref_rs = bf.RandomSource(15), bf.RandomSource(15)
    draws = bf.sample(law, rs, n)
    assert np.array_equal(draws, law.locs[np.searchsorted(cum, ref_rs.uniform(n), side="right")])


@pytest.mark.parametrize("name", ["flat-cdf", "crowded-tail", "jump", "uniform"])
def test_table_lookup_is_interp_at_every_knot(name):
    if name == "flat-cdf":  # cum is 0.0 on the whole of [-1, 0]
        table = _tilt_table(bf.uniform(-1, 1), bf.plus_part, (0.0,))
        assert np.count_nonzero(table.cum == 0.0) > 4000
    elif name == "crowded-tail":  # thousands of knots share the last 2^-16 of mass
        table = _tilt_table(bf.exponential(1.0), lambda x: np.asarray(x, float))
        assert np.count_nonzero(table.cum > 1.0 - 2.0 ** -16) > 4000
        g, _ = D._guide(table.cum[1:])
        assert g[-1] == -1
    elif name == "jump":
        table = D.TabulatedDensity.from_callable(_step_density, -1, 1, knots=(0.3,))
    else:
        table = D.TabulatedDensity.from_callable(lambda x: np.ones_like(x), 0, 1, n=257)
    rng = np.random.default_rng(10)
    tail = 1.0 - 2.0 ** -16 * rng.random(2000)  # the last bucket of the finest guide
    u = np.concatenate((_around(table.cum), tail, rng.random(2 * D._LOOKUP_BLOCK + 3)))
    ref = np.interp(u, table.cum, table.xs)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        out = D._lookup(table.cum, table.xs, u, linear=True, guide=D._guide(table.cum[1:]))
        assert np.array_equal(table.ppf(u), ref)
    assert np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))


def test_table_lookup_keeps_a_negative_zero_knot():
    # np.interp returns the knot's own value at a knot, -0.0 included
    xs = np.array([-1.0, -0.0, 1.0])
    table = D.TabulatedDensity(xs, np.full(3, 0.5), np.array([0.0, 0.5, 1.0]), 1.0)
    u = np.array([0.0, 0.25, 0.5, 0.75])
    out = table.ppf(u)
    assert np.array_equal(out, np.interp(u, table.cum, xs))
    assert np.signbit(out[2])


@pytest.fixture
def guide_builds(monkeypatch):
    """The size of every guide table built."""
    builds = []
    build = D._guide

    def counted(cum):
        builds.append(cum.size)
        return build(cum)

    monkeypatch.setattr(D, "_guide", counted)
    return builds


def _fresh_guided_laws():
    """A tilt, read through its inverse-CDF table, and an atom law; neither
    has drawn yet."""
    atoms = np.random.default_rng(12).random(300)
    return {
        "tilt-table": bf.tilt(bf.exponential(1.0), lambda x: np.asarray(x, float)),
        "atom-law": bf.from_atoms(zip(np.arange(300.0), atoms / atoms.sum())),
    }


@pytest.mark.parametrize("name", ["tilt-table", "atom-law"])
def test_warm_draws_read_one_kept_guide(guide_builds, name):
    law = _fresh_guided_laws()[name]
    rs = bf.RandomSource(13)
    for _ in range(5):
        bf.sample(law, rs, 1000)
    assert len(guide_builds) == 1


def test_table_read_as_density_and_cdf_builds_no_guide(guide_builds):
    table = D.TabulatedDensity.from_callable(_step_density, -1, 1, knots=(0.3,))
    table.pdf(np.linspace(-1, 1, 101))
    table.cdf(np.linspace(-1, 1, 101))
    table.ppf(0.4)
    assert guide_builds == []
    for _ in range(2):
        table.ppf(np.array([0.1, 0.4]))
    assert guide_builds == [table.cum.size - 1]


@pytest.mark.parametrize("name", ["tilt-table", "atom-law"])
def test_concurrent_first_draws_build_one_guide(guide_builds, name):
    law = _fresh_guided_laws()[name]
    seeds, lock = iter(range(100, 108)), threading.Lock()

    def first_draw():
        with lock:
            seed = next(seeds)
        return seed, bf.sample(law, bf.RandomSource(seed), 20_000)

    results = call_concurrently(first_draw, workers=8)
    assert len(guide_builds) == 1
    assert sorted(seed for seed, _ in results) == list(range(100, 108))
    for seed, draws in results:
        assert np.array_equal(draws, bf.sample(law, bf.RandomSource(seed), 20_000))
    assert len(guide_builds) == 1


@pytest.mark.parametrize("size", [2 ** 15 - 1, 2 ** 15])
def test_guide_index_width_follows_the_weights(size):
    # fewer than 2^15 weights keep an int16 guide, 2^15 or more an int32 one
    index = np.int16 if size < 2 ** 15 else np.int32
    table = D.TabulatedDensity.from_callable(lambda x: 1.0 + np.sin(7 * x) ** 2, -1, 1,
                                             n=size + 1)
    rng = np.random.default_rng(size)
    u = np.concatenate((_around(table.cum), rng.random(2 * D._LOOKUP_BLOCK + 3)))
    assert np.array_equal(table.ppf(u), np.interp(u, table.cum, table.xs))
    assert table._lookup_guide.get()[0].dtype == index
    ws = rng.random(size) ** 4
    law = bf.from_atoms(zip(np.arange(float(size)), ws / ws.sum()))
    cum = np.cumsum(law.masses)
    cum[-1] = 1.0
    assert D._guide(cum)[0].dtype == index
    u = bf.RandomSource(14).uniform(100_000)
    assert np.array_equal(bf.sample(law, bf.RandomSource(14), 100_000),
                          law.locs[np.searchsorted(cum, u, side="right")])


@pytest.mark.parametrize("size", [1, 2, 40, 255, 256, 300])
def test_bin_index_is_searchsorted_at_every_cumulative_weight(size):
    rng = np.random.default_rng(size)
    ws = rng.random(size)
    ws[::3] = 0.0  # repeated cumulative weights
    ws[-1] = 1.0
    cum = np.cumsum(ws / ws.sum())
    cum[-1] = 1.0
    inner = cum[:-1]
    u = np.concatenate((inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
                        [0.0, np.nextafter(1.0, 0.0)], rng.random(1000)))
    u = u[(u >= 0.0) & (u < 1.0)]
    assert np.array_equal(D._bin_index(cum, u), np.searchsorted(cum, u, side="right"))


def _mixture_draws_by_searchsorted(law, rs, n):
    """A mixture's draws with the component picked by np.searchsorted."""
    cum = np.cumsum(law.weights)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rs.uniform(n), side="right")
    out = np.empty(n)
    for j, c in enumerate(law.components):
        m = idx == j
        if m.any():
            out[m] = bf.sample(c, rs, int(m.sum()))
    return out


@pytest.mark.parametrize("parts", [2, 3, 40, 256])
def test_mixture_picks_components_as_searchsorted_does(parts):
    rng = np.random.default_rng(parts)
    ws = rng.random(parts)
    ws[parts // 2] = 0.0  # a zero weight repeats a cumulative weight
    ws /= ws.sum()
    law = bf.make_mixture([bf.uniform(j, j + 1) for j in range(parts)], ws)
    n = 200_000
    rs, ref_rs = bf.RandomSource(12), bf.RandomSource(12)
    draws = bf.sample(law, rs, n)
    assert np.array_equal(draws, _mixture_draws_by_searchsorted(law, ref_rs, n))
    assert not np.any(np.floor(draws) == parts // 2)
    assert np.array_equal(rs.uniform(8), ref_rs.uniform(8))  # the same uniforms consumed


def test_mixture_never_draws_a_trailing_zero_weight_component():
    # the positive weights sum to 1 - 1e-13, so a uniform above that passes
    # every positive weight's cumulative sum; it must not pick the last part
    law = bf.make_mixture([bf.uniform(-1, 0), bf.uniform(0, 1), bf.uniform(5, 6)],
                          [0.5, 0.5 - 1e-13, 0.0])

    class Given(bf.RandomSource):  # the first three uniforms are given
        def uniform(self, n):
            if self.position == 0 and n == 3:
                self.position = 3
                return np.array([0.25, 1.0 - 5e-14, np.nextafter(1.0, 0.0)])
            return super().uniform(n)

    draws = bf.sample(law, Given(14), 3)
    assert np.all((draws >= -1.0) & (draws <= 1.0))
    assert np.array_equal(draws >= 0.0, [False, True, True])


@pytest.mark.parametrize("atoms", [1, 3, 64, 50_000])
def test_atom_draws_pick_atoms_as_searchsorted_does(atoms):
    rng = np.random.default_rng(atoms)
    ms = rng.random(atoms)
    law = bf.from_atoms(zip(rng.normal(size=atoms), ms / ms.sum()))
    cum = np.cumsum(law.masses)
    cum[-1] = 1.0
    n = 200_000
    rs, ref_rs = bf.RandomSource(13), bf.RandomSource(13)
    ref = law.locs[np.searchsorted(cum, ref_rs.uniform(n), side="right")]
    assert np.array_equal(bf.sample(law, rs, n), ref)
    assert np.array_equal(rs.uniform(8), ref_rs.uniform(8))


# ---------------------------------------------------------------------------
# tilting
# ---------------------------------------------------------------------------

def test_tilt_unit_weight_keeps_law():
    d = bf.uniform(-1, 1)
    t = bf.tilt(d, lambda x: np.ones_like(np.asarray(x, float)))
    xs = np.linspace(-1, 1, 21)
    assert np.allclose(t.density(xs), d.density(xs), atol=1e-12)
    assert bf.moment(t, 3) == pytest.approx(bf.moment(d, 3), abs=1e-10)


def test_tilt_uniform_positive_part_weight():
    # w(y) = y+ (y+1): normalizer E[w] = 5/12, density (12/5) y(y+1)/2 on [0,1]
    d = bf.uniform(-1, 1)
    w = lambda y: np.maximum(np.asarray(y, float), 0.0) * (np.asarray(y, float) + 1.0)
    z_oracle = quad(lambda y: max(y, 0) * (y + 1) * 0.5, -1, 1, points=[0])[0]
    assert z_oracle == pytest.approx(5 / 12, abs=1e-12)
    t = bf.tilt(d, w, weight_kinks=(0.0,))
    for y in (0.25, 0.5, 0.9):
        assert t.density(y) == pytest.approx((12 / 5) * y * (y + 1) / 2, rel=1e-9)
    assert t.density(-0.5) == 0.0


def test_tilt_cdf_is_its_inverse_cdf_table(monkeypatch):
    # Gamma(2) = tilt(exponential(1), x): its density, draws and CDF take one
    # table build, and numeric_cdf at any size reads that table's CDF
    builds = []
    build = D.TabulatedDensity.from_callable

    def counting(*args, **kwargs):
        builds.append(args[3] if len(args) > 3 else kwargs.get("n"))
        return build(*args, **kwargs)

    monkeypatch.setattr(D.TabulatedDensity, "from_callable", staticmethod(counting))
    t = bf.tilt(bf.exponential(1.0), lambda x: np.asarray(x, float))
    xs = np.linspace(*t.effective_support(), 200_001)
    t.density(xs)
    bf.sample(t, bf.RandomSource(5), 1000)
    gap = np.max(np.abs(bf.numeric_cdf(t, 513)(xs) - (1.0 - np.exp(-xs) * (1.0 + xs))))
    assert gap <= 5e-6  # 3.3e-6; a 513-point table of the density is off by 7.3e-4
    assert builds == [D.INVERSE_CDF_GRID]


def test_tilt_atoms_squared_weight_unchanged():
    d = bf.from_atoms([(-1, 0.5), (1, 0.5)])
    t = bf.tilt(d, lambda x: np.asarray(x, float) ** 2)
    assert t.atoms == d.atoms


def test_tilt_moment_reweighting_uniform():
    d = bf.uniform(0, 1)
    w = lambda x: np.asarray(x, float) ** 2
    t = bf.tilt(d, w)
    # E_nu[Y^n] = E[X^n w(X)] / E[w(X)]
    lhs = bf.moment(t, 3)
    rhs = bf.moment(d, 5) / bf.moment(d, 2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(atoms_strategy())
def test_tilt_moment_reweighting_atoms(d):
    w = lambda x: np.asarray(x, float) ** 2 + 0.5
    t = bf.tilt(d, w)
    for n in (1, 2, 3):
        num = sum(m * (x**2 + 0.5) * x**n for x, m in d.atoms)
        den = sum(m * (x**2 + 0.5) for x, m in d.atoms)
        assert bf.moment(t, n) == pytest.approx(num / den, rel=1e-12, abs=1e-12)


def test_tilt_negative_weight_rejected():
    with pytest.raises(bf.NegativeWeight):
        bf.tilt(bf.uniform(-1, 1), lambda x: np.asarray(x, float))


def test_tilt_zero_normalizer():
    d = bf.from_atoms([(-1, 0.5), (1, 0.5)])
    with pytest.raises(bf.ZeroNormalizer):
        bf.tilt(d, lambda x: np.zeros_like(np.asarray(x, float)))


def _nan_left_of_zero(x):
    with np.errstate(invalid="ignore"):
        return np.sqrt(np.asarray(x, float))


def _inf_left_of_zero(x):
    return np.where(np.asarray(x, float) < 0.0, np.inf, 1.0)


@pytest.mark.parametrize("w", [_nan_left_of_zero, _inf_left_of_zero])
@pytest.mark.parametrize("d", [bf.uniform(-1, 1), bf.from_atoms([(-1.0, 0.5), (1.0, 0.5)])],
                         ids=["density", "atoms"])
def test_tilt_refuses_a_weight_that_is_not_finite(d, w):
    # a NaN weight compares false with the negativity tolerance: it must not pass as valid
    with pytest.raises(bf.NegativeWeight, match=r"x=-1\.0"):
        bf.tilt(d, w)


def test_tilt_of_a_law_with_a_sampler_alone_raises_no_sampler():
    d = dataclasses.replace(bf.uniform(-1, 1), density=None, cdf=None)
    assert bf.sample(d, bf.RandomSource(1), 3).shape == (3,)
    with pytest.raises(bf.NoSampler, match="can be tilted"):
        bf.tilt(d, _ones)


def _one_plus_square(x):
    return 1.0 + np.asarray(x, float) ** 2


_BASE_LAWS = {
    "uniform": lambda: bf.uniform(-1, 1),
    "exponential": lambda: bf.exponential(2.0),
    "normal": lambda: bf.normal(0.5, 2.0),
    "half-normal": lambda: bf.half_normal(1.3),
    "negative-half-normal": lambda: bf.negative_half_normal(0.7),
    "dirac": lambda: bf.dirac(0.5),
    "from_atoms": lambda: bf.from_atoms([(-1.0, 0.25), (2.0, 0.75)]),
    "from_samples": lambda: bf.from_samples([0.1, -0.4, 1.3, 0.1]),
    "all-atom mixture": lambda: bf.make_mixture(
        [bf.dirac(0.0), bf.from_samples([1.0, 2.0])], [0.5, 0.5]),
    "all-density mixture": lambda: bf.make_mixture([bf.normal(), bf.exponential()], [0.3, 0.7]),
    "atoms-plus-density mixture": lambda: bf.make_mixture(
        [bf.from_atoms([(0.0, 0.5), (1.0, 0.5)]), bf.uniform(-1, 1)], [0.5, 0.5]),
}

_LIBRARY_LAWS = {
    **_BASE_LAWS,
    **{f"tilt of {name}": (lambda build=build: bf.tilt(build(), _one_plus_square))
       for name, build in _BASE_LAWS.items()},
    "bias k=0": lambda: bf.bias(bf.uniform(-1, 1), bf.unit_bias_spec()),
    "bias k=1": lambda: bf.bias(bf.uniform(-1, 1), bf.zero_bias_spec()),
    "bias k=2": lambda: bf.bias(bf.uniform(-1, 1),
                                bf.SignChangeSpec(_node_product, bf.NodeSet((-0.5, 0.5)))),
    "bias_to_order k=0 to m=2": lambda: bf.bias_to_order(bf.uniform(-1, 1),
                                                         bf.unit_bias_spec(), 2),
    "bias_to_order k=1 to m=3": lambda: bf.bias_to_order(bf.uniform(-1, 1),
                                                         bf.zero_bias_spec(), 3),
    "second_difference_transform": lambda: bf.second_difference_transform(
        bf.uniform(-1, 1), 0.0),
    "second_order_transform": lambda: bf.second_order_transform(
        bf.normal(), _ones, bf.zero_bias_spec()),
    "higher_order_transform": lambda: bf.higher_order_transform(
        bf.uniform(-1, 1),
        bf.SteinOperator(order=2, coeffs=(bf.unit_bias_spec(), bf.zero_bias_spec()))),
    "bias of a mixture": lambda: bf.bias(
        bf.make_mixture([bf.uniform(-1, 1), bf.normal()], [0.5, 0.5]), bf.zero_bias_spec()),
    "json family": lambda: bf.dist_from_json({"family": "normal", "params": {"std": 2}}),
    "json atoms": lambda: bf.dist_from_json({"atoms": [[0, 0.5], [2, 0.5]]}),
    "json empirical": lambda: bf.dist_from_json({"empirical": [0.5, 1.5, 1.5]}),
    "json empirical_csv": lambda: bf.dist_from_json({"empirical_csv": "samples.csv"}),
    "json mixture": lambda: bf.dist_from_json({"mixture": {"components": [
        {"family": "uniform", "params": {"lo": 0, "hi": 1}}, {"atoms": [[2, 1]]}],
        "weights": [0.25, 0.75]}}),
}


@pytest.mark.parametrize("name", list(_LIBRARY_LAWS))
def test_every_library_law_has_atoms_a_density_or_components(name, tmp_path, monkeypatch):
    # tilt has no route for a law with a sampler alone; no constructor,
    # transform or JSON form builds one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "samples.csv").write_text("x\n0.5\n1.5\n")
    built = _LIBRARY_LAWS[name]()
    law = getattr(built, "law", built)
    assert law.locs is not None or law.density is not None or law.components is not None


def test_tilted_density_is_elementwise_across_blocks_and_shapes():
    # the base density is evaluated block by block: every point, shape and
    # memory layout must give the values of a pointwise evaluation
    t = bf.tilt(bf.exponential(1.0), lambda x: np.asarray(x, dtype=float))
    xs = np.linspace(-1.0, 30.0, 3 * D._BLOCK + 7)
    flat = t.density(xs)
    assert np.array_equal(flat, np.concatenate([t.density(xs[i:i + 1000])
                                                for i in range(0, xs.size, 1000)]))
    grid = xs[:4 * 1000].reshape(4, 1000).T  # not C-contiguous
    assert np.array_equal(t.density(grid), flat[:4000].reshape(4, 1000).T)
    assert t.density(2.5) == t.density(np.array([2.5]))[0]


def test_tilt_empirical_becomes_atoms():
    d = bf.from_samples([0.0, 1.0, 1.0, 2.0])
    t = bf.tilt(d, lambda x: np.asarray(x, float))
    assert t.atoms is not None
    # weights proportional to x: masses 0, 1/4, 1/4, 2/4 -> {1: 1/2, 2: 1/2}
    assert t.atoms == ((1.0, 0.5), (2.0, 0.5))


def test_tilt_mixture_with_empirical_component():
    s = np.array([0.1, 0.5, 1.2, 2.0])
    mix = bf.make_mixture([bf.normal(), bf.from_samples(s)], [0.5, 0.5])
    t = bf.tilt(mix, lambda x: x**2)
    assert bf.expectation(t, lambda x: 1.0) == pytest.approx(1.0, abs=1e-9)
    # E_t[X] = E[X^3] / E[X^2] under the untilted mixture (normal: 0 and 1)
    expected = np.mean(s**3) / (1.0 + np.mean(s**2))
    assert bf.moment(t, 1) == pytest.approx(expected, rel=1e-9)


def test_tilt_drops_a_mixture_component_the_weight_vanishes_on():
    # x^2 is 0 on the atom at 0: that component's tilt has a zero normaliser,
    # so the tilt is the x^2-tilt of the uniform alone, density 3x^2/7 on [1, 2]
    square = lambda x: np.asarray(x, float) ** 2
    mix = bf.make_mixture([bf.dirac(0.0), bf.uniform(1.0, 2.0)], [0.5, 0.5])
    t = bf.tilt(mix, square)
    assert bf.moment(t, 1) == pytest.approx(45 / 28, rel=1e-12)
    xs = np.linspace(0.5, 2.5, 81)
    want = np.where((xs >= 1.0) & (xs <= 2.0), 3 * xs**2 / 7, 0.0)
    assert np.allclose(t.density(xs), want, rtol=1e-12, atol=0.0)
    assert np.array_equal(t.density(xs), bf.tilt(bf.uniform(1.0, 2.0), square).density(xs))


def test_bias_of_a_nested_mixture_slices_the_probe_by_component():
    # neither mixture has a density, so the probe points of the outer one
    # hold the inner one's atoms and grid first; E[X^2] = 0.25 * 0.09 + 0.25 + 0.5 / 3
    inner = bf.make_mixture([bf.dirac(0.3), bf.normal()], [0.5, 0.5])
    X = bf.make_mixture([inner, bf.uniform(-1.0, 1.0)], [0.5, 0.5])
    assert inner.density is None and X.density is None
    t = bf.bias(X, bf.zero_bias_spec())
    alpha = 0.25 * 0.09 + 0.25 + 0.5 / 3
    assert t.alpha == pytest.approx(alpha, rel=1e-12)
    seed = t.recipe.seed_law  # the x^2 tilt: each part weighed by its own normaliser
    assert seed.weights == pytest.approx((0.5 * (0.045 + 0.5) / alpha, 0.5 / 3 / alpha), rel=1e-12)
    assert seed.components[0].weights == pytest.approx((0.045 / 0.545, 0.5 / 0.545), rel=1e-12)


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------

def test_mixture_single_component_is_identity():
    d = bf.uniform(0, 1)
    assert bf.make_mixture([d], [1.0]) is d


def test_mixture_half_normals_reconstruct_normal():
    sig = 1.3
    mix = bf.make_mixture([bf.half_normal(sig), bf.negative_half_normal(sig)], [0.5, 0.5])
    z = bf.normal(0, sig)
    xs = np.linspace(-4, 4, 81)
    xs = xs[np.abs(xs) > 1e-9]  # the half-normal edge point itself
    assert np.allclose(mix.density(xs), z.density(xs), atol=1e-12)


def test_mixture_piecewise_density():
    mix = bf.make_mixture([bf.uniform(0, 1), bf.uniform(1, 2)], [0.25, 0.75])
    assert mix.density(0.5) == pytest.approx(0.25)
    assert mix.density(1.5) == pytest.approx(0.75)


def test_mixture_weight_validation():
    with pytest.raises(bf.WeightMismatch):
        bf.make_mixture([bf.uniform(0, 1)], [0.5, 0.5])
    with pytest.raises(bf.WeightMismatch):
        bf.make_mixture([bf.uniform(0, 1), bf.uniform(1, 2)], [0.6, 0.6])


@settings(max_examples=30, deadline=None)
@given(atoms_strategy(), atoms_strategy())
def test_mixture_moments_weighted_sums(d1, d2):
    mix = bf.make_mixture([d1, d2], [0.3, 0.7])
    for n in (1, 2, 3):
        expected = 0.3 * bf.moment(d1, n) + 0.7 * bf.moment(d2, n)
        assert bf.moment(mix, n) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_mixture_sampler_deterministic():
    mix = bf.make_mixture([bf.uniform(0, 1), bf.normal()], [0.4, 0.6])
    a = bf.sample(mix, bf.RandomSource(31), 500)
    b = bf.sample(mix, bf.RandomSource(31), 500)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# invariants: normalization, CDF endpoints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [
    bf.uniform(-1, 1),
    bf.exponential(1.0),
    bf.normal(),
    bf.half_normal(1.2),
    bf.negative_half_normal(0.8),
    bf.make_mixture([bf.uniform(0, 1), bf.uniform(1, 2)], [0.25, 0.75]),
])
def test_density_integrates_to_one(d):
    lo, hi = d.effective_support()
    total = bf.integrate_fn(lambda x: float(d.density(x)), lo, hi, points=d.kinks)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("d", [bf.uniform(-2, 3), bf.exponential(0.5), bf.normal(1, 2),
                               bf.half_normal(1.0)])
def test_cdf_endpoints_and_monotonicity(d):
    lo, hi = d.effective_support()
    xs = np.linspace(lo, hi, 200)
    cdf = d.cdf(xs)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert d.cdf(lo) == pytest.approx(0.0, abs=1e-9)
    assert d.cdf(hi) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# empirical laws and I/O
# ---------------------------------------------------------------------------

def test_empirical_moments_are_sample_averages(rng):
    values = [0.5, 1.0, 2.5, -1.0]
    d = bf.from_samples(values)
    assert d.density is None
    assert bf.moment(d, 2) == pytest.approx(np.mean(np.array(values) ** 2))
    draws = bf.sample(d, rng, 100)
    assert set(draws) <= set(values)


def test_atoms_validation():
    with pytest.raises(bf.InputError):
        bf.from_atoms([(0.0, 0.4), (1.0, 0.4)])  # masses sum to 0.8
    with pytest.raises(bf.InputError):
        bf.from_atoms([(0.0, -0.2), (1.0, 1.2)])


@pytest.mark.parametrize("build", [
    lambda: bf.from_atoms([(0.0, 1.0), (1.0, math.nan)]),
    lambda: bf.from_atoms([(math.inf, 0.5), (0.0, 0.5)]),
    lambda: bf.from_atoms([(0.0, 0.5), (math.nan, 0.5)]),
    lambda: bf.from_samples([0.0, math.inf]),
    lambda: bf.make_mixture([bf.normal(), bf.normal(1.0)], [math.nan, 1.0]),
], ids=["nan-mass", "inf-location", "nan-location", "inf-sample", "nan-mixture-weight"])
def test_non_finite_atoms_samples_and_weights_raise(build):
    with pytest.raises(bf.InputError):
        build()


@pytest.mark.parametrize("build", [
    lambda: bf.normal(0.0, math.nan),
    lambda: bf.normal(math.inf, 1.0),
    lambda: bf.uniform(0.0, math.inf),
    lambda: bf.uniform(-math.inf, 0.0),
    lambda: bf.exponential(math.inf),
    lambda: bf.exponential(math.nan),
    lambda: bf.half_normal(math.nan),
    lambda: bf.half_normal(math.inf),
    lambda: bf.negative_half_normal(math.nan),
], ids=["normal-nan-std", "normal-inf-mean", "uniform-inf-hi", "uniform-inf-lo",
        "exponential-inf-rate", "exponential-nan-rate", "half-normal-nan", "half-normal-inf",
        "negative-half-normal-nan"])
def test_catalog_constructors_reject_non_finite_parameters(build):
    # each of these used to build a law that drew NaN, inf or 0 without a word
    with pytest.raises(bf.InputError):
        build()


def test_empirical_csv_takes_one_header_and_refuses_later_bad_rows(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("1.0\n\n2.5\n")
    assert D.load_empirical_csv(path).samples.tolist() == [1.0, 2.5]
    path.write_text("\nx\n1.0\n2.5\n")
    assert D.load_empirical_csv(path).samples.tolist() == [1.0, 2.5]
    path.write_text("x\n1.0\n1.2.3\n2.0\n")  # used to load as [1, 2]
    with pytest.raises(bf.InputError, match="line 3"):
        D.load_empirical_csv(path)
    path.write_text("1.0\nx\n")
    with pytest.raises(bf.InputError, match="line 2"):
        D.load_empirical_csv(path)


def test_dist_from_json_and_csv(tmp_path):
    d = bf.dist_from_json({"family": "uniform", "params": {"lo": -1, "hi": 1}})
    assert d.lo == -1 and d.hi == 1
    d = bf.dist_from_json({"atoms": [[0, 0.5], [2, 0.5]]})
    assert d.atoms == ((0.0, 0.5), (2.0, 0.5))
    path = tmp_path / "samples.csv"
    path.write_text("x\n1.0\n2.0\n3.5\n")
    d = bf.dist_from_json({"empirical_csv": str(path)})
    assert d.samples.size == 3
    mix = bf.dist_from_json({"mixture": {"components": [
        {"family": "uniform", "params": {"lo": 0, "hi": 1}},
        {"family": "uniform", "params": {"lo": 1, "hi": 2}}], "weights": [0.25, 0.75]}})
    assert mix.density(1.5) == pytest.approx(0.75)
    with pytest.raises(bf.InputError):
        bf.dist_from_json({"family": "cauchy"})
    with pytest.raises(bf.InputError):
        bf.dist_from_json({"family": "uniform", "params": {"low": 0}})


def test_random_source_contract():
    rs = bf.RandomSource(7)
    assert rs.position == 0
    rs.uniform(10)
    assert rs.position == 10
    assert rs.derive(5).seed == 12


def test_random_source_position_is_not_an_argument():
    # every stream starts at position 0, so the position is no constructor argument
    with pytest.raises(TypeError):
        bf.RandomSource(7, 500)
    assert bf.RandomSource(7).position == 0


def test_random_source_equals_only_itself():
    # equal seed and position do not make equal streams: a derived source
    # reads seed + offset but draws its own child stream
    derived, seeded = bf.RandomSource(7).derive(5), bf.RandomSource(12)
    assert derived.seed == seeded.seed and derived.position == seeded.position
    assert derived != seeded
    assert bf.RandomSource(12) != bf.RandomSource(12)
    assert derived == derived


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_derived_streams_are_their_own(seed):
    # a derived stream is no seeded stream: not the one at seed + offset, and
    # not the two that a Monte Carlo report at this seed draws its sides from
    from biasforge.verify import LHS_SEED_OFFSET, RHS_SEED_OFFSET
    offset = LHS_SEED_OFFSET  # the offset the independent coupling derives with
    derived = bf.RandomSource(seed).derive(offset).uniform(64)
    for other in (seed + offset, seed + LHS_SEED_OFFSET, seed + RHS_SEED_OFFSET, seed):
        assert not np.array_equal(derived, bf.RandomSource(other).uniform(64))
    assert not np.array_equal(derived, bf.RandomSource(seed).derive(offset + 1).uniform(64))
    again = bf.RandomSource(seed)
    again.uniform(10)  # the parent's position does not move its children
    assert np.array_equal(derived, again.derive(offset).uniform(64))
