import hashlib
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

import biasforge as bf
import biasforge.distributions as D
import biasforge.transform as transform
from biasforge import NodeSet, PiecewisePoly, Polynomial, SignChangeSpec
from biasforge.verify import _lhs_polynomials
from conftest import call_concurrently
from biasforge.higher import ChainRecipe
from primitives import (PerWeightTailTable, TwoSumTailTable, array_moments, array_shift_moments,
                        array_step_normalizers, bias_in_three_passes, cold_bias_cases,
                        moment_via_coefficients, pass_count)


def x_plus_spec(node):
    return SignChangeSpec(bf.plus_part, NodeSet((node,)), kinks=(0.0,))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_zero_bias_on_uniform(uniform_sym):
    report = bf.validate_spec(bf.zero_bias_spec(), uniform_sym)
    assert report.passed


def test_validate_ambiguous_specs_both_pass(uniform_sym):
    assert bf.validate_spec(x_plus_spec(-1.0), uniform_sym).passed
    assert bf.validate_spec(x_plus_spec(0.0), uniform_sym).passed


def test_validate_misplaced_node_fails(uniform_sym):
    spec = SignChangeSpec(lambda x: np.asarray(x, float), NodeSet((1.0,)))
    report = bf.validate_spec(spec, uniform_sym)
    assert not report.passed
    assert report.worst_value < -1e-10
    assert 0.0 < report.worst_point < 1.0


def test_validate_accepts_grid_probe():
    spec = bf.zero_bias_spec()
    assert bf.validate_spec(spec, np.linspace(-5, 5, 100)).passed


@pytest.mark.parametrize("k", [0, 1])
def test_validate_spec_on_an_empty_probe_is_an_input_error(k):
    with pytest.raises(bf.InputError, match="at least one probe point"):
        bf.validate_spec(bf.random_valid_spec(np.random.default_rng(k), k), [])


def test_validation_probes_the_atoms_of_a_mixture_without_a_density():
    # the bias is negative only at the atom 0.3, which no support grid point
    # hits; the tilt checks each component's points, so validation must too
    X = bf.make_mixture([bf.from_atoms([(0.3, 1.0)]), bf.uniform(-1.0, 1.0)], [0.5, 0.5])
    spec = SignChangeSpec(lambda x: np.where(np.asarray(x, float) == 0.3, -0.5, 1.0))
    report = bf.validate_spec(spec, X)
    assert not report.passed
    assert (report.worst_point, report.worst_value) == (0.3, -0.5)
    with pytest.raises(bf.SignViolation):
        bf.bias(X, spec)


def test_density_mixture_with_a_gap_is_probed_on_its_components():
    # B = x^2 - 0.25 is negative only on (-0.5, 0.5), inside the gap between
    # the components, where the law has no mass: each component's points are
    # probed, not a grid of the hull, so bias and tilt both build
    comps = [bf.uniform(-1.0, -0.6), bf.uniform(0.6, 1.0)]
    X = bf.make_mixture(comps, [0.5, 0.5])
    spec = SignChangeSpec(lambda x: np.asarray(x, float) ** 2 - 0.25)
    alpha = sum(0.5 * bf.alpha_of(c, spec) for c in comps)
    assert alpha == pytest.approx(1.96 / 3 - 0.25, rel=1e-12)
    t = bf.bias(X, spec)
    assert t.alpha == pytest.approx(alpha, rel=1e-12)
    law = bf.tilt(X, spec.bias)
    assert law.density(0.8) == pytest.approx(0.5 / 0.4 * (0.64 - 0.25) / alpha, rel=1e-12)
    assert law.density(0.0) == 0.0 and (law.lo, law.hi) == (-1.0, 1.0)


def test_seed_moment_rows_that_do_not_decay_drop_out_of_the_pass():
    # the density 8/(3 pi) (1 + x^2)^-3 under the zero bias: the tilt x^2 f
    # decays like x^-4, but x^p x^2 f has not decayed by |x| ~ 1e6 for p >= 2.
    # Those moment rows drop out of the construction's pass, so bias builds
    # (alpha = E[X^2] = 1/3) with a record to order 1, E[Y] = 0 by symmetry,
    # and only the moments past it raise
    c = 8.0 / (3.0 * math.pi)
    X = bf.Distribution(lo=-math.inf, hi=math.inf,
                        density=lambda x: c / (1.0 + np.asarray(x, float) ** 2) ** 3)
    t = bf.bias(X, bf.zero_bias_spec())
    assert t.alpha == pytest.approx(1.0 / 3.0, rel=1e-11)
    rec = t.recipe.seed_moments
    assert len(rec) == 2 and rec[0] == 1.0 and abs(rec[1]) <= 1e-15
    for top in (2, 4):
        with pytest.raises(bf.NonIntegrable):
            bf.recipe_moments(t.recipe, top)


def test_seed_moment_rows_whose_tail_outruns_the_pass_drop_out():
    # Student's t with 9 degrees of freedom under the zero bias: the tilt
    # x^2 f decays like x^-8 and ends the pass's edges near |x| ~ 1e2, where
    # x^4 x^2 f ~ x^-4 still has ~1e-6 of its mass.  The ladder steps past
    # the edges would add more than the tolerance, so that row drops out (a
    # record read from it was off by 4.8e-8) and the record keeps the rows
    # below it; the moments to order 4 take their own pass: E[Y^p] =
    # E[X^(p+2)] / E[X^2] of the seed, 5.4 and 81, and the zero-bias law
    # U Y has E[Y^p] / (p + 1)
    c = math.gamma(5.0) / (math.sqrt(9.0 * math.pi) * math.gamma(4.5))
    X = bf.Distribution(lo=-math.inf, hi=math.inf,
                        density=lambda x: c * (1.0 + np.asarray(x, float) ** 2 / 9.0) ** -5)
    t = bf.bias(X, bf.zero_bias_spec())
    assert t.alpha == pytest.approx(9.0 / 7.0, rel=1e-12)
    rec = t.recipe.seed_moments
    assert len(rec) == 4 and rec[2] == pytest.approx(5.4, rel=1e-12)  # 2.0e-13 measured
    mom = bf.recipe_moments(t.recipe, 4)
    assert mom[2] == pytest.approx(5.4 / 3, rel=1e-13) and mom[4] == pytest.approx(81 / 5, rel=1e-8)


def test_a_recorded_row_is_held_to_the_pass_tolerance():
    # Student's t with 9 degrees of freedom under the zero bias: a kept row
    # is within ABS_TOL + REL_TOL |I| of a pass of its own (its ladder
    # steps past the edges added at most that), not within that pass's last
    # bits: E[Y^2] = 5.4 is recorded 1.1e-12 low, where its own pass is
    # 1.4e-14 off
    c = math.gamma(5.0) / (math.sqrt(9.0 * math.pi) * math.gamma(4.5))
    X = bf.Distribution(lo=-math.inf, hi=math.inf,
                        density=lambda x: c * (1.0 + np.asarray(x, float) ** 2 / 9.0) ** -5)
    recipe = bf.bias(X, bf.zero_bias_spec()).recipe
    rec = recipe.seed_moments
    own = D._moments(recipe.seed_law, len(rec) - 1)
    assert abs(own[2] - 5.4) <= 1e-13 < abs(rec[2] - own[2])
    for p in range(len(rec)):
        assert abs(rec[p] - own[p]) <= D.ABS_TOL + D.REL_TOL * abs(own[p]), p


@pytest.mark.parametrize("a", [0.0, 0.37, 1000.0])
def test_a_chain_base_records_its_moments_about_the_location(a):
    # the stage's pass records the base's moments about the location; the
    # second difference stamps them on X's recipe, which reads them at that
    # center only (a pass of its own about any other, as before)
    X = bf.normal(a + 0.3, 1.2)
    base = bf.second_difference_transform(X, a).recipe.base
    assert base.seed_law is X and base.center == a and len(base.seed_moments) == 7
    np.testing.assert_allclose(base.seed_moments, D._moments(X, 6, a), rtol=1e-13, atol=1e-15)
    assert base.moments(6, a).tolist() == list(base.seed_moments)
    assert base.moments(4, a + 1.0).tolist() == D._moments(X, 4, a + 1.0).tolist()


def test_a_dropped_moment_row_keeps_the_rows_below_it(monkeypatch):
    # Student's t with 5 degrees of freedom: E[X^4] exists and E[X^6] does
    # not.  An order-2 unit lift's pass carries moment rows to order 6, and
    # x^4 f ~ x^-2 has not decayed by |x| ~ 1e6, so the rows from order 4
    # on drop out.  The record keeps orders 0-3 (E[X^2] = 5/3): they give
    # the normalizer 5/6 and the moments to order 1 with no pass
    c = math.gamma(3.0) / (math.sqrt(5.0 * math.pi) * math.gamma(2.5))
    X = bf.Distribution(lo=-math.inf, hi=math.inf,
                        density=lambda x: c * (1.0 + np.asarray(x, float) ** 2 / 5.0) ** -3)
    t = bf.bias_to_order(X, bf.unit_bias_spec(), 2)
    rec = t.recipe.base.seed_moments  # the base's record, about the lift's location 0
    assert t.recipe.base.center == 0.0
    assert len(rec) == 4  # 4.1e-12 measured on E[X^2]
    np.testing.assert_allclose(rec, [1.0, 0.0, 5.0 / 3.0, 0.0], rtol=1e-11, atol=1e-15)
    assert t.beta == pytest.approx(5.0 / 6.0, rel=1e-11)
    calls = []
    monkeypatch.setattr(D, "_panels", lambda *args, fn=D._panels: calls.append(1) or fn(*args))
    mom = bf.recipe_moments(t.recipe, 1)
    assert calls == [] and mom[0] == 1.0 and abs(mom[1]) <= 1e-15
    with pytest.raises(bf.NonIntegrable):
        bf.recipe_moments(t.recipe, 2)


def test_the_pass_evaluates_b_once_per_call_of_its_stack(monkeypatch):
    # the tilt weight prod(x - x_j) B and the table rows B (x - c)^j come
    # from one value of B: one call for the probe's verdict, then one per
    # call of the pass's stack, for a transform and for a lift
    calls = {"B": 0, "stack": 0}

    def B(x):
        calls["B"] += 1
        return np.asarray(x, dtype=float)

    def counted(fv, *args, fn=D._window_integral, **kwargs):
        def stack(x):
            calls["stack"] += 1
            return fv(x)
        return fn(stack, *args, **kwargs)

    monkeypatch.setattr(D, "_window_integral", counted)
    spec = SignChangeSpec(B, NodeSet((0.0,)))
    for build in (lambda: bf.bias(bf.normal(), spec), lambda: bf.bias_to_order(bf.normal(), spec, 3),
                  lambda: bf.bias(bf.uniform(-1.0, 2.0), spec)):
        calls.update(B=0, stack=0)
        build()
        assert calls["stack"] > 0 and calls["B"] == 1 + calls["stack"], calls


@pytest.mark.parametrize("name, X, spec", cold_bias_cases(), ids=[c[0] for c in cold_bias_cases()])
def test_recorded_seed_moments_match_moment_on_the_seed_law(name, X, spec):
    # the construction's pass records E[Y^p], p <= 4, as row totals over z;
    # each agrees with an expectation of its own on the seed law, relative
    # to E|Y|^p (an odd moment of a symmetric seed cancels to ~0): measured
    # 3.2e-16, and 4.8e-13 on the exponential's fourth moment without the
    # ladder steps past the pass's edges
    t = bf.bias(X, spec)
    seed, rec = t.recipe.seed_law, t.recipe.seed_moments
    assert len(rec) == transform._SEED_MOMENTS + 1 and rec[0] == 1.0
    for p in range(1, len(rec)):
        scale = bf.expectation(seed, lambda x: np.abs(x) ** p)
        assert abs(rec[p] - bf.moment(seed, p)) <= 1e-14 * scale, p
    # beyond the record, the moments take a pass over the seed law; their
    # first orders agree with the record's
    np.testing.assert_allclose(bf.recipe_moments(t.recipe, 6)[:5], bf.recipe_moments(t.recipe, 4),
                               rtol=1e-12, atol=1e-15)


FAR_ATOMS = [(999.0, 0.25), (1000.5, 0.5), (1001.0, 0.25)]
FIVE_ATOMS = [(-1.0, 0.2), (-0.25, 0.3), (0.1, 0.1), (0.75, 0.15), (1.5, 0.25)]


def _algebra_laws():
    """(name, build) of the transforms whose moments the list algebra must
    give with the array algebra's bits: the benchmark's continuous-cold
    nine and the other chains of the pass report, the far second
    differences and the k = 3 node product on atoms, alone and lifted."""
    k3 = SignChangeSpec(lambda x: np.prod([np.asarray(x, float) - a for a in (-0.6, 0.0, 0.6)],
                                          axis=0), NodeSet((-0.6, 0.0, 0.6)))
    return [*pass_count.transforms().items(),
            ("normal-second-difference-far",
             lambda: bf.second_difference_transform(bf.normal(1000.0, 1.0), 1000.0)),
            ("atoms-second-difference-far",
             lambda: bf.second_difference_transform(bf.from_atoms(FAR_ATOMS), 1000.0)),
            ("atoms-chain-k3", lambda: bf.bias(bf.from_atoms(FIVE_ATOMS), k3)),
            ("atoms-chain-k3-lift-order5", lambda: bf.bias_to_order(bf.from_atoms(FIVE_ATOMS),
                                                                    k3, 5))]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("name, build", _algebra_laws(), ids=[n for n, _ in _algebra_laws()])
def test_recipe_moments_keep_the_array_algebras_bits(name, build):
    # the moment algebra runs on lists of Python floats with the array
    # route's float operations in its order: every moment keeps its bits,
    # past the record's order too, and the arrays are still arrays
    t = build()
    for top in range(9):
        got = bf.recipe_moments(t.recipe, top)
        assert type(got) is np.ndarray and type(t.recipe.moments(top)) is np.ndarray
        assert _bits(got) == _bits(array_moments(t.recipe, top)), top
    recipe = getattr(t.recipe, "base", t.recipe)
    if isinstance(t.recipe, ChainRecipe):  # the normalizers the chain took
        assert _bits(t.recipe.step_normalizers) == _bits(array_step_normalizers(t.recipe))
    if isinstance(recipe, transform.BiasRecipe):  # a center other than the record's
        for top in (2, 4, 7):
            got = recipe.moments(top, recipe.center + 0.37)
            assert type(got) is np.ndarray
            assert _bits(got) == _bits(array_moments(recipe, top, recipe.center + 0.37)), top


@pytest.mark.parametrize("c", [0, 0.0, -0.0, 0.5, -2.0, math.inf, math.nan, 1e60])
@pytest.mark.parametrize("mom", [[1.0, 0.25, 0.5, -0.125], [1.0, -0.0, 0.5, 0.0],
                                 [1.0, 0.5, -0.0], [1.0, math.inf, 2.0, 3.0],
                                 [1.0, 2.0, -math.inf, 1.0], [1.0, math.nan, 2.0],
                                 [-0.0], [], [1.0, 0.0, 1.0, 0.0, 3.0]])
def test_shift_moments_keeps_the_array_shifts_bits(mom, c):
    # a shift by 0 that returned its input would move the bits of -0.0
    # (0 + -0.0 is 0.0) and of every entry after an infinity (0 inf is NaN);
    # at 1e60 the powers of the shift reach 1e240 and none overflows
    for arg in (mom, np.array(mom, dtype=float)):
        got = bf.distributions.shift_moments(arg, c)
        assert type(got) is np.ndarray and got.dtype == float
        assert _bits(got) == _bits(array_shift_moments(arg, c))


@pytest.mark.parametrize("c", [1e100, -1e100])
def test_shift_moments_raises_where_a_power_of_the_shift_overflows(c):
    # c^4 overflows a float: Python's OverflowError before, and inf would
    # turn 0 c^4 into NaN; the error names the top order and the shift
    with pytest.raises(bf.NonIntegrable, match=re.escape(f"moments to order 4 shifted by {c!r}")):
        bf.distributions.shift_moments(np.array([1.0, 0.0, 1.0, 0.0, 3.0]), c)


def test_bias_of_a_mixture_without_a_density_on_an_infinite_support():
    # no density to probe: the window is the hull of the components' windows
    X = bf.make_mixture([bf.from_atoms([(0.3, 1.0)]), bf.normal()], [0.5, 0.5])
    spec = bf.zero_bias_spec()
    assert X.effective_support() == (min(0.3, *bf.normal().effective_support()),
                                     max(0.3, *bf.normal().effective_support()))
    T = bf.bias(X, spec)
    alpha = bf.alpha_of(X, spec)
    assert alpha == pytest.approx(0.5 * 0.3 ** 2 + 0.5, rel=1e-12)
    for t in (-2.0, -0.5, 0.1, 0.29, 0.31, 1.0, 2.5):
        # the one-node oracle, which is linear in the law, component by component
        ref = sum(w * bf.density_k1(c, spec, t, alpha=alpha)
                  for c, w in zip(X.components, X.weights))
        assert T.density(t) == pytest.approx(ref, rel=1e-9, abs=1e-12)
    draws = T.sample(1000, bf.RandomSource(3))
    assert np.all(np.isfinite(draws))


# ---------------------------------------------------------------------------
# normalizer
# ---------------------------------------------------------------------------

def test_alpha_worked_values(uniform_sym):
    assert bf.alpha_of(uniform_sym, x_plus_spec(-1.0)) == pytest.approx(5 / 12, abs=1e-12)
    assert bf.alpha_of(uniform_sym, x_plus_spec(0.0)) == pytest.approx(1 / 6, abs=1e-12)
    assert bf.alpha_of(uniform_sym, bf.unit_bias_spec()) == pytest.approx(1.0, abs=1e-12)


def test_alpha_degenerate_and_negative():
    with pytest.raises(bf.DegenerateAlpha):
        bf.alpha_of(bf.dirac(0.0), bf.zero_bias_spec())
    flipped = SignChangeSpec(lambda x: -np.asarray(x, float), NodeSet((0.0,)))
    with pytest.raises(bf.NegativeAlpha):
        bf.alpha_of(bf.from_atoms([(-1, 0.5), (1, 0.5)]), flipped)


def test_bias_rejects_sign_violation(uniform_sym):
    spec = SignChangeSpec(lambda x: np.asarray(x, float), NodeSet((1.0,)))
    with pytest.raises(bf.SignViolation):
        bf.bias(uniform_sym, spec)


@pytest.mark.parametrize("law", [lambda: bf.from_atoms([(-1.0, 0.5), (1.0, 0.5)]),
                                 lambda: bf.uniform(-1.0, 1.0)], ids=["atoms", "density"])
def test_validation_uses_the_tilt_tolerance(law):
    # a tilt weight of -5e-11 below the node: validation holds it to the
    # tolerance the tilt applies, so the spec fails there and not in the tilt
    spec = SignChangeSpec(lambda x: np.where(np.asarray(x, float) < 0, 5e-11, 1.0),
                          NodeSet((0.0,)))
    report = bf.validate_spec(spec, law())
    assert not report.passed
    assert report.worst_value == pytest.approx(-5e-11)
    with pytest.raises(bf.SignViolation):
        bf.bias(law(), spec)


# ---------------------------------------------------------------------------
# bias on a point-mass law: one weight evaluation for all three results
# ---------------------------------------------------------------------------

def _point_mass_cases():
    rng = np.random.default_rng(2026)
    cases = [(f"random-{i}", bf.random_discrete(rng), bf.random_valid_spec(rng, i % 4))
             for i in range(50)]
    for n in (1_000, 50_000):
        X = bf.from_samples(np.random.default_rng(n).normal(0.3, 1.1, n))
        cases.append((f"empirical-{n}", X, bf.zero_bias_spec()))
        cases.append((f"empirical-{n}-k3", X, bf.random_valid_spec(rng, 3)))
    cases.append(("dirac", bf.dirac(0.7), bf.zero_bias_spec()))
    cases.append(("dirac-k0", bf.dirac(-1.3), bf.random_valid_spec(rng, 0)))
    return cases


def _density_and_mixture_cases():
    U = bf.uniform(-1.0, 1.0)
    atoms = bf.from_atoms([(-1.2, 0.3), (0.4, 0.2), (1.5, 0.5)])
    lift = bf.bias_to_order(U, SignChangeSpec(lambda x: np.ones_like(np.asarray(x, float))), 2)
    return [
        ("normal", bf.normal(), bf.zero_bias_spec()),
        ("exponential", bf.exponential(1.0), bf.sign_spec(0.0)),
        ("half-normal", bf.half_normal(1.3), bf.zero_bias_spec()),
        ("normal-k3", bf.normal(0.1, 0.9), bf.random_valid_spec(np.random.default_rng(3), 3)),
        ("lift-table", lift.law, bf.zero_bias_spec()),  # its density is a lazy table
        ("atoms+normal", bf.make_mixture([atoms, bf.normal(0.2, 1.1)], [0.4, 0.6]),
         bf.zero_bias_spec()),
        ("atoms+uniform", bf.make_mixture([atoms, U], [0.5, 0.5]), bf.zero_bias_spec()),
    ]


def _assert_same_laws(got, want, ts):
    """The same law, bit for bit: support, atoms, densities at ``ts`` and,
    for a mixture, its weights and each component."""
    assert (got.lo, got.hi, got.label, got.kinks) == (want.lo, want.hi, want.label, want.kinks)
    if want.locs is not None:
        assert got.locs.tobytes() == want.locs.tobytes()
        assert got.masses.tobytes() == want.masses.tobytes()
    if want.density is not None:
        assert np.asarray(got.density(ts)).tobytes() == np.asarray(want.density(ts)).tobytes()
    if want.components is not None:
        assert got.weights == want.weights and len(got.components) == len(want.components)
        for c, d in zip(got.components, want.components):
            _assert_same_laws(c, d, ts)


def _draws_digest(law, n=10_000):
    draws = bf.sample(law, bf.RandomSource(8), n)
    return hashlib.sha256(np.ascontiguousarray(draws, dtype=float).tobytes()).hexdigest()


def test_one_pass_bias_matches_the_three_passes_bit_for_bit():
    for name, X, spec in _point_mass_cases():
        t = bf.bias(X, spec)
        alpha, seed_law = bias_in_three_passes(X, spec)
        assert t.alpha.hex() == alpha.hex(), name
        got = t.recipe.seed_law
        assert got.locs.tobytes() == seed_law.locs.tobytes(), name
        assert got.masses.tobytes() == seed_law.masses.tobytes(), name
        assert not got.masses.flags.writeable and got.label == seed_law.label
        assert _draws_digest(got) == _draws_digest(seed_law), name
    for name, X, spec in _density_and_mixture_cases():
        t = bf.bias(X, spec)
        alpha, seed_law = bias_in_three_passes(X, spec)
        assert t.alpha.hex() == alpha.hex(), name
        _assert_same_laws(t.recipe.seed_law, seed_law, np.linspace(*X.effective_support(), 101))
        assert _draws_digest(t.recipe.seed_law, 20_000) == _draws_digest(seed_law, 20_000), name
        lo, hi = X.effective_support()  # the window of the law before the one pass
        assert (t.law.lo, t.law.hi) == (min(lo, spec.nodes[0]), max(hi, spec.nodes[-1])), name


def _outcome(f):
    try:
        f()
    except bf.BiasforgeError as exc:
        return type(exc), str(exc)
    return None


_TWO_ATOMS = [(-1.0, 0.25), (0.5, 0.75)]


@pytest.mark.parametrize("spec, error", [
    # a negative weight at the atom 0.5
    (SignChangeSpec(lambda x: np.where(np.asarray(x, float) == 0.5, -2.0, 1.0)),
     bf.SignViolation),
    # negative only just right of the node 0, which no atom is near
    (SignChangeSpec(lambda x: np.where(np.abs(np.asarray(x, float)) < 1e-3, -1.0,
                                       np.asarray(x, float)), NodeSet((0.0,))),
     bf.SignViolation),
    # NaN and +inf at an atom
    (SignChangeSpec(lambda x: np.where(np.asarray(x, float) == 0.5, np.nan, 1.0)),
     bf.SignViolation),
    (SignChangeSpec(lambda x: np.where(np.asarray(x, float) == -1.0, np.inf, 1.0)),
     bf.SignViolation),
    # a zero normalizer: zero weight at every atom
    (SignChangeSpec(lambda x: np.where(np.abs(np.asarray(x, float)) > 0.2, 0.0, 1.0)),
     bf.DegenerateAlpha),
    # within the tolerance of zero, below it
    (SignChangeSpec(lambda x: np.full(np.shape(x), -1e-13)), bf.DegenerateAlpha),
], ids=["negative-at-atom", "negative-near-node", "nan-at-atom", "inf-at-atom",
        "zero-normalizer", "tiny-negative"])
def test_one_pass_bias_raises_as_the_three_passes(spec, error):
    X = bf.from_atoms(_TWO_ATOMS)
    got = _outcome(lambda: bf.bias(X, spec))
    assert got is not None and got[0] is error
    assert got == _outcome(lambda: bias_in_three_passes(X, spec))


_BAD_SPECS = {
    # x times -1 on (-1e-3, 1e-3): negative only just right of the node 0
    "negative-right-of-node": (SignChangeSpec(
        lambda x: np.where(np.abs(np.asarray(x, float)) < 1e-3, -1.0, np.asarray(x, float)),
        NodeSet((0.0,))), bf.SignViolation),
    "nan-on-part": (SignChangeSpec(lambda x: np.where(np.asarray(x, float) > 0.5, np.nan, 1.0)),
                    bf.SignViolation),
    "all-zero": (SignChangeSpec(lambda x: np.zeros(np.shape(x))), bf.DegenerateAlpha),
    "tiny-negative": (SignChangeSpec(lambda x: np.full(np.shape(x), -1e-13)),
                      bf.DegenerateAlpha),
    # the atom 0.4 of both mixtures, which no support grid point hits
    "negative-atom": (SignChangeSpec(lambda x: np.where(np.asarray(x, float) == 0.4, -2.0, 1.0)),
                      bf.SignViolation),
}


@pytest.mark.parametrize("law, case", [
    (name, case) for name, X, _ in _density_and_mixture_cases() for case in _BAD_SPECS
    if case != "negative-atom" or "+" in name])
def test_one_pass_bias_of_densities_and_mixtures_raises_as_the_three_passes(law, case):
    X = {name: X for name, X, _ in _density_and_mixture_cases()}[law]
    spec, error = _BAD_SPECS[case]
    got = _outcome(lambda: bf.bias(X, spec))
    assert got is not None and got[0] is error
    assert got == _outcome(lambda: bias_in_three_passes(X, spec))


def _recording(X):
    """A zero-bias B that records whether each call holds the _PROBE_GRID
    linspace of X's effective support (or of X's density component), and
    the calls of the tail probe; both lists fill as ``bias`` runs."""
    dens = X if X.density is not None else next(c for c in X.components if c.density)
    grid = np.linspace(*dens.effective_support(), D._PROBE_GRID)
    on_grid, probes = [], []

    def B(x):
        arr = np.asarray(x, float).ravel()
        at = np.flatnonzero(arr == grid[0])
        on_grid.append(any(np.array_equal(arr[i:i + grid.size], grid) for i in at))
        return np.asarray(x, float)

    def probe(*args, fn=D._effective_bounds):
        probes.append(args)
        return fn(*args)

    return SignChangeSpec(B, NodeSet((0.0,))), on_grid, probes, probe


@pytest.mark.parametrize("law, probe_calls", [
    # the probe grid spans the normal's closed-form window, and alpha and the
    # tilt normalizer z are one stacked panel pass from it: no tail probe (3
    # when the grid and each of the two integrals probed)
    ("normal", 0),
    # the tilted normal component hands its normalizer back as its mixture
    # weight, so it is integrated once
    ("atoms+normal", 0),
])
def test_one_pass_bias_evaluates_the_weight_on_the_probe_grid_once(monkeypatch, law, probe_calls):
    X = {name: X for name, X, _ in _density_and_mixture_cases()}[law]
    spec, on_grid, probes, probe = _recording(X)
    monkeypatch.setattr(D, "_effective_bounds", probe)
    bf.bias(X, spec)
    assert sum(on_grid) == 1
    assert len(probes) == probe_calls


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_one_pass_bias_of_atoms_calls_the_bias_once(k):
    calls = []
    inner = bf.random_valid_spec(np.random.default_rng(k), k)

    def B(x):
        calls.append(np.shape(x))
        return inner.bias(x)

    X = bf.from_atoms([(-1.5, 0.2), (-0.4, 0.3), (0.6, 0.1), (1.9, 0.4)])
    t = bf.bias(X, SignChangeSpec(B, inner.nodes))
    assert calls == [(4 + 2 * k,)]  # the atoms and two probes per node, together
    t.recipe.moments(4)  # the moments read the seed law's arrays
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the transform (k = 1 closed-form densities)
# ---------------------------------------------------------------------------

def test_coin_zero_bias_is_uniform():
    coin = bf.from_atoms([(-1, 0.5), (1, 0.5)])
    t = bf.bias(coin, bf.zero_bias_spec())
    assert t.alpha == pytest.approx(1.0)
    for x in (-0.9, -0.3, 0.0, 0.4, 1.0):
        assert t.density(x) == pytest.approx(0.5, abs=1e-12)
    assert t.density(1.2) == 0.0


def test_unit_bias_is_identity_in_law(uniform_sym):
    t = bf.bias(uniform_sym, bf.unit_bias_spec())
    xs = np.linspace(-0.99, 0.99, 21)
    assert np.allclose(t.density(xs), uniform_sym.density(xs), atol=1e-9)
    assert t.alpha == pytest.approx(1.0)
    assert t.law.density is not None and t.law.locs is None and t.law.components is None


def test_ambiguity_density_q(uniform_sym):
    t = bf.bias(uniform_sym, x_plus_spec(0.0))
    ts = np.linspace(-1, 1, 101)
    closed = np.where((ts >= 0) & (ts <= 1), 1.5 * (1 - ts**2), 0.0)
    assert np.max(np.abs(t.density(ts) - closed)) <= 1e-9


def test_density_k1_worked_values(uniform_sym):
    assert bf.density_k1(uniform_sym, x_plus_spec(0.0), 0.0) == pytest.approx(1.5, rel=1e-9)
    assert bf.density_k1(uniform_sym, x_plus_spec(-1.0), -0.5) == pytest.approx(0.6, rel=1e-9)
    assert bf.density_k1(uniform_sym, x_plus_spec(0.0), 5.0) == 0.0
    assert bf.density_k1(uniform_sym, x_plus_spec(0.0), -5.0) == 0.0


def test_density_k1_atoms_exact():
    d = bf.from_atoms([(-1, 1 / 3), (0, 1 / 3), (2, 1 / 3)])
    spec = bf.zero_bias_spec()
    alpha = bf.alpha_of(d, spec)  # E[X^2] = 5/3
    assert alpha == pytest.approx(5 / 3)
    # p(t) = E[X (1{0<=t<=X} - 1{X<t<0})]/alpha: on (0,2] only the atom at 2 counts
    assert bf.density_k1(d, spec, 1.0) == pytest.approx((2 / 3) / alpha)
    # on [-1,0) only the atom at -1 counts, with a sign flip
    assert bf.density_k1(d, spec, -0.5) == pytest.approx((1 / 3) / alpha)


# ---------------------------------------------------------------------------
# density lifting (k >= 2)
# ---------------------------------------------------------------------------

def test_lift_density_rectangle_inner():
    inner = lambda u: 0.5 if -1 <= u <= 1 else 0.0
    assert bf.lift_density(inner, 0.0, 2, 0.0, inner_support=(-1, 1)) == pytest.approx(1.0, rel=1e-9)
    assert bf.lift_density(inner, 0.0, 2, 0.5, inner_support=(-1, 1)) == pytest.approx(0.5, rel=1e-8)
    assert bf.lift_density(inner, 0.0, 2, 3.0, inner_support=(-1, 1)) == 0.0
    assert bf.lift_density(inner, 0.0, 2, -0.5, inner_support=(-1, 1)) == pytest.approx(0.5, rel=1e-8)


def test_lift_density_level_guard():
    with pytest.raises(bf.InputError):
        bf.lift_density(lambda u: 1.0, 0.0, 1, 0.5)


def two_node_transform():
    # B(x) = x (x - 0.5) with both roots declared: product weight is a square
    U = bf.uniform(-1, 1)
    B = lambda x: np.asarray(x, float) * (np.asarray(x, float) - 0.5)
    return U, SignChangeSpec(B, NodeSet((0.0, 0.5)))


def test_two_node_density_normalizes_and_matches_sampler():
    U, spec = two_node_transform()
    t = bf.bias(U, spec)
    lo, hi = t.law.lo, t.law.hi
    # fine trapezoid: exact up to slope jumps for the gridded evaluator
    xs = np.linspace(lo, hi, 20001)
    total = np.trapezoid(np.asarray(t.density(xs)), xs)
    assert total == pytest.approx(1.0, abs=1e-6)
    n = 30_000
    draws = t.sample(n, bf.RandomSource(3))
    assert bf.ks_statistic(draws, bf.numeric_cdf(t.law)) < bf.ks_critical(n, 0.01)


def test_two_node_sampler_moments_match_recipe():
    U, spec = two_node_transform()
    t = bf.bias(U, spec)
    n = 200_000
    draws = t.sample(n, bf.RandomSource(8))
    for p in (1, 2, 3):
        exact = t.moment(p)
        se = np.std(draws**p, ddof=1) / math.sqrt(n)
        assert abs(draws.__pow__(p).mean() - exact) < 4 * se


def test_two_node_density_built_once_under_concurrent_reads(monkeypatch):
    tables = []
    build = bf.TabulatedDensity.from_callable

    def counting(*args, **kwargs):
        tables.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(bf.TabulatedDensity, "from_callable", staticmethod(counting))
    U, spec = two_node_transform()
    t = bf.bias(U, spec)
    values = call_concurrently(lambda: t.density(0.25))
    assert len(tables) == 1  # one identity table per law
    assert len(set(values)) == 1


def node_product_spec(nodes):
    def B(x):
        arr = np.asarray(x, float)
        out = np.ones_like(arr)
        for xj in nodes:
            out = out * (arr - xj)
        return out

    return SignChangeSpec(B, NodeSet(nodes))


@pytest.mark.parametrize("nodes", [(-0.5, 0.5), (-0.6, 0.0, 0.6)])
def test_node_product_density_moments_match_recipe(nodes):
    # the tabulated density carries the law's moments to the accuracy of its
    # 2049-point grid
    t = bf.bias(bf.uniform(-1, 1), node_product_spec(nodes))
    xs = np.linspace(t.law.lo, t.law.hi, 20001)
    ys = np.asarray(t.density(xs))
    for q in range(1, 5):
        assert np.trapezoid(ys * xs**q, xs) == pytest.approx(t.moment(q), abs=1e-6)


def truncated_power(t, m):
    """(x - t)_+^{m-1} / (m-1)!, whose m-th derivative is the point mass at t."""
    power = Polynomial((1.0,))
    for _ in range(m - 1):
        power = power * Polynomial((-t, 1.0))
    return PiecewisePoly((t,), (Polynomial(()), power.scale(1.0 / math.factorial(m - 1))))


def test_identity_table_matches_atom_sum_of_identity():
    # table values before renormalization against the identity's right side
    # summed over the atoms with the verification suite's L and R
    rng = np.random.default_rng(2024)
    done = 0
    while done < 12:
        m = int(rng.integers(1, 5))
        k = int(rng.choice(np.arange(m % 2, m + 1, 2)))
        X = bf.random_discrete(rng)
        spec = bf.random_valid_spec(rng, k)
        try:
            beta = bf.beta_of(X, spec, m)
        except (bf.DegenerateAlpha, bf.DegenerateBeta):
            continue
        tails = D._TailTable(X, transform._identity_loads(spec, m, 0.0))  # atoms need no panels
        table = transform._identity_table(X, spec, m, beta, 0.0, tails)
        avoid = np.array([x for x, _ in X.atoms] + list(spec.nodes) + [0.0])
        far = np.min(np.abs(table.xs[:, None] - avoid), axis=1) > 1e-3
        far &= np.arange(far.size) % 8 == 0
        ref = []
        for t in table.xs[far]:
            F = truncated_power(t, m)
            L, R = _lhs_polynomials(spec, m, F)
            ref.append(sum(mass * float(spec.bias(x)) * (F(x) - R(x) - L(x))
                           for x, mass in X.atoms) / beta)
        ref = np.array(ref)
        got = (table.ys * table.raw_mass)[far]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (k, m)
        done += 1


# ---------------------------------------------------------------------------
# exact defining identity (two independent routes)
# ---------------------------------------------------------------------------

def test_defining_identity_matched_order_randomized():
    rng = np.random.default_rng(123)
    done = 0
    while done < 40:
        k = int(rng.integers(0, 4))
        X = bf.random_discrete(rng)
        spec = bf.random_valid_spec(rng, k)
        F = Polynomial.monomial(int(rng.integers(0, 7)))
        try:
            rep = bf.check_identity_exact(X, spec, k, F, tol=1e-10)
        except (bf.DegenerateAlpha, bf.DegenerateBeta):
            continue
        assert rep.passed, (k, F.degree, rep.lhs, rep.rhs)
        done += 1


def test_order_zero_identity_is_tilt():
    # with no nodes the transform is the plain reweighting, exactly on atoms
    X = bf.from_atoms([(-1, 0.25), (0.5, 0.25), (2, 0.5)])
    B = lambda x: np.asarray(x, float) ** 2 + 0.25
    spec = SignChangeSpec(B, NodeSet(()))
    t = bf.bias(X, spec)
    table = {-1.0: 2.0, 0.5: -1.0, 2.0: 5.0}  # arbitrary bounded F given by a table
    lhs = sum(m * float(B(x)) * table[x] for x, m in X.atoms)
    rhs = t.alpha * sum(m * table[x] for x, m in t.law.atoms)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_identity_sensitivity_to_alpha():
    # a 1e-3 relative normalizer error must flip the exact report to fail
    d = bf.from_atoms([(-1, 1 / 3), (0, 1 / 3), (2, 1 / 3)])
    rep = bf.check_identity_exact(d, bf.zero_bias_spec(), 1, Polynomial.monomial(3), tol=1e-10)
    assert rep.passed
    rhs_perturbed = rep.rhs * (1 + 1e-3)
    scale = max(1.0, abs(rep.lhs), abs(rhs_perturbed))
    assert abs(rep.lhs - rhs_perturbed) > 1e-10 * scale


# ---------------------------------------------------------------------------
# ambiguity of node choices
# ---------------------------------------------------------------------------

def test_ambiguity_pointwise_relation(uniform_sym):
    spec_lo, spec_hi = x_plus_spec(-1.0), x_plus_spec(0.0)
    alpha = bf.alpha_of(uniform_sym, spec_lo)
    beta = bf.alpha_of(uniform_sym, spec_hi)
    b_mean = bf.expectation(uniform_sym, bf.plus_part, points=(0.0,))
    for t in (-1.0, -0.6, -0.2, 0.0, 0.3, 0.8):
        p = bf.density_k1(uniform_sym, spec_lo, t, alpha=alpha)
        q = bf.density_k1(uniform_sym, spec_hi, t, alpha=beta)
        jump = b_mean if -1 <= t < 0 else 0.0
        assert alpha * p - beta * q == pytest.approx(jump, abs=1e-8)


def test_zero_mean_bias_makes_node_choice_irrelevant(uniform_sym):
    # dead zone on [-0.5, 0.5] and E[B(X)] = 0: every legal node gives one law
    def dead_zone(x):
        arr = np.asarray(x, float)
        return np.sign(arr) * np.maximum(np.abs(arr) - 0.5, 0.0)

    ts = np.linspace(-1, 1, 201)
    densities = []
    for node in (-0.5, 0.0, 0.5):
        spec = SignChangeSpec(dead_zone, NodeSet((node,)), kinks=(-0.5, 0.5))
        t = bf.bias(uniform_sym, spec)
        densities.append(np.asarray(t.density(ts)))
    assert np.max(np.abs(densities[0] - densities[1])) <= 1e-8
    assert np.max(np.abs(densities[1] - densities[2])) <= 1e-8


# ---------------------------------------------------------------------------
# mixtures of transforms
# ---------------------------------------------------------------------------

def test_bias_of_a_mixture_mixes_the_component_transforms():
    # alpha is the gamma-weighted sum of the components' alphas and the
    # density the alpha-weighted mixture of their transforms' densities;
    # dirac(0), whose alpha under the zero-bias weight is 0, drops out
    spec, gamma = bf.zero_bias_spec(), [0.3, 0.5, 0.2]
    comps = [bf.uniform(0, 1), bf.uniform(1, 2), bf.dirac(0.0)]
    with pytest.raises(bf.DegenerateAlpha):
        bf.bias(comps[2], spec)
    parts = [bf.bias(c, spec) for c in comps[:2]]
    mixed = bf.bias(bf.make_mixture(comps, gamma), spec)
    alpha = sum(g * p.alpha for g, p in zip(gamma, parts))
    assert mixed.alpha == pytest.approx(alpha, rel=1e-12)
    assert mixed.alpha == pytest.approx(0.3 * (1 / 3) + 0.5 * (7 / 3), rel=1e-10)
    weights = [g * p.alpha / alpha for g, p in zip(gamma, parts)]
    assert mixed.recipe.seed_law.weights == pytest.approx(weights, rel=1e-12)
    ts = np.linspace(-0.5, 2.5, 61)
    ref = sum(w * p.density(ts) for w, p in zip(weights, parts))
    np.testing.assert_allclose(mixed.density(ts), ref, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# normalization and sampler agreement for the worked one-node laws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("node", [-1.0, 0.0])
def test_one_node_law_normalization(uniform_sym, node):
    t = bf.bias(uniform_sym, x_plus_spec(node))
    total = quad(lambda x: float(t.density(x)), -1, 1, points=[0], limit=200)[0]
    assert total == pytest.approx(1.0, abs=1e-6)


def test_one_node_sampler_ks(uniform_sym):
    t = bf.bias(uniform_sym, x_plus_spec(-1.0))
    n = 30_000
    draws = t.sample(n, bf.RandomSource(12))
    assert bf.ks_statistic(draws, bf.numeric_cdf(t.law)) < bf.ks_critical(n, 0.01)


def test_three_node_density_near_nodes():
    # evaluation points adjacent to nodes once made the lifted integral's
    # decaying-tail form nearly singular; the density must stay finite,
    # nonnegative and correctly normalized there
    U = bf.uniform(-1.5, 1.5)
    nodes = (-0.8, 0.1, 0.9)

    def B(x):
        arr = np.asarray(x, float)
        out = np.ones_like(arr)
        for xj in nodes:
            out = out * (arr - xj)
        return out

    t = bf.bias(U, SignChangeSpec(B, NodeSet(nodes)))
    probes = [x + s for x in nodes for s in (-1e-3, 0.0, 1e-3)]
    vals = np.asarray(t.density(np.array(probes)))
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0)
    xs = np.linspace(t.law.lo, t.law.hi, 20001)
    total = np.trapezoid(np.asarray(t.density(xs)), xs)
    assert total == pytest.approx(1.0, abs=1e-6)
    n = 20_000
    draws = t.sample(n, bf.RandomSource(31))
    assert bf.ks_statistic(draws, bf.numeric_cdf(t.law)) < bf.ks_critical(n, 0.01)


def test_validation_fails_at_an_infinite_weight():
    # 1/sqrt|x| is integrable but infinite at the grid point x = 0, where the
    # tilt would refuse it: validation fails there first
    spec = SignChangeSpec(lambda x: 1.0 / np.sqrt(np.abs(np.asarray(x, float))))
    with np.errstate(divide="ignore"):
        report = bf.validate_spec(spec, bf.uniform(-1, 1))
        assert not report.passed
        assert (report.worst_point, report.worst_value) == (0.0, math.inf)
        with pytest.raises(bf.SignViolation, match="x=0.0"):
            bf.bias(bf.uniform(-1, 1), spec)


# ---------------------------------------------------------------------------
# the panel table behind the one-node law density, against the pointwise oracle
# ---------------------------------------------------------------------------

def sign_spec_at_zero():
    return SignChangeSpec(lambda x: np.sign(np.asarray(x, float)), NodeSet((0.0,)), kinks=(0.0,))


LOW, HIGH = 0.25, (1 - 0.25 * 1.3) / 0.7


def undeclared_jump_law():
    # density LOW on [-1, 0.3] and HIGH on (0.3, 1]; ``kinks`` declares only
    # the support edges, not the jump at 0.3
    def dens(x):
        x = np.asarray(x, float)
        return np.where((x >= -1) & (x <= 1), np.where(x <= 0.3, LOW, HIGH), 0.0)

    return bf.Distribution(lo=-1.0, hi=1.0, density=dens,
                           kinks=(-1.0, 1.0), label="step")


ONE_NODE_CASES = {
    "normal-zero-bias": (bf.normal, bf.zero_bias_spec),
    "exponential-sign": (bf.exponential, sign_spec_at_zero),
    "half-normal-mixture": (lambda: bf.make_mixture([bf.half_normal(1.2),
                                                     bf.negative_half_normal(1.2)], [0.3, 0.7]),
                            bf.zero_bias_spec),
    "uniform-xplus-node-1": (lambda: bf.uniform(-1, 1), lambda: x_plus_spec(-1.0)),
    "uniform-xplus-node0": (lambda: bf.uniform(-1, 1), lambda: x_plus_spec(0.0)),
    "node-below-support": (lambda: bf.uniform(1, 2), bf.zero_bias_spec),
}


@pytest.mark.parametrize("case", sorted(ONE_NODE_CASES))
def test_one_node_law_density_matches_pointwise_oracle(case):
    make_law, make_spec = ONE_NODE_CASES[case]
    X, spec = make_law(), make_spec()
    t = bf.bias(X, spec)
    node = spec.nodes[0]
    # grid points, points outside the support, the node and points beside it
    ts = np.concatenate((np.linspace(t.law.lo - 0.5, t.law.hi + 0.5, 41),
                         [node, node - 1e-7, node + 1e-7, 0.3141]))
    ref = np.array([max(0.0, bf.density_k1(X, spec, s, alpha=t.alpha)) for s in ts])
    got = t.density(ts)
    assert got.shape == ts.shape
    assert np.max(np.abs(got - ref)) <= 1e-12
    scalar = t.density(float(ts[7]))
    assert isinstance(scalar, float) and scalar == pytest.approx(got[7], abs=1e-15)


def test_one_node_law_density_with_undeclared_jump():
    # the panel holding the jump at 0.3 fails its error estimate and is
    # bisected into slivers, which the tail table keeps as final panels; a
    # read sums whole panels and rules part of one; the oracle is the exact
    # tail integral of x times the step density
    X, spec = undeclared_jump_law(), bf.zero_bias_spec()
    t = bf.bias(X, spec)

    def lower(x):  # E[X 1{X < x}]
        x = np.clip(x, -1.0, 1.0)
        return np.where(x <= 0.3, LOW * (x**2 - 1) / 2,
                        LOW * (0.09 - 1) / 2 + HIGH * (x**2 - 0.09) / 2)

    ts = np.concatenate((np.linspace(-1.2, 1.2, 25), 0.3 + np.array([-3e-4, -1e-4, 0.0, 2e-4])))
    exact = np.where(ts >= 0, lower(1.0) - lower(ts), -lower(ts)) / t.alpha
    assert np.max(np.abs(t.density(ts) - exact)) <= 1e-8


def test_one_node_table_reads_an_undeclared_jump_without_fallbacks(monkeypatch):
    # the jump's two slivers, still open after the last round of the
    # construction's pass, keep the rule on their halves: their error is
    # within the whole tolerance, so neither the construction nor the first
    # read nor a 1e5-point read after it calls scipy
    X, spec = undeclared_jump_law(), bf.zero_bias_spec()
    calls = []
    oracle = D.integrate_fn
    monkeypatch.setattr(D, "integrate_fn", lambda *a, **k: calls.append(a) or oracle(*a, **k))
    monkeypatch.setattr(transform, "integrate_fn", D.integrate_fn)
    t = bf.bias(X, spec)
    t.density(0.5)
    assert calls == []
    ts = np.linspace(-1.0, 1.0, 100_001)
    got = t.density(ts)
    assert calls == []
    monkeypatch.undo()
    declared = bf.Distribution(lo=-1.0, hi=1.0, density=X.density, kinks=(-1.0, 0.3, 1.0))
    probe = np.concatenate((ts[::2500], 0.3 + np.array([-1e-6, 0.0, 1e-6])))
    ref = np.array([bf.density_k1(declared, spec, s, alpha=t.alpha) for s in probe])
    assert np.max(np.abs(t.density(probe) - ref)) <= 1e-11
    assert np.array_equal(got[::2500], t.density(ts[::2500]))


def _stack(*weights):
    """A tail table's weight stack of the array-native ``weights``."""
    return lambda x: np.stack([w(x) for w in weights])


@pytest.mark.parametrize("weight", [lambda x: np.sqrt(x - 0.5),
                                    lambda x: np.where(x > 0.5, np.inf, 1.0)], ids=["nan", "inf"])
def test_tail_table_refuses_a_weight_that_is_not_finite(weight):
    with np.errstate(invalid="ignore"), pytest.raises(bf.NonIntegrable):
        X, weights = bf.uniform(-1, 1), _stack(lambda x: np.ones_like(x), weight)
        D._TailTable(X, weights)


def test_a_table_whose_construction_pass_fell_back_takes_a_pass_of_its_own(monkeypatch):
    # integrate_fn took the construction's pass whole, so it kept no panels:
    # the one-node table takes a pass of its own on first read, to the same
    # depth and tolerances, and raises only when that pass fails as well
    X, spec = bf.normal(), bf.zero_bias_spec()
    ts = np.linspace(-3.0, 3.0, 13)
    riding = bf.bias(X, spec).density(ts)
    panels, depths = D._panels, []

    def first_pass_fails(fv, edges, depth=D._PANEL_DEPTH, spare=0):
        depths.append(depth)
        return None if len(depths) == 1 else panels(fv, edges, depth, spare)

    monkeypatch.setattr(D, "_panels", first_pass_fails)
    t = bf.bias(X, spec)
    assert depths == [D._TAIL_DEPTH]
    got = t.density(ts)
    assert depths == [D._TAIL_DEPTH, D._TAIL_DEPTH]
    np.testing.assert_allclose(got, riding, rtol=0, atol=1e-9)
    np.testing.assert_allclose(got, np.exp(-ts ** 2 / 2) / math.sqrt(2 * math.pi),
                               rtol=0, atol=1e-9)
    monkeypatch.setattr(D, "_panels", lambda *args, **kwargs: None)
    t = bf.bias(X, spec)
    with pytest.raises(bf.NonIntegrable):
        t.density(0.5)


def test_tail_table_integrates_the_slivers_of_an_undeclared_singularity(monkeypatch):
    # 1 + |x - 0.3|^(-1/2) never converges on the panels at 0.3; the slivers
    # left open are valued by integrate_fn, and the tails are exact
    calls = []
    oracle = D.integrate_fn
    monkeypatch.setattr(D, "integrate_fn", lambda *a, **k: calls.append(a) or oracle(*a, **k))
    X, weights = bf.uniform(-1, 1), _stack(lambda x: 1 + np.abs(np.asarray(x, float) - 0.3) ** -0.5)
    tails = D._TailTable(X, weights, -1.0)
    assert calls and all(abs(a - 0.3) < 1e-6 and abs(b - 0.3) < 1e-6 for _, a, b in calls)
    ts = np.array([-0.5, 0.0, 0.25, 0.29])
    exact = 0.5 * ((1 - ts) + 2 * np.sqrt(0.3 - ts) + 2 * np.sqrt(0.7))  # E[w(X) 1{X >= t}]
    np.testing.assert_allclose(tails(ts)[0], exact, rtol=0, atol=1e-9)


def test_tail_table_and_window_integral_share_the_sliver_policy(monkeypatch):
    # one stacked integrand, a smooth row and a jump row: the tail table's
    # pass and the window integral each keep the rule on the halves of the
    # jump row's two slivers at 0.3, whose error is within the whole
    # tolerance, and call integrate_fn for no row
    X = bf.uniform(-1, 1)
    weights = _stack(lambda x: np.ones_like(np.asarray(x, float)),
                     lambda x: np.where(np.asarray(x, float) > 0.3, 1.0, 0.0))
    calls = []
    oracle = D.integrate_fn

    def counted(f, lo, hi, *args, **kwargs):
        calls.append((lo, hi, f(0.0)))  # the jump row is 0 at 0, the smooth one is not
        return oracle(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(D, "integrate_fn", counted)
    tails = D._TailTable(X, weights)
    table_calls = calls[:]
    calls.clear()
    got = D._window_integral(tails._load, X)[0]
    assert table_calls == calls == []
    slivers = np.diff(tails.xs) < 1e-9  # the jump's, left open after the last round
    assert slivers.any() and np.all(np.abs(tails.xs[:-1][slivers] - 0.3) < 1e-6)
    np.testing.assert_allclose(got, [1.0, 0.35], rtol=0, atol=1e-9)
    np.testing.assert_allclose(tails.total, [1.0, 0.35], rtol=0, atol=1e-9)


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


def _construction_panels(X, spec, rows):
    """The final panels of ``bias``'s pass over X carrying the rows B(x) x^j,
    j < rows (None on atoms, a list by component on a mixture without a density)."""
    loads = transform._identity_loads(spec, rows, 0.0)
    probe = D._probe_points(X)
    return D._tilt(X, D.as_array_fn(spec.tilt_weight), spec.quad_points, probe,
                   spec.tilt_weight(probe), lambda x: loads(x, True))[3]


TABLE_LAWS = {
    "atoms": lambda: bf.from_atoms([(-1.5, 0.2), (-0.25, 0.3), (0.0, 0.1), (0.75, 0.15),
                                    (2.0, 0.25)]),
    "normal": bf.normal,
    "atoms-and-uniform": lambda: bf.make_mixture(
        [bf.from_atoms([(0, 0.5), (1, 0.5)]), bf.uniform(-1, 1)], [0.5, 0.5]),
}


@pytest.mark.parametrize("node", [-np.inf, -3.0, -0.25, 0.0, 0.3, 0.75, 5.0])
@pytest.mark.parametrize("case", sorted(TABLE_LAWS))
def test_a_table_bound_to_its_node_and_rows_reads_the_two_sum_tables_bits(case, node):
    # the same law, weights and panels: a table that keeps only the sums its
    # node's reads take, of all three rows or of the first, reads what the
    # table of both sums over every atom or panel read at that node, bit for
    # bit, with the node below, at, between and above the atoms and every t
    # an atom, and the identity table's totals too
    X, spec = TABLE_LAWS[case](), bf.zero_bias_spec()
    panels = _construction_panels(X, spec, 3)
    old = TwoSumTailTable(X, transform._identity_loads(spec, 3, 0.0), panels, spec.quad_points)
    ts = np.concatenate((np.linspace(-6.0, 6.0, 241), [-1.5, -0.25, 0.0, 0.3, 0.75, 1.0, 2.0],
                         [-np.inf, np.inf], [node] if math.isfinite(node) else []))
    for rows in (1, 3):
        new = D._TailTable(X, transform._identity_loads(spec, rows, 0.0), node, panels,
                           spec.quad_points, rows)
        assert _bits(new(ts)) == _bits(old(ts, node)[:rows])
        assert _bits(new(0.3)) == _bits(old(0.3, node)[:rows])
        if node == -np.inf:
            assert _bits(new.total) == _bits(old.total[:rows])


def test_a_one_node_base_in_a_chain_reads_one_row():
    # the zero bias of the uniform lifted to order 5: the base's density, which
    # the chain's draw tilts, reads row B at its node 0 alone, the chain's
    # density all five rows at -inf
    stacks = []
    load = D._TailTable._load

    def spy(self, x):
        out = load(self, x)
        stacks.append((self.node, len(out)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D._TailTable, "_load", spy)
        t = bf.bias_to_order(bf.uniform(-1, 1), bf.zero_bias_spec(), 5)
        t.sample(1000, bf.RandomSource(3))
        assert stacks and set(stacks) == {(0.0, 1)}
        t.density(np.linspace(-1.0, 1.0, 9))
        assert set(stacks) == {(0.0, 1), (-np.inf, 5)}


@pytest.mark.parametrize("case", sorted(TABLE_LAWS) + ["two-atoms"])
def test_every_tail_read_is_nan_at_nan(case):
    # NaN sorts past every atom and is no t >= node: an atom table read the
    # lower tail of every atom there, so the one-node density of the atoms
    # {-1, 0.5} was 0.4 at NaN
    X = bf.from_atoms([(-1, 0.5), (0.5, 0.5)]) if case == "two-atoms" else TABLE_LAWS[case]()
    spec = bf.zero_bias_spec()
    t = bf.bias(X, spec)
    assert math.isnan(t.density(math.nan))
    vals = t.density(np.array([-0.5, np.nan, 0.25]))
    assert np.isnan(vals[1]) and np.isfinite(vals[[0, 2]]).all()
    for node in (-np.inf, 0.0, 0.3):
        tails = D._TailTable(X, transform._identity_loads(spec, 2, 0.0), node)
        assert np.isnan(tails(np.array([np.nan, 0.1]))[:, 0]).all()


@pytest.mark.parametrize("law", ["two-atoms", "normal", "table"])
def test_the_pointwise_oracles_are_nan_at_nan(law):
    # the oracles of the one-node and second-order densities agree with the
    # laws' tables at NaN: the atoms and the table read -0.0 there (NaN is
    # no t >= node), and density_k1 on normal() probed [lo, NaN] and raised
    # NonIntegrable
    X = {"two-atoms": lambda: bf.from_atoms([(-1, 0.5), (0.5, 0.5)]), "normal": bf.normal,
         "table": lambda: bf.bias(bf.uniform(-1, 1), _product_spec((-0.5, 0.5))).law}[law]()
    spec = bf.zero_bias_spec()
    assert math.isnan(bf.density_k1(X, spec, math.nan))
    assert math.isnan(bf.second_order_density(X, lambda x: np.ones_like(np.asarray(x, float)),
                                              spec.bias, 0.0, math.nan))


def _product_spec(nodes):
    """B(x) = prod(x - x_j) at the nodes x_j: the tilt weight is its square."""
    def B(x):
        arr = np.asarray(x, float)
        out = np.ones_like(arr)
        for xj in nodes:
            out = out * (arr - xj)
        return out
    return SignChangeSpec(B, NodeSet(nodes))


IDENTITY_CASES = {
    "uniform-k2": lambda: bf.bias(bf.uniform(-1, 1), _product_spec((-0.5, 0.5))),
    "uniform-k3": lambda: bf.bias(bf.uniform(-1, 1), _product_spec((-0.6, 0.0, 0.6))),
    "uniform-order-2": lambda: bf.bias_to_order(bf.uniform(-1, 1), bf.unit_bias_spec(), 2),
    "uniform-order-4": lambda: bf.bias_to_order(bf.uniform(-1, 1), bf.unit_bias_spec(), 4),
    "normal-order-3": lambda: bf.bias_to_order(bf.normal(), bf.zero_bias_spec(), 3),
}


@pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
def test_identity_tables_match_the_per_weight_tables(monkeypatch, case):
    # the stacked table from 64 start panels against the table of one
    # callable per weight from a 1025-point grid
    law = IDENTITY_CASES[case]().law
    ts = np.linspace(law.lo, law.hi, 513)
    got = law.density(ts)
    built = []
    monkeypatch.setattr(transform, "_TailTable",
                        lambda X, weights, node=-np.inf, panels=None, points=(), rows=None:
                        built.append(1) or PerWeightTailTable(X, weights, (), node))
    ref = IDENTITY_CASES[case]().law.density(ts)
    assert built
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("nodes, m", [((), 2), ((), 4), ((0.0,), 3)])
def test_identity_table_evaluates_the_bias_once_per_panel_call(monkeypatch, nodes, m):
    # the weights B(x) (x - c)^j, j < m, are one running product: one call
    # of B per call of the panel rule, in the pass and in the table's reads
    # alike, and one more in the pass on the points that check the window's
    # tails
    calls, rules = [], []

    def B(x):
        calls.append(np.shape(x))
        return np.asarray(x, float) if nodes else np.ones_like(np.asarray(x, float))

    X, spec = bf.normal(), SignChangeSpec(B, NodeSet(nodes))
    beta = bf.beta_of(X, spec, m)
    rule = D._gauss_legendre

    def counting(fv, a, b):
        rules.append(1)
        return rule(fv, a, b)

    monkeypatch.setattr(D, "_gauss_legendre", counting)
    calls.clear()
    tails = D._TailTable(X, transform._identity_loads(spec, m, 0.0), points=spec.quad_points)
    transform._identity_table(X, spec, m, beta, 0.0, tails)
    assert rules and len(calls) == len(rules) + 1


def test_one_node_oracle_reads_a_lazily_built_table():
    # the order-2 lift's density is a table built on first use; the oracle
    # integrates it by the table's own rule, the law's panel table by the
    # panels with the grid as break points: two routes that agree
    lifted = bf.bias_to_order(bf.uniform(-1, 1), bf.unit_bias_spec(), 2).law
    assert isinstance(lifted.density, bf.distributions._Lazy)
    spec = SignChangeSpec(lambda x: np.asarray(x, float) - 0.1, NodeSet((0.1,)))
    t = bf.bias(lifted, spec)
    ts = np.array([-0.7, -0.2, 0.4, 0.9])
    ref = np.array([bf.density_k1(lifted, spec, s, alpha=t.alpha) for s in ts])
    assert np.max(np.abs(t.density(ts) - ref)) <= 1e-13


@pytest.mark.parametrize("make_law", [
    lambda: bf.from_atoms([(-1.5, 0.2), (-0.25, 0.3), (0.0, 0.1), (0.75, 0.15), (2.0, 0.25)]),
    lambda: bf.from_samples(np.random.default_rng(4).normal(size=5000)),
])
def test_one_node_density_of_atoms_and_samples_is_the_masked_sum(make_law):
    X = make_law()
    spec = bf.zero_bias_spec()
    t = bf.bias(X, spec)
    xs = X.samples if X.samples is not None else np.array([x for x, _ in X.atoms])
    ts = np.concatenate((np.linspace(xs.min() - 1, xs.max() + 1, 57), xs[:5], [0.0]))
    ref = np.array([bf.density_k1(X, spec, s, alpha=t.alpha) for s in ts])
    np.testing.assert_allclose(t.density(ts), ref, rtol=1e-12, atol=0.0)


def test_one_node_construction_read_and_moments_take_one_panel_pass(construction_calls):
    # the tilt's pass carries the density's tail row and the seed moment
    # rows, so the first read only sums its panels and the moments read the
    # record: the one pass is the construction's (two when the seed moments
    # took a pass of their own, three when the table did too)
    t = bf.bias(bf.normal(), bf.zero_bias_spec())
    t.density(np.linspace(t.law.lo, t.law.hi, 257))
    bf.recipe_moments(t.recipe, 4)
    assert construction_calls["panels"] == 1
    bf.recipe_moments(t.recipe, 5)  # beyond the record: one pass over the seed law
    assert construction_calls["panels"] == 2


RIDING_CASES = {
    "normal-zero-bias": lambda: bf.bias(bf.normal(), bf.zero_bias_spec()),
    "exponential-sign": lambda: bf.bias(bf.exponential(1.0), sign_spec_at_zero()),
    "half-normal-mixture": lambda: bf.bias(bf.make_mixture(
        [bf.half_normal(1.2), bf.negative_half_normal(1.2)], [0.3, 0.7]), bf.zero_bias_spec()),
    "uniform-xplus": lambda: bf.bias(bf.uniform(-1, 1), x_plus_spec(0.0)),
    "atoms-and-uniform": lambda: bf.bias(bf.make_mixture(
        [bf.from_atoms([(0, 0.5), (1, 0.5)]), bf.uniform(-1, 1)], [0.5, 0.5]), bf.zero_bias_spec()),
    "uniform-k2": lambda: bf.bias(bf.uniform(-1, 1), _product_spec((-0.5, 0.5))),
    "normal-second-order": lambda: bf.second_order_transform(
        bf.normal(), lambda x: np.ones_like(np.asarray(x, float)), bf.zero_bias_spec()),
}


@pytest.mark.parametrize("case", sorted(RIDING_CASES))
def test_first_read_after_construction_integrates_nothing(monkeypatch, case):
    # the tail rows rode the construction's pass: a first read of 1e5 points
    # (the identity table's 2049 grid points, for two nodes) sums the kept
    # panels and calls no _panels, _start_panels or integrate_fn
    import biasforge.higher as higher
    import biasforge.stein as stein

    t = RIDING_CASES[case]()

    def refuse(*args, **kwargs):
        raise AssertionError("a read integrated")

    for module in (D, transform, higher, stein):
        for name in ("_panels", "_start_panels", "integrate_fn"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    vals = t.density(np.linspace(t.law.lo, t.law.hi, 100_001))
    assert np.isfinite(vals).all() and vals.max() > 0.0


def test_one_node_panel_table_built_once_under_concurrent_reads(monkeypatch):
    builds = []
    build = transform._TailTable

    def counting(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(transform, "_TailTable", counting)
    t = bf.bias(bf.normal(), bf.zero_bias_spec())
    values = call_concurrently(lambda: t.density(0.25))
    assert len(builds) == 1
    assert len(set(values)) == 1


def test_mixture_of_atoms_and_density_has_densities():
    # a mixture without a density: its components' tables are summed by weight
    parts, weights = [bf.from_atoms([(0, 0.5), (1, 0.5)]), bf.uniform(-1, 1)], [0.5, 0.5]
    X = bf.make_mixture(parts, weights)
    spec = bf.zero_bias_spec()
    one_node = bf.bias(X, spec)
    ts = np.array([-0.9, -0.4, 0.0, 0.1, 0.55, 0.99])
    ref = sum(w * np.array([bf.density_k1(c, spec, s, alpha=one_node.alpha) for s in ts])
              for c, w in zip(parts, weights))
    assert np.max(np.abs(one_node.density(ts) - ref)) <= 1e-9

    # each density carries its defining identity, checked by trapezoid on the
    # law and exactly on the atoms: E[X (f(X) - f(0))] = alpha E[f'(Z)] and
    # E[f(X) - f(a) - f'(a)(X - a)] = beta E[f''(Z)] with f = exp
    a = 0.2
    second = bf.second_difference_transform(X, a)
    on_atoms = lambda g: 0.5 * (0.5 * g(0.0) + 0.5 * g(1.0))
    on_uniform = lambda g: 0.5 * quad(g, -1, 1)[0] / 2
    expect = lambda g: on_atoms(g) + on_uniform(g)

    def integral(p, jump):  # of exp(t) p(t) over [-1, 1], split where p jumps
        return sum(np.trapezoid(np.exp(grid) * p(grid), grid)
                   for grid in (np.linspace(-1, jump - 1e-12, 20001), np.linspace(jump, 1, 20001)))

    # the densities jump at the node by E[X]/alpha and at a by E[X - a]/beta
    lhs1 = expect(lambda x: x * (math.exp(x) - 1.0))
    rhs1 = one_node.alpha * integral(one_node.density, 0.0)
    assert rhs1 == pytest.approx(lhs1, abs=1e-6)
    lhs2 = expect(lambda x: math.exp(x) - math.exp(a) - math.exp(a) * (x - a))
    rhs2 = second.alpha * integral(second.density, a)
    assert rhs2 == pytest.approx(lhs2, abs=1e-6)


def test_one_node_law_tables_keep_both_limits_at_a_node_jump():
    # the zero-bias density of this mixture jumps at its node 0 from 0.3 to
    # 0.9, and F(0-) = 0.2 exactly; a table without the left limit smears
    # the jump over one grid cell
    X = bf.make_mixture([bf.from_atoms([(0, 0.5), (1, 0.5)]), bf.uniform(-1, 1)], [0.5, 0.5])
    law = bf.bias(X, bf.zero_bias_spec()).law
    assert bf.numeric_cdf(law)(np.nextafter(0.0, -1.0)) == pytest.approx(0.2, abs=1e-6)
    assert bf.cache_density(law).density.raw_mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("build", ["bias", "beta_of", "moment_via_coefficients",
                                   "second_order_transform"])
def test_library_integrands_evaluate_arrays(build):
    # the library's own integrands take whole arrays, so the tail probe of
    # an infinite support is one call, not one call per probe point
    calls = []

    def counted(x):
        calls.append(1)
        return np.asarray(x, float)

    spec = SignChangeSpec(counted, NodeSet((0.0,)))
    if build == "bias":
        bf.bias(bf.normal(), spec)
    elif build == "beta_of":
        bf.beta_of(bf.normal(), spec, 3)
    elif build == "moment_via_coefficients":
        moment_via_coefficients(bf.normal(), spec, 2)
    else:
        bf.second_order_transform(bf.normal(), lambda x: 1.0 + counted(x) ** 2, spec)
    assert len(calls) < 2000
