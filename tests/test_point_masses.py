"""Point-mass laws stored as two read-only arrays, checked against routes
that do not share their code: the dict merge the arrays replaced,
``math.fsum``, per-atom Python sums, and draws pinned bit for bit."""

import hashlib
import math

import numpy as np
import pytest

import biasforge as bf
from biasforge.errors import DegenerateAlpha, DegenerateBeta
from biasforge.verify import _lhs_polynomials, random_discrete, random_valid_spec, zero_bias_spec


def dict_merge(pairs):
    """Reference merge: one running sum per location in input order, sorted
    by location, nonpositive totals dropped."""
    merged = {}
    for x, m in pairs:
        x, m = float(x), float(m)
        merged[x] = merged.get(x, 0.0) + m
    atoms = sorted((x, m) for x, m in merged.items() if m > 0.0)
    return np.array([x for x, _ in atoms]), np.array([m for _, m in atoms])


def reference_tilt(pairs, w):
    """Reweighting of the dict-merged atoms, each new mass formed on its own."""
    xs, ms = dict_merge(pairs)
    wx = np.clip(w(xs), 0.0, None)
    z = float(np.sum(ms * wx))
    return dict_merge([(x, m * wi / z) for x, m, wi in zip(xs, ms, wx) if m * wi > 0.0])


def square_plus_half(x):
    return np.asarray(x, dtype=float) ** 2 + 0.5


def repeated_samples():
    """5e4 seeded normal draws rounded to 0.01, so most values repeat."""
    return np.round(np.random.default_rng(11).normal(0.3, 1.1, 50_000), 2)


def assert_same_arrays(law, ref):
    assert np.array_equal(law.locs, ref[0])
    assert np.array_equal(law.masses, ref[1])


def test_from_atoms_matches_the_dict_merge_on_unsorted_duplicates():
    rng = np.random.default_rng(5)
    locs = rng.integers(-20, 20, 400) / 8.0
    masses = rng.uniform(0.1, 1.0, 400)
    pairs = list(zip(locs.tolist(), (masses / masses.sum()).tolist()))
    law = bf.from_atoms(pairs)
    assert law.locs.size < len(pairs)
    assert_same_arrays(law, dict_merge(pairs))


def test_empirical_tilt_matches_the_dict_merge():
    samples = repeated_samples()
    n = samples.size
    law = bf.tilt(bf.from_samples(samples), square_plus_half)
    assert law.locs.size < n
    assert_same_arrays(law, reference_tilt([(x, 1.0 / n) for x in samples], square_plus_half))


def test_atom_tilt_and_mixture_merge_match_the_dict_merge():
    pairs = [(0.5, 0.2), (-1.0, 0.3), (2.0, 0.1), (0.5, 0.15), (3.25, 0.25)]
    assert_same_arrays(bf.tilt(bf.from_atoms(pairs), square_plus_half),
                       reference_tilt(pairs, square_plus_half))
    a, b = bf.from_atoms(pairs), bf.from_atoms([(2.0, 0.5), (0.25, 0.5)])
    mix = bf.make_mixture([a, b], [0.3, 0.7])
    ref = dict_merge([(x, w * m) for law, w in ((a, np.float64(0.3)), (b, np.float64(0.7)))
                      for x, m in law.atoms])
    assert_same_arrays(mix, ref)


@pytest.mark.parametrize("fn", [
    bf.Polynomial((0.3, -1.0, 0.0, 2.0)),
    lambda x: math.cos(3.0 * x) + x,  # scalar only: evaluated atom by atom
    lambda x: abs(x),
], ids=["cubic", "scalar-only-cos", "abs"])
def test_atom_expectation_agrees_with_fsum(fn):
    rng = np.random.default_rng(3)
    for _ in range(50):
        X = random_discrete(rng)
        terms = [m * float(fn(x)) for x, m in X.atoms]
        err = abs(bf.expectation(X, fn) - math.fsum(terms))
        assert err <= 1e-15 * math.fsum(abs(t) for t in terms)


def test_exact_identity_left_side_agrees_with_a_per_atom_sum():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 60:
        k = int(rng.integers(0, 4))
        X, spec = random_discrete(rng), random_valid_spec(rng, k)
        F = bf.Polynomial.monomial(int(rng.integers(0, 7)))
        try:
            rep = bf.check_identity_exact(X, spec, k, F)
        except (DegenerateAlpha, DegenerateBeta):
            continue
        L, R = _lhs_polynomials(spec, k, F)
        terms = [m * float(spec.bias(x)) * (F(x) - R(x) - L(x)) for x, m in X.atoms]
        # relative to the sum of magnitudes: the sum itself may cancel
        assert abs(rep.lhs - sum(terms)) <= 1e-14 * max(math.fsum(map(abs, terms)), 1e-300)
        checked += 1


@pytest.mark.parametrize("build", [
    lambda: bf.from_atoms([(1.0, 0.5), (0.0, 0.5)]),
    lambda: bf.dirac(2.0),
    lambda: bf.tilt(bf.from_samples([0.0, 1.0, 1.0, 3.0]), square_plus_half),
    lambda: bf.make_mixture([bf.dirac(0.0), bf.dirac(1.0)], [0.5, 0.5]),
], ids=["from-atoms", "dirac", "empirical-tilt", "mixture"])
def test_stored_arrays_are_read_only_and_atoms_are_float_pairs(build):
    law = build()
    with pytest.raises(ValueError):
        law.locs[0] = 9.0
    with pytest.raises(ValueError):
        law.masses[0] = 0.5
    assert all(len(a) == 2 and type(a[0]) is float and type(a[1]) is float for a in law.atoms)
    assert [x for x, _ in law.atoms] == sorted(set(law.locs.tolist()))


def test_from_atoms_rejects_pairs_of_the_wrong_shape():
    with pytest.raises(bf.InputError):
        bf.from_atoms([(0.0, 0.5, 1.0), (1.0, 0.5, 1.0)])
    with pytest.raises(bf.InputError):
        bf.from_atoms([])


# sha256 of the first 1e4 draws at seed 20261018, recorded before the arrays
# replaced the tuple of pairs: the draws must not move by a single bit.  The
# inverse-CDF tilt's was recorded again when its table came to span the
# tilt's own window, [0, 42.43], not the exponential's (the draws moved by
# at most 1.0e-4)
PINNED = {
    "atoms": "46c8cd4ab7ce9f6a053f5d4850d58d6be6b3b0dd258cb89a8167ffea377c0188",
    "tilted-empirical": "39d873536d5eccbed730339a8bbd087568537691569f432755e1845066adfd14",
    "empirical-zero-bias": "8c1fe2126c12f3fad1d289986cd202aecd8ec67a01cc295be580ea6d4cc7cf91",
    "inverse-cdf-tilt": "6e140ec92ae784f661946c62edc02b8b48692e94796947b101b8b4eb6fd9dfa4",
}


def pinned_law(name):
    if name == "atoms":
        return bf.from_atoms([(0.5, 0.2), (-1.0, 0.3), (2.0, 0.1), (0.5, 0.15), (3.25, 0.25)])
    if name == "tilted-empirical":
        return bf.tilt(bf.from_samples(repeated_samples()), lambda x: x ** 2 + 0.5)
    if name == "empirical-zero-bias":
        return bf.bias(bf.from_samples(repeated_samples()), zero_bias_spec()).law
    return bf.tilt(bf.exponential(1.0), lambda x: x)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_draws_are_pinned(name):
    draws = bf.sample(pinned_law(name), bf.RandomSource(20261018), 10_000)
    assert hashlib.sha256(np.ascontiguousarray(draws, dtype=float).tobytes()).hexdigest() \
        == PINNED[name]


# ---------------------------------------------------------------------------
# an empirical law is a point-mass law: one route for atoms and samples
# ---------------------------------------------------------------------------

def quarter_below_square():
    """B(x) = x^2 - 1/4 with no nodes: nonnegative on the atoms -1 and 1,
    negative between them."""
    return bf.SignChangeSpec(lambda x: np.asarray(x, dtype=float) ** 2 - 0.25, bf.NodeSet(()))


@pytest.mark.parametrize("build", [
    lambda: bf.from_atoms([(-1.0, 0.5), (1.0, 0.5)]),
    lambda: bf.from_samples([-1.0, 1.0]),
], ids=["atoms", "samples"])
def test_a_spec_is_validated_on_the_points_of_an_empirical_law(build):
    # the sign pattern is probed on the law's points, not on a grid between them
    assert bf.bias(build(), quarter_below_square()).alpha == 0.75


def test_exact_identity_on_samples_equals_it_on_their_atoms():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 20:
        k = int(rng.integers(0, 4))
        values = np.round(rng.uniform(-2.0, 2.0, int(rng.integers(2, 40))), 1)
        spec, F = random_valid_spec(rng, k), bf.Polynomial.monomial(int(rng.integers(0, 7)))
        try:
            atoms = bf.check_identity_exact(
                bf.from_atoms([(v, 1.0 / values.size) for v in values]), spec, k, F)
        except (DegenerateAlpha, DegenerateBeta):
            continue
        empirical = bf.check_identity_exact(bf.from_samples(values), spec, k, F)
        assert (empirical.lhs, empirical.rhs, empirical.passed) == (atoms.lhs, atoms.rhs, True)
        checked += 1


def test_a_constant_sample_of_1e5_values_is_one_atom():
    # its merged mass is a running sum of 1e5 terms 1/n: 1 - 1.9e-12
    law = bf.from_samples(np.zeros(100_000))
    assert law.locs.tolist() == [0.0]
    assert bf.moment(law, 1) == 0.0
    # and its rounding carries over into a mixture with other atoms
    mix = bf.make_mixture([bf.from_samples(np.zeros(400_000)), bf.dirac(1.0)], [0.5, 0.5])
    assert mix.locs.tolist() == [0.0, 1.0]


def test_empirical_expectation_agrees_with_fsum():
    samples = np.random.default_rng(13).normal(0.3, 1.1, 50_000)
    law = bf.from_samples(samples)
    for fn in (lambda x: x ** 3, np.cos, lambda x: np.abs(x - 0.3)):
        terms = [m * float(fn(x)) for x, m in zip(law.locs.tolist(), law.masses.tolist())]
        err = abs(bf.expectation(law, fn) - math.fsum(terms))
        assert err <= 1e-15 * math.fsum(abs(t) for t in terms)


def test_point_mass_moments_have_the_bits_of_the_expectation_route(monkeypatch):
    # moment reads the arrays with the atom sum of expectation: the same bits,
    # with no callable wrapped
    laws = [bf.from_samples(repeated_samples()), bf.dirac(-0.3),
            random_discrete(np.random.default_rng(5))]
    want = [[bf.expectation(X, lambda x, n=n: x ** n).hex() for n in range(1, 7)] for X in laws]
    monkeypatch.setattr(bf.distributions, "as_array_fn", None)
    for X, w in zip(laws, want):
        assert [bf.moment(X, n).hex() for n in range(1, 7)] == w
        assert bf.moment(X, 0) == 1.0


def test_a_mixture_of_atoms_and_samples_is_one_point_mass_law():
    atoms, empirical = bf.from_atoms([(0.5, 0.4), (2.0, 0.6)]), bf.from_samples([0.5, 1.0, 1.0, 3.0])
    mix = bf.make_mixture([atoms, empirical], [0.25, 0.75])
    assert mix.locs is not None and mix.samples is None and mix.components is None
    ref = dict_merge([(x, w * m) for law, w in ((atoms, np.float64(0.25)),
                                                (empirical, np.float64(0.75)))
                      for x, m in law.atoms])
    assert_same_arrays(mix, ref)


def test_empirical_draws_stay_bootstrap_draws_of_the_samples():
    samples = [3.0, 1.0, 1.0, 2.0]
    law = bf.from_samples(samples)
    assert law.locs.tolist() == [1.0, 2.0, 3.0] and law.samples.tolist() == samples
    u = bf.RandomSource(5).uniform(1000)
    expect = np.array(samples)[np.minimum((u * 4).astype(int), 3)]
    assert np.array_equal(bf.sample(law, bf.RandomSource(5), 1000), expect)


def test_a_negative_atom_mass_is_an_input_error():
    # it used to be dropped without a word, leaving a law of the other atoms
    with pytest.raises(bf.InputError, match="nonnegative"):
        bf.from_atoms([(0.0, -0.1), (1.0, 1.0)])


def test_transform_sampling_requires_its_stream():
    t = bf.bias(bf.from_atoms([(-1.0, 0.5), (1.0, 0.5)]), zero_bias_spec())
    with pytest.raises(TypeError):
        t.sample(10)
    with pytest.raises(TypeError):
        bf.bias(bf.dirac(1.0), zero_bias_spec(), rng=bf.RandomSource(1))
