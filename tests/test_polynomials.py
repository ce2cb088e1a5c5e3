import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biasforge as bf
from biasforge import (
    NodeSet,
    PiecewisePoly,
    Polynomial,
    complete_homogeneous,
    correction_poly,
    interp_coeff,
    lagrange_poly,
)
from biasforge.cli import parse_bias
from primitives import (
    iterated_antiderivative,
    lagrange_value,
    numpy_add,
    numpy_antiderivative,
    numpy_derivative,
    numpy_mul,
    numpy_sub,
    piecewise_value,
    power_sum_ratio,
    sign_compatible_primitive,
)


def nodes_strategy(max_k=6, lo=-3.0, hi=3.0, min_gap=1e-2):
    def build(raw):
        xs = sorted(raw)
        kept = [xs[0]]
        for x in xs[1:]:
            if x - kept[-1] >= min_gap:
                kept.append(x)
        return tuple(kept)

    return st.builds(build, st.lists(st.floats(lo, hi, allow_nan=False),
                                     min_size=1, max_size=max_k, unique=True))


# ---------------------------------------------------------------------------
# Polynomial / NodeSet basics
# ---------------------------------------------------------------------------

def test_polynomial_canonical_form():
    p = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert p.coeffs == (1.0, 2.0)
    assert Polynomial((0.0, 0.0)).coeffs == ()
    assert Polynomial(()).degree == -1
    assert Polynomial(())(3.0) == 0.0


def test_polynomial_arithmetic():
    p = Polynomial((1.0, 1.0))  # 1 + x
    q = Polynomial((0.0, 1.0))  # x
    assert (p * q).coeffs == (0.0, 1.0, 1.0)
    assert (p + q).coeffs == (1.0, 2.0)
    assert p.derivative().coeffs == (1.0,)
    assert q.antiderivative().coeffs == (0.0, 0.0, 0.5)
    assert Polynomial.monomial(3)(2.0) == 8.0


def _random_polys(seed, count, max_terms=10):
    """Random coefficient tuples of 1 to ``max_terms`` terms over six
    decades, with zeros and negative zeros mixed in."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_terms + 1))
        c = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
        c[rng.random(n) < 0.15] = 0.0
        c[rng.random(n) < 0.05] = -0.0
        out.append(Polynomial(tuple(c.tolist())))
    return out


def _bits(p):
    return np.asarray(p.coeffs, dtype=float).tobytes()


def test_polynomial_algebra_is_bit_identical_to_numpy():
    ps, qs = _random_polys(1, 2000), _random_polys(2, 2000)
    ps[:3], qs[-3:] = [Polynomial(())] * 3, [Polynomial(())] * 3  # zero operands
    for p, q in zip(ps, qs):
        assert _bits(p + q) == _bits(numpy_add(p, q))
        assert _bits(p - q) == _bits(numpy_sub(p, q))
        assert _bits(q - p) == _bits(numpy_sub(q, p))
        assert _bits(p.scale(-0.37)) == _bits(Polynomial(tuple(-0.37 * c for c in p.coeffs)))
        assert _bits(p.antiderivative()) == _bits(numpy_antiderivative(p))
        for order in (1, 2, 3):
            assert _bits(p.derivative(order)) == _bits(numpy_derivative(p, order))


def test_polynomial_algebra_product_with_a_short_factor_is_bit_identical():
    # every sum of the convolution has at most two products, whose sum does
    # not depend on their order: the bits of numpy.convolve
    longs, shorts = _random_polys(3, 2000), _random_polys(4, 2000, max_terms=2)
    shorts[:3] = [Polynomial(())] * 3
    for p, q in zip(longs, shorts):
        assert _bits(p * q) == _bits(numpy_mul(p, q))
        assert _bits(q * p) == _bits(numpy_mul(q, p))


def test_polynomial_algebra_product_of_long_factors_within_the_summation_bound():
    # with two factors of 3 or more terms, numpy.convolve's BLAS dot product
    # may sum in another order.  The products are rounded once either way,
    # and a sum of n terms errs by at most gamma_n = n u / (1 - n u) of the
    # sum of their magnitudes (u = 2^-53, Higham, Accuracy and Stability of
    # Numerical Algorithms, 3.1), so the two routes differ by at most
    # 2 gamma_n sum |a_i b_j|, n the number of products in the coefficient
    u = 2.0 ** -53
    for p, q in zip(_random_polys(5, 1000), _random_polys(6, 1000)):
        if min(len(p.coeffs), len(q.coeffs)) < 3:
            continue
        a, b = np.asarray(p.coeffs), np.asarray(q.coeffs)
        got, want = np.asarray((p * q).coeffs), np.asarray(numpy_mul(p, q).coeffs)
        assert got.size == want.size == a.size + b.size - 1
        magnitude = np.convolve(np.abs(a), np.abs(b))
        terms = np.convolve(np.ones(a.size), np.ones(b.size))
        gamma = terms * u / (1.0 - terms * u)
        assert np.all(np.abs(got - want) <= 2.0 * gamma * magnitude)


def test_polynomial_point_call_is_bit_identical_to_the_array_pass():
    # a single point runs Horner on Python floats, an array in numpy buffers
    points = np.concatenate([np.random.default_rng(7).uniform(-3.0, 3.0, 50),
                             [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan]])
    with np.errstate(over="ignore", invalid="ignore"):
        for p in _random_polys(8, 300) + [Polynomial(())]:
            along = p(points)
            for i, x in enumerate(points):
                for point in (float(x), np.float64(x), np.array(x)):
                    got = p(point)
                    assert type(got) is float
                    assert np.float64(got).tobytes() == along[i].tobytes()


def test_polynomial_constant_is_itself_at_infinity_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Polynomial((1.0,))(np.inf) == 1.0
        assert Polynomial((-2.5,))(-np.inf) == -2.5
        assert Polynomial((1.0, -1.0))(np.inf) == -np.inf
        assert Polynomial((3.0, 0.0, 1.0))(-np.inf) == np.inf
        assert Polynomial((0.0, 0.0, 0.0, 2.0))(np.array([-np.inf, np.inf])).tolist() \
            == [-np.inf, np.inf]
        assert Polynomial(())(np.inf) == 0.0


def test_nodeset_rejects_close_nodes():
    with pytest.raises(bf.InputError):
        NodeSet((0.0, 1e-9))
    assert len(NodeSet(())) == 0


# ---------------------------------------------------------------------------
# Lagrange interpolation
# ---------------------------------------------------------------------------

def test_lagrange_line_through_two_points():
    assert lagrange_poly((0.0, 1.0), (0.0, 1.0)).coeffs == (0.0, 1.0)


def test_lagrange_constant_one_partition_of_unity():
    p = lagrange_poly((-0.3, 0.7, 1.9), (1.0, 1.0, 1.0))
    assert p.coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert all(abs(c) <= 1e-12 for c in p.coeffs[1:])


def test_lagrange_reproduces_quadratic():
    p = lagrange_poly((1.0, 2.0, 3.0), (1.0, 4.0, 9.0))
    assert np.allclose(p.coeffs, (0.0, 0.0, 1.0), atol=1e-12)


def test_lagrange_empty_nodes_is_zero():
    assert lagrange_poly((), ()).coeffs == ()
    assert lagrange_value((), (), 1.7) == 0.0


@settings(max_examples=60, deadline=None)
@given(nodes_strategy(max_k=5))
def test_lagrange_unity_property(nodes):
    p = lagrange_poly(nodes, [1.0] * len(nodes))
    assert p(0.37) == pytest.approx(1.0, abs=1e-9)
    assert lagrange_value(nodes, [1.0] * len(nodes), 0.37) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(nodes_strategy(max_k=5), st.floats(-3, 3, allow_nan=False))
def test_barycentric_matches_dense_form(nodes, x):
    rng = np.random.default_rng(0)
    vals = rng.uniform(-1, 1, len(nodes))
    dense = lagrange_poly(nodes, vals)(x)
    bary = lagrange_value(nodes, vals, x)
    assert bary == pytest.approx(dense, rel=1e-7, abs=1e-7)


# ---------------------------------------------------------------------------
# interpolation-residual coefficients
# ---------------------------------------------------------------------------

def test_interp_coeff_hand_values():
    # both routes on two nodes {1, 2}: x1 + x2 = 3 and the degree-0 sum 1;
    # the power-sum form of (i, j) is the ratio at exponent k + j - i - 1
    assert power_sum_ratio((1.0, 2.0), 2) == pytest.approx(3.0)
    assert interp_coeff((1.0, 2.0), 0, 1) == pytest.approx(3.0)
    assert power_sum_ratio((1.0, 2.0), 1) == pytest.approx(1.0)
    assert interp_coeff((1.0, 2.0), 1, 1) == pytest.approx(1.0)


def test_power_sum_vanishing_low_exponents():
    # exponent n <= k-2 kills the sum; n = k-1 gives 1 (monic leading quotient)
    assert power_sum_ratio((0.0, 1.0, 2.0), 1) == pytest.approx(0.0, abs=1e-12)
    assert power_sum_ratio((0.0, 1.0, 2.0), 2) == pytest.approx(1.0, abs=1e-12)


def test_complete_homogeneous_small_cases():
    assert complete_homogeneous((1.0, 2.0), 2) == pytest.approx(1 + 2 + 4)  # x^2, xy, y^2
    assert complete_homogeneous((5.0,), 0) == 1.0
    assert complete_homogeneous((5.0,), -1) == 0.0


# the divided-difference route loses ~5 digits per clustered node pair, so the
# adversarial-input property keeps a 0.1 separation; the acceptance suite
# checks the 1e-2-gap regime on random (non-adversarial) node sets
@settings(max_examples=120, deadline=None)
@given(nodes_strategy(min_gap=0.1))
def test_coefficient_method_equivalence(nodes):
    for i in range(0, 7):
        for j in range(i, 7):
            ps = power_sum_ratio(nodes, len(nodes) + j - i - 1)
            sym = interp_coeff(nodes, i, j)
            assert abs(ps - sym) <= 1e-9 * (1 + abs(sym))


@settings(max_examples=120, deadline=None)
@given(nodes_strategy(min_gap=0.1))
def test_power_sum_vanishing_property(nodes):
    k = len(nodes)
    for n in range(0, max(k - 1, 0)):
        assert abs(power_sum_ratio(nodes, n)) <= 1e-9


# ---------------------------------------------------------------------------
# correction polynomial
# ---------------------------------------------------------------------------

def test_correction_poly_matched_order_is_zero():
    assert correction_poly((), (0.5, 1.5), 2).coeffs == ()


def test_correction_poly_no_nodes_is_maclaurin():
    assert correction_poly((0.0, 0.0), (), 2).coeffs == ()
    assert correction_poly((1.0, 1.0), (), 2).coeffs == (1.0, 1.0)
    p = correction_poly((2.0, 0.0, 6.0, 0.0), (), 4)
    assert np.allclose(p.coeffs, (2.0, 0.0, 3.0), atol=1e-12)  # 2 + 3x^2


def test_correction_poly_parity_guard():
    with pytest.raises(bf.ParityMismatch):
        correction_poly((1.0,), (0.0,), 2)
    with pytest.raises(bf.InputError):
        correction_poly((1.0,), (), 2)  # wrong derivative count


def test_correction_poly_single_node_quadratic():
    # test function x^2 with one node at 1, order 3: the correction is x^2 - 1,
    # so that (function - correction - interpolant) vanishes identically
    p = correction_poly((0.0, 2.0), (1.0,), 3)
    assert np.allclose(p.coeffs, (-1.0, 0.0, 1.0), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(nodes_strategy(max_k=3), st.integers(0, 2))
def test_correction_kills_low_degree_functions(nodes, extra):
    # for F of degree < m the order-m identity has zero right side, so
    # F - correction - interpolant must vanish identically
    k = len(nodes)
    m = k + 2 * (1 + extra)
    rng = np.random.default_rng(k + extra)
    F = Polynomial(tuple(rng.uniform(-1, 1, m)))  # degree <= m-1
    derivs = [F.derivative(j)(0.0) for j in range(k, m)]
    R = correction_poly(derivs, nodes, m)
    L = lagrange_poly(nodes, [F(x) for x in nodes])
    xs = np.linspace(-2, 2, 11)
    residual = F(xs) - R(xs) - L(xs)
    assert np.max(np.abs(residual)) <= 1e-8 * max(1.0, np.max(np.abs(F(xs))))


# ---------------------------------------------------------------------------
# iterated antiderivatives and sign-compatible primitives
# ---------------------------------------------------------------------------

def test_iterated_antiderivative_constant():
    one = lambda t: 1.0
    assert iterated_antiderivative(one, 0.0, 2, 3.0) == pytest.approx(4.5, rel=1e-10)
    assert iterated_antiderivative(one, 1.0, 2, -1.0) == pytest.approx(2.0, rel=1e-10)
    assert iterated_antiderivative(math.cos, 0.0, 1, math.pi / 2) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_iterated_antiderivative_differentiates_back(m):
    f = lambda t: math.exp(-t) * (t**2 + 1)
    a, h = 0.0, 1e-3
    for x in (0.5, 1.0, 1.7):
        vals = [iterated_antiderivative(f, a, m, x + s * h) for s in range(-m, m + 1)]
        d = np.array(vals)
        for _ in range(m):
            d = (d[2:] - d[:-2]) / (2 * h)
        assert d[0] == pytest.approx(f(x), abs=1e-4)


def test_sign_compatible_primitive_hand_values():
    one = lambda t: 1.0
    # two nodes +-1: double primitive anchored at 1 minus the secant line
    assert sign_compatible_primitive(one, (-1.0, 1.0), 0.0) == pytest.approx(-0.5, rel=1e-9)
    assert sign_compatible_primitive(one, (0.0,), 2.0) == pytest.approx(2.0, rel=1e-9)
    assert sign_compatible_primitive(one, (-1.0, 1.0), 1.0) == pytest.approx(0.0, abs=1e-10)
    assert sign_compatible_primitive(one, (-1.0, 1.0), -1.0) == pytest.approx(0.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(nodes_strategy(max_k=4, lo=-2.0, hi=2.0, min_gap=0.3), st.integers(0, 4))
def test_sign_compatible_primitive_alternates(nodes, qseed):
    rng = np.random.default_rng(qseed)
    q = Polynomial(tuple(rng.uniform(-1, 1, 3)))
    f = lambda t: q(t) ** 2  # nonnegative
    m = len(nodes)
    edges = (nodes[0] - 1.0,) + tuple(nodes) + (nodes[-1] + 1.0,)
    for k in range(1, m + 2):  # intervals J_1 ... J_{m+1}
        x = 0.5 * (edges[k - 1] + edges[k])
        val = sign_compatible_primitive(f, nodes, x)
        assert (-1) ** (m + 1 - k) * val >= -1e-8
    for x in nodes:
        assert abs(sign_compatible_primitive(f, nodes, x)) <= 1e-8


# ---------------------------------------------------------------------------
# piecewise polynomials
# ---------------------------------------------------------------------------

def test_piecewise_linear_interpolant_and_derivative():
    f = PiecewisePoly.linear_interpolant((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))
    assert f(0.5) == pytest.approx(0.5)
    assert f(1.5) == pytest.approx(0.5)
    assert f(-3.0) == 0.0  # constant extension of the edge value
    assert f(5.0) == 0.0
    d = f.derivative()
    assert d(0.5) == pytest.approx(1.0)
    assert d(1.5) == pytest.approx(-1.0)


def test_piecewise_antiderivative_is_continuous_and_anchored():
    f = PiecewisePoly.linear_interpolant((0.0, 1.0, 2.0), (0.0, 1.0, 0.0), extend="zero")
    F = f.antiderivative(anchor=0.0)
    assert F(0.0) == pytest.approx(0.0, abs=1e-14)
    for b in (1.0, 2.0):
        assert F(b - 1e-9) == pytest.approx(F(b + 1e-9), abs=1e-8)
    assert F(2.0) == pytest.approx(1.0)  # total area of the tent
    assert F(10.0) == pytest.approx(1.0)
    # derivative recovers the tent
    assert F.derivative()(0.5) == pytest.approx(f(0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_piecewise_rejects_a_break_that_is_not_finite(bad):
    # a NaN break passed the increasing check, since every comparison with
    # NaN is false, and then misplaced the points on either side of it
    pieces = tuple(Polynomial((c,)) for c in (1.0, 2.0, 3.0, 4.0))
    with pytest.raises(bf.InputError, match="finite"):
        PiecewisePoly((0.0, bad, 1.0), pieces)
    with pytest.raises(bf.InputError, match="finite"):
        PiecewisePoly((bad,), pieces[:2])


def _mixed_degree():
    """Pieces of degree -1 (zero), 2, -1, 0 and 3 on four breaks."""
    return PiecewisePoly((-1.0, 0.0, 1.0, 2.0),
                         (Polynomial(()), Polynomial((1.0, -2.0, 3.0)), Polynomial(()),
                          Polynomial((0.5,)), Polynomial((0.0, 0.25, 0.0, -1.25))))


def _piecewise_cases():
    bias, _, _ = parse_bias('{"pieces": [{"interval": [-1, 0], "coeffs": [1, 2]},'
                            ' {"interval": [0.5, 2], "coeffs": [0, 0, 3]}]}')
    return {
        "mixed-degree": _mixed_degree(),
        "one-piece": PiecewisePoly((), (Polynomial((0.3, -1.0, 0.7)),)),
        "one-zero-piece": PiecewisePoly((), (Polynomial(()),)),
        "all-zero": PiecewisePoly((0.0,), (Polynomial(()), Polynomial(()))),
        "interpolant-zero": PiecewisePoly.linear_interpolant((-1.0, 0.2, 1.5), (0.0, 0.8, 0.0),
                                                             extend="zero"),
        "interpolant-constant": PiecewisePoly.linear_interpolant((-2.0, -0.3, 0.1, 2.5),
                                                                 (0.4, -0.9, 0.3, 0.6)),
        "cli-bias": bias,
    }


def _same_bits(f, x):
    got, want = f(x), piecewise_value(f, x)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _probe_points(f):
    x = np.random.default_rng(2).uniform(-3.0, 3.0, 100_000)
    bs = np.asarray(f.breaks)
    at_breaks = np.concatenate([bs, np.nextafter(bs, -np.inf), np.nextafter(bs, np.inf)])
    return np.concatenate([x, at_breaks, [0.0, -0.0, 1e75, -1e75]])


@pytest.mark.parametrize("name", sorted(_piecewise_cases()))
def test_piecewise_call_is_bit_identical_to_the_per_piece_route(name):
    f = _piecewise_cases()[name]
    _same_bits(f, _probe_points(f))
    _same_bits(f, 0.37)
    _same_bits(f, -2.5)
    _same_bits(f, np.array(1.0))
    grid = np.linspace(-3.0, 3.0, 35).reshape(5, 7)
    assert f(grid).shape == (5, 7)
    _same_bits(f, grid)
    _same_bits(f, np.empty(0))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_piecewise_bank_members_and_derivatives_bit_identical(m):
    members = [F.fn for F in bf.TestFunctionBank.build(m).members
               if isinstance(F.fn, PiecewisePoly)]
    assert len(members) == (10 if m == 1 else 6)
    for fn in members:
        for j in range(m + 1):
            g = fn.derivative(j)
            _same_bits(g, _probe_points(g))


@pytest.mark.parametrize("name", sorted(_piecewise_cases()))
def test_piecewise_non_finite_inputs_keep_the_per_piece_values(name):
    f = _piecewise_cases()[name]
    x = np.array([-np.inf, np.inf, np.nan, -np.nan, 1e300, -1e300, 0.25, -0.75])
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf and overflow warn in both
        got, want = f(x), piecewise_value(f, x)
        assert [type(f(v)) for v in (-np.inf, np.nan)] == [float, float]
        for v in (-np.inf, np.inf, np.nan):
            assert np.isnan(f(v)) == np.isnan(piecewise_value(f, v))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    assert got[keep].tobytes() == want[keep].tobytes()


def test_piecewise_zero_outer_pieces_are_zero_at_infinity_and_nan():
    # the outer pieces of a zero extension (every CLI piecewise bias) give
    # 0.0 at ±inf and NaN, and every other outer piece its own limit at ±inf
    f = _mixed_degree()
    g = PiecewisePoly((0.0,), (Polynomial((1.0,)), Polynomial(())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f(-np.inf) == 0.0 and math.copysign(1.0, f(-np.inf)) == 1.0
        assert f(np.inf) == -np.inf  # the last piece, 0.25 x - 1.25 x^3
        assert g(np.inf) == 0.0 and g(np.nan) == 0.0  # NaN goes to the last piece
        assert g(-np.inf) == 1.0


def test_piecewise_padded_outer_pieces_take_their_limits_at_infinity():
    # a constant outer piece is padded with a leading zero in the table, and
    # 0 * ±inf is NaN there: such a point is evaluated by its own piece
    f = PiecewisePoly.linear_interpolant((-1.0, 0.5, 2.0), (0.4, -0.3, 0.6))
    x = np.array([-np.inf, -1.0, 0.0, np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = f(x)
        assert (f(-np.inf), f(np.inf)) == (0.4, 0.6)
    # NaN goes to the last piece, a constant, which does not read x
    assert got[[0, 1, 3, 4]].tolist() == [0.4, 0.4, 0.6, 0.6]
    assert got[2] == piecewise_value(f, 0.0)


def test_piecewise_equality_hash_and_repr_ignore_the_table():
    a, b = _mixed_degree(), _mixed_degree()
    assert a == b and hash(a) == hash(b)
    assert "_table" not in repr(a)
    assert a._table.shape == (4, 5) and not a._table.flags.writeable
    assert a._table[:, 0].tolist() == [0.0] * 4  # a zero piece is an all-zero column
    assert a._table[:, 1].tolist() == [0.0, 3.0, -2.0, 1.0]  # padded, highest power first
