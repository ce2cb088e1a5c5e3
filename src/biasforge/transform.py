"""Construction of sign-change biased distributions.

A biasing function B together with k declared sign-change nodes
x_1 < ... < x_k (the product prod(x - x_j) * B(x) nonnegative on the
support) induces a transformed law: tilt the input by that product to get
a seed variable Y, then shrink through independent factors U_j with
density j*u^{j-1} on (0,1),

    Z_0 = Y,   Z_j = x_j + U_j * (Z_{j-1} - x_j),

and the transform is Z_k.  Its normalizer is
alpha = E[B(X) * prod(X - x_j)] / k!, which is positive whenever the sign
pattern holds and the transform is nondegenerate.  For k >= 1 the result
always has a density: for one node a tail integral of B against the
input law, and for more a table filled from the defining identity at the
truncated power (s - t)_+^{m-1}, whose m-th derivative is the point mass at
t.  Each reads a cumulative table of the input law of its own, at x_1 or
-inf (``distributions._TailTable``): its weights (B, or B(x) (x - c)^j for
j < m), one stack that evaluates B once, ride the construction's own panel
pass over the input law, the tilt's, whose final panels it sums on first
use; an order lift's table sums those of its base's pass.

Node choices matter: when B vanishes on an interval, different declared
nodes give genuinely different transforms, so nodes are always the
caller's explicit input and are never inferred from B.  The built-in
biases (sign, unit, zero-bias, centered, positive part) are defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateAlpha,
    InputError,
    NegativeAlpha,
    SignViolation,
)
from .distributions import (
    NEGATIVE_WEIGHT_TOL,
    Distribution,
    RandomSource,
    TabulatedDensity,
    _Lazy,
    _TailTable,
    _moments,
    _probe_points,
    _shifted,
    _tilt,
    _table_of,
    _weight_ok,
    _zero_normalizer,
    as_array_fn,
    expectation,
    integrate_fn,
    sample,
    shift_moments,
)
from .polynomials import NodeSet, correction_poly, lagrange_poly

NODE_PROBE_EPS = 1e-6
ALPHA_TOL = 1e-12
DENSITY_GRID = 2049
_SEED_MOMENTS = 4  # seed moments E[Y^p], p <= 4 + m - k, that a density's pass records


# ---------------------------------------------------------------------------
# sign-change specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignChangeSpec:
    """A biasing function plus its declared ordered sign-change nodes.

    The tilting weight prod(x - x_j) * B(x) must be nonnegative, so B is
    nonnegative on the last interval; a spec of the opposite sign fails
    validation rather than being silently negated.  ``kinks`` lists
    non-smooth points of the bias other than the nodes (e.g. the origin for
    a positive-part bias declared at a different node); quadrature treats
    them as break points.
    """

    bias: Callable
    nodes: NodeSet = NodeSet(())
    kinks: tuple = ()
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.nodes, NodeSet):
            object.__setattr__(self, "nodes", NodeSet(tuple(self.nodes)))
        object.__setattr__(self, "kinks", tuple(float(x) for x in self.kinks))

    @property
    def k(self) -> int:
        return len(self.nodes)

    @property
    def quad_points(self) -> tuple:
        return tuple(self.nodes) + self.kinks

    def bias_values(self, x):
        return as_array_fn(self.bias)(x)

    def tilt_weight(self, x, b=None):
        """prod(x - x_j) * B(x): the nonnegative tilting weight (``b`` the
        values of B at x, when the caller has them)."""
        arr = np.asarray(x, dtype=float)
        out = np.ones_like(arr, dtype=float)
        for xj in self.nodes:
            out *= arr - xj
        out *= self.bias_values(arr) if b is None else b
        return float(out) if arr.ndim == 0 else out


def sign_spec(a: float = 0.0) -> SignChangeSpec:
    """The sign biasing function with its single change at ``a``."""
    a = float(a)
    return SignChangeSpec(lambda x: np.sign(np.asarray(x, dtype=float) - a),
                          NodeSet((a,)), kinks=(a,), label=f"sign(x-{a})")


def unit_bias_spec() -> SignChangeSpec:
    return SignChangeSpec(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                          NodeSet(()), label="identity")


def zero_bias_spec() -> SignChangeSpec:
    return SignChangeSpec(lambda x: np.asarray(x, dtype=float), NodeSet((0.0,)), label="x")


def centered_bias_spec(mean: float) -> SignChangeSpec:
    mu = float(mean)
    return SignChangeSpec(lambda x: np.asarray(x, dtype=float) - mu, NodeSet((mu,)),
                          label=f"x-{mu}")


def plus_part(x):
    return np.maximum(np.asarray(x, dtype=float), 0.0)


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    worst_value: float
    worst_point: float
    n_probes: int
    tol: float


def validate_spec(spec: SignChangeSpec, probe) -> ValidationReport:
    """Probe prod(x - x_j) * B(x) at the points (``_probe_points``: atoms, a
    dense support grid or each mixture component's points) and by the test
    (finite and >= NEGATIVE_WEIGHT_TOL) with which ``tilt`` checks the same
    weight.  The worst point is the first where the weight is not finite,
    else where it is least.

    Ambiguous specs (B vanishing on whole intervals) pass for every legal
    node choice; distinct choices are distinct specs by design.
    """
    if isinstance(probe, Distribution):
        pts = _probe_points(probe)
    else:
        pts = np.asarray(probe, dtype=float).ravel()
        if not pts.size:
            raise InputError("validate_spec needs at least one probe point")
    pts = _with_near_nodes(spec, pts)
    return _validation_report(pts, spec.tilt_weight(pts))


def _with_near_nodes(spec: SignChangeSpec, pts: np.ndarray) -> np.ndarray:
    """The probe points followed by a point NODE_PROBE_EPS either side of
    every node."""
    near_nodes = np.array([x + s * NODE_PROBE_EPS for x in spec.nodes for s in (-1.0, 1.0)])
    return np.concatenate((pts, near_nodes)) if near_nodes.size else pts


def _validation_report(pts: np.ndarray, vals: np.ndarray) -> ValidationReport:
    """The verdict on the weight values ``vals`` at the probe points ``pts``."""
    worst = int(np.argmin(np.where(np.isfinite(vals), vals, -np.inf)))
    return ValidationReport(passed=bool(_weight_ok(vals[worst])),
                            worst_value=float(vals[worst]),
                            worst_point=float(pts[worst]),
                            n_probes=int(pts.size), tol=-NEGATIVE_WEIGHT_TOL)


# ---------------------------------------------------------------------------
# the normalizer
# ---------------------------------------------------------------------------

def alpha_of(X: Distribution, spec: SignChangeSpec) -> float:
    """Normalizer alpha = E[B(X) * prod(X - x_j)] / k!.

    Raises NegativeAlpha when the sign pattern is violated in expectation
    and DegenerateAlpha when the transform would be degenerate.
    """
    return _checked_alpha(expectation(X, spec.tilt_weight, points=spec.quad_points)
                          / math.factorial(spec.k))


def _checked_alpha(a: float) -> float:
    if a < -ALPHA_TOL:
        raise NegativeAlpha(f"normalizer {a!r} < 0: sign-change spec violated")
    if abs(a) <= ALPHA_TOL:
        raise DegenerateAlpha(f"normalizer {a!r} is numerically zero")
    return float(a)


# ---------------------------------------------------------------------------
# recipes and the biased-distribution value
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiasRecipe:
    """Construction record of a k-node transform, what its moments read: the
    tilted seed law, the node shifts applied through the shrink factors, and
    the seed moments E[(Y - center)^p] its construction's pass recorded
    about its ``center`` (``_bias`` sets both: no caller can), each within
    ABS_TOL + REL_TOL |I| of a pass of its own, about 1e-9 (``_tilt``)."""

    spec: SignChangeSpec
    seed_law: Distribution
    seed_moments: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    center: float = field(default=0.0, init=False, repr=False, compare=False)

    def moments(self, top: int, center: float = 0.0) -> np.ndarray:
        """Moments about ``center`` (raw moments at 0) of the transform: the
        seed moments about it, through the shrinks Z_j = x_j + U_j (Z_{j-1}
        - x_j) by independence and E[U_j^r] = j / (j + r), on Python floats
        (``_moment_list``, what a chain reads).  They are the record's up to
        its order when the center is the record's; else ``_moments`` takes
        them about the center in one pass (exact atom sums on point masses).
        Both are within 1e-12 relative of ``moment`` on smooth densities."""
        return np.array(self._moment_list(top, center))

    def _moment_list(self, top: int, center: float = 0.0) -> list:
        rec = self.seed_moments
        mom = (list(rec[:top + 1]) if rec and top < len(rec) and center == self.center
               else _moments(self.seed_law, top, center).tolist())
        for j, xj in enumerate(self.spec.nodes, start=1):
            mom = _shifted([v * (j / (j + r)) for r, v in enumerate(_shifted(mom, center - xj))],
                           xj - center)
        return mom


def _recorded(recipe: BiasRecipe, moments: Optional[tuple], center: float) -> BiasRecipe:
    """``recipe`` with the seed ``moments`` about ``center`` a pass recorded."""
    object.__setattr__(recipe, "seed_moments", moments)
    object.__setattr__(recipe, "center", center)
    return recipe


@dataclass(frozen=True)
class MixtureRecipe:
    parts: tuple       # BiasedDistribution values (zero-weight parts omitted)
    weights: tuple

    def moments(self, top: int) -> np.ndarray:
        return np.array(self._moment_list(top))

    def _moment_list(self, top: int) -> list:
        total = [0.0] * (top + 1)
        for part, w in zip(self.parts, self.weights):
            total = [t + w * v for t, v in zip(total, part.recipe._moment_list(top))]
        return total


@dataclass(frozen=True)
class BiasedDistribution:
    """A transformed law together with its normalizer(s) and construction
    record.  Immutable; sampling requires a caller-owned RandomSource."""

    law: Distribution
    alpha: float
    beta: Optional[float] = None
    recipe: object = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise DegenerateAlpha("alpha must be positive")
        if self.beta is not None and not self.beta > 0:
            raise DegenerateAlpha("beta must be positive when present")

    def sample(self, n: int, rng: RandomSource) -> np.ndarray:
        return sample(self.law, rng, n)

    def density(self, t):
        if self.law.density is None:
            raise InputError("this transform has no density (order-0 discrete case)")
        return self.law.density(t)

    def moment(self, p: int) -> float:
        """E[Z^p] through the construction record (exact on atom seeds)."""
        return recipe_moments(self.recipe, p)[p]


def recipe_moments(recipe, top: int) -> np.ndarray:
    """Moments E[Z^p], p = 0..top, of a transform through its recipe's own
    ``moments`` method."""
    if not hasattr(recipe, "moments"):
        raise InputError(f"unknown recipe type {type(recipe).__name__}")
    return recipe.moments(top)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def _one_node_density(X: Distribution, load: Callable, node: float, t: float, alpha: float,
                      points: Sequence[float]) -> float:
    """E[load(X) (1{node <= t <= X} - 1{X < t < node})] / alpha: one masked
    sum on point masses, a tail integral of load times the density
    otherwise, NaN at a NaN ``t``.  ``points`` are kinks of the load."""
    if math.isnan(t):
        return math.nan
    if X.locs is not None:
        sel = X.locs >= t if t >= node else X.locs < t
        acc = float(np.sum(X.masses[sel] * as_array_fn(load)(X.locs[sel])))
        return (acc if t >= node else -acc) / alpha

    if X.density is not None:
        table = _table_of(X)
        if table is not None:
            if t >= node:
                return table.integrate_weighted(load, t, np.inf) / alpha
            return -table.integrate_weighted(load, -np.inf, t) / alpha
        lo_x, hi_x = X.effective_support()
        dens = X.density
        kernel = lambda x: float(load(x)) * float(dens(x))
        pts = X.kinks + tuple(points)
        if t >= node:
            if t >= hi_x:
                return 0.0
            return integrate_fn(kernel, max(t, lo_x), hi_x, points=pts) / alpha
        if t <= lo_x:
            return 0.0
        return -integrate_fn(kernel, lo_x, min(t, hi_x), points=pts) / alpha

    raise InputError("one-node density needs point masses or a density on the input law")


def density_k1(X: Distribution, spec: SignChangeSpec, t: float,
               alpha: Optional[float] = None) -> float:
    """Closed-form density of the one-node transform:

        p(t) = E[B(X) (1{x_1 <= t <= X} - 1{X < t < x_1})] / alpha,

    exact on atoms, one adaptive integral otherwise: the pointwise oracle of
    the one-node law's panel-table density."""
    if spec.k != 1:
        raise InputError("density_k1 needs exactly one sign-change node")
    t = float(t)
    a = alpha if alpha is not None else alpha_of(X, spec)
    return _one_node_density(X, spec.bias, spec.nodes[0], t, a, spec.quad_points)


def lift_density(inner_density: Callable, node: float, level: int, t: float,
                 inner_support: Optional[tuple] = None) -> float:
    """One level of the density recursion: the law with ``level`` nodes has

        p(t) = level * ∫_0^1 inner(node + (t - node)/u) u^{level-2} du;

    the ``inner_support`` edges enter as break points in u."""
    if level < 2:
        raise InputError("lift_density applies from level 2 upward")
    node, t = float(node), float(t)
    d = t - node
    edges = [d / (e - node) for e in (inner_support or ()) if e != node]
    return level * integrate_fn(lambda u: float(inner_density(node + d / u)) * u ** (level - 2),
                                0.0, 1.0, points=[u for u in edges if 0.0 < u < 1.0])


def _identity_loads(spec: SignChangeSpec, m: int, c: float,
                    extra: Optional[Callable] = None) -> Callable:
    """The rows B(x) (x - c)^j, j < m, of an identity table, a running
    product, then ``extra(x)``: ``g(x)`` gives them as one fresh stack from
    one value of B, and ``g(x, True)`` puts the tilt weight prod(x - x_j) B(x)
    (``tilt_weight``) from that same value first, for the pass they ride."""
    bias_fn = as_array_fn(spec.bias)

    def g(x, weighted=False):
        x = np.asarray(x, dtype=float)
        b, lead = bias_fn(x), int(weighted)
        out = np.empty((lead + m + (extra is not None),) + x.shape)
        if weighted:
            out[0] = spec.tilt_weight(x, b)
        out[lead] = b
        step = x - c if m > 1 else None
        for j in range(lead + 1, lead + m):
            np.multiply(out[j - 1], step, out=out[j])
        if extra is not None:
            out[-1] = extra(x)
        return out

    return g


def _identity_table(X: Distribution, spec: SignChangeSpec, m: int, beta: float,
                    c: float, tails: _TailTable) -> TabulatedDensity:
    """Density of the order-m transform of X under ``spec`` (correction
    polynomial about ``c``) from the defining identity at the truncated
    power g_t(s) = (s - t)_+^{m-1}/(m-1)!, whose m-th derivative is the
    point mass at t:

        beta p(t) = E[B(X) (g_t - R_{g_t} - L_{g_t})(X)].

    L and R are linear in the node values and derivatives at c of g_t, which
    are known in t, so only the tail moments of B(X) (X - c)^j, j < m, are
    needed: the m rows of ``tails``, a table at -inf (whose rows rode the
    pass of ``_bias``), read at every grid point.  The grid spans the
    effective support of X, the nodes and c."""
    k = spec.k
    ys = np.asarray(spec.nodes, dtype=float) - c

    def trunc(z, e):  # z_+^e / e!, the unit step for e = 0
        return np.where(z > 0, np.abs(z) ** e, 0.0) / math.factorial(e)

    lagrange = [lagrange_poly(ys, row) for row in np.eye(k)]
    correction = [correction_poly(row, ys, m) for row in np.eye(m - k)]

    def values(ts):
        s = ts - c
        tail, full = tails(ts), tails.total
        mean = lambda p: sum(a * full[i] for i, a in enumerate(p.coeffs))  # E[B(X) p(X - c)]
        out = sum(math.comb(m - 1, j) * (-s) ** (m - 1 - j) * tail[j]
                  for j in range(m)) / math.factorial(m - 1)
        out = out - sum(mean(p) * trunc(y - s, m - 1) for p, y in zip(lagrange, ys))
        out = out - sum(mean(p) * trunc(-s, m - 1 - k - j) for j, p in enumerate(correction))
        return out / beta

    lo, hi = X.effective_support()
    lo, hi = min(lo, c, *spec.nodes), max(hi, c, *spec.nodes)
    # the density can jump at c when m > k (the correction's unit-step
    # term); as a knot, c also gets its left limit
    return TabulatedDensity.from_callable(values, lo, hi, DENSITY_GRID,
                                          knots=spec.quad_points + X.kinks + (c,))


# ---------------------------------------------------------------------------
# the transform itself
# ---------------------------------------------------------------------------

def bias(X: Distribution, spec: SignChangeSpec) -> BiasedDistribution:
    """Construct the sign-change biased law of X under ``spec``, which is
    first validated on X (SignViolation when the sign pattern fails).

    With zero nodes the result is simply the tilt of X by B.  With k >= 1
    nodes the sampler implements the seed-and-shrink construction and the
    law carries a density evaluator (the one-node tail integral read from a
    panel table for one node, the identity table otherwise).

    The weight is evaluated once, on the probe points of ``validate_spec``,
    so B must be elementwise: those values give the verdict, the seed law
    (the tilt) and, on point masses, the normalizer as an atom sum, with
    the errors, values and bits of ``validate_spec``, ``alpha_of`` and
    ``tilt`` run apart.  On a density the normalizer, the tilt's normaliser,
    the tail rows (B f, or B (x - x_1)^j f for j < k, from the value of B
    that gives the weight) and the seed moment rows (max(w, 0) x^p f,
    p <= _SEED_MOMENTS, moving no bit of the others) are one stacked panel
    pass over X (``_bias``): no density read or moment to order 4
    integrates.  DegenerateAlpha and NegativeAlpha come before
    ZeroNormalizer.  The probe's ends, X's window, bound the law."""
    return _bias(X, spec, spec.k, spec.nodes[0] if spec.k else 0.0)[0]()


def _bias(X: Distribution, spec: SignChangeSpec, rows: int, c: float, center: float = 0.0,
          refuse=(SignViolation, "sign pattern fails"), extra: Optional[Callable] = None,
          points: Sequence[float] = ()):
    """``bias`` split at its one pass (``_tilt``, which keeps the tilt's
    window), carrying the rows B(x) (x - c)^j, j < rows, then ``extra(x)``
    (``points`` its break points), all from the one value of B per call
    that gives the tilt weight (``_identity_loads``), and the seed moment
    rows about ``center`` to order _SEED_MOMENTS + rows - k: k rows about
    x_1 and moments about 0 to order 4 for ``bias``, m rows and moments
    about its location to order 4 + m - k for a chain (``higher._chain``),
    which reads its base to order top + m - k for moments to order top.  A
    failed verdict raises refuse = (error, what).  Returns (make, table,
    moments): ``table(node, j)`` builds one reader's table of the first j
    rows (``extra`` last) read at ``node``; ``make()`` the transform, whose
    density reads row B at x_1 or the k rows at -inf, its recipe recording
    the seed ``moments`` (the rows that held, ``_tilt``)."""
    probe = _probe_points(X)
    pts = _with_near_nodes(spec, probe)
    w = spec.tilt_weight(pts)
    report = _validation_report(pts, w)
    if not report.passed:
        error, what = refuse
        raise error(f"{what} at x={report.worst_point!r} (value {report.worst_value:.3e})")
    k = spec.k
    loads = _identity_loads(spec, rows, c, extra) if rows else None
    weighed = None if loads is None else (lambda x: loads(x, True))
    seed_law, _, mean, panels, seed = _tilt(X, as_array_fn(spec.tilt_weight), spec.quad_points,
                                            probe, w[:probe.size], weighed, points,
                                            _SEED_MOMENTS + rows - k, center)

    def table(node: float, j: int) -> _TailTable:
        return _TailTable(X, _identity_loads(spec, min(j, rows), c, extra if j > rows else None),
                          node, panels, (*spec.quad_points, *points), j)

    def make() -> BiasedDistribution:
        alpha = _checked_alpha(mean / math.factorial(k))
        if seed_law is None:
            raise _zero_normalizer(X)
        recipe = _recorded(BiasRecipe(spec=spec, seed_law=seed_law), seed, center)
        if k == 0:
            return BiasedDistribution(seed_law, alpha, None, recipe)

        nodes = tuple(spec.nodes)

        def draw(rs: RandomSource, n: int):
            z = sample(seed_law, rs, n)  # a fresh array: each shrink step runs in place
            for j, xj in enumerate(nodes, start=1):
                u = rs.uniform(n)
                u **= 1.0 / j
                z -= xj
                z *= u
                z += xj
            return z

        lo, hi = min(float(probe.min()), nodes[0]), max(float(probe.max()), nodes[-1])
        if k == 1:
            tails = _Lazy(lambda: table(nodes[0], 1))
            dens = as_array_fn(lambda t: np.maximum(tails.get()(t)[0] / alpha, 0.0))
            cdf = None
        else:
            dens = _Lazy(lambda: _identity_table(X, spec, k, alpha, c, table(-np.inf, k)))
            cdf = lambda x: dens.get().cdf(x)
        law_kinks = tuple(sorted({*nodes, *spec.kinks,
                                  *(kk for kk in X.kinks if lo <= kk <= hi)}))
        law = Distribution(lo=lo, hi=hi, density=dens, cdf=cdf, sampler=draw, kinks=law_kinks,
                           label=f"bias({X.label or 'X'}; k={k})")
        return BiasedDistribution(law, alpha, None, recipe)

    return make, table, seed
