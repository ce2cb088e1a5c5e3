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
t.  Both read one cumulative table of the input law (``_TailTable``),
built on first use from the converged panels of the adaptive panel rule,
started from the 64 panels of every other panel integral, with all its
weights (B, or B(x) (x - c)^j for j < m) one stack that evaluates B once.

Node choices matter: when B vanishes on an interval, different declared
nodes give genuinely different transforms, so nodes are always the
caller's explicit input and are never inferred from B.  The built-in
biases (sign, unit, zero-bias, centered, positive part) are defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateAlpha,
    InputError,
    NegativeAlpha,
    NonIntegrable,
    SignViolation,
)
from .distributions import (
    NEGATIVE_WEIGHT_TOL,
    Distribution,
    RandomSource,
    TabulatedDensity,
    _PANEL_DEPTH,
    _Lazy,
    _gauss_legendre,
    _knots,
    _moments,
    _panels,
    _probe_points,
    _running_products,
    _start_panels,
    _tilt,
    _table_of,
    _weight_ok,
    _zero_normalizer,
    as_array_fn,
    expectation,
    integrate_fn,
    make_mixture,
    sample,
)
from .polynomials import NodeSet, correction_poly, lagrange_poly

NODE_PROBE_EPS = 1e-6
ALPHA_TOL = 1e-12
DENSITY_GRID = 2049


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

    def tilt_weight(self, x):
        """prod(x - x_j) * B(x): the nonnegative tilting weight."""
        arr = np.asarray(x, dtype=float)
        out = np.ones_like(arr, dtype=float)
        for xj in self.nodes:
            out *= arr - xj
        out *= self.bias_values(arr)
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

def shift_moments(mom: np.ndarray, c: float) -> np.ndarray:
    """Moments E[(X + c)^p], p = 0..len(mom)-1, from the moments E[X^r]
    by the binomial expansion, in Python floats (each power of c formed
    once)."""
    m = np.asarray(mom, dtype=float).tolist()
    cp = [c ** k for k in range(len(m))]
    return np.array([sum(math.comb(p, r) * cp[p - r] * m[r] for r in range(p + 1))
                     for p in range(len(m))], dtype=float)


@dataclass(frozen=True)
class BiasRecipe:
    """Construction record of a k-node transform, what its moments read: the
    tilted seed law plus the node shifts applied through the shrink factors."""

    spec: SignChangeSpec
    seed_law: Distribution

    def moments(self, top: int) -> np.ndarray:
        """Seed moments E[Y^p] propagated through Z_j = x_j + U_j (Z_{j-1} - x_j)
        using independence and E[U_j^r] = j / (j + r).  The seed moments
        come from ``_moments``: exact atom sums on point masses, bit for bit
        those of ``moment``, and one stacked panel pass for all orders on a
        density, within 1e-12 relative of ``moment`` on smooth densities."""
        mom = _moments(self.seed_law, top)
        for j, xj in enumerate(self.spec.nodes, start=1):
            shrink = np.array([j / (j + r) for r in range(top + 1)])
            mom = shift_moments(shift_moments(mom, -xj) * shrink, xj)
        return mom


@dataclass(frozen=True)
class MixtureRecipe:
    parts: tuple       # BiasedDistribution values (zero-weight parts omitted)
    weights: tuple

    def moments(self, top: int) -> np.ndarray:
        total = np.zeros(top + 1)
        for part, w in zip(self.parts, self.weights):
            total += w * recipe_moments(part.recipe, top)
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
    otherwise.  ``points`` are kinks of the load."""
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


class _TailTable:
    """Cumulative integrals of a stack of J fixed weights w_j against the
    law of X, read at any t as the one-node tail

        E[w_j(X) (1{node <= t <= X} - 1{X < t < node})],

    the upper tail from t >= node and minus the lower tail below it, so no
    value is a difference of near-equal sums.  ``weights`` is array-native:
    ``weights(x)`` gives the (J,) + shape stack as a fresh array, which the
    table multiplies by the density in place.  Point masses, sorted by
    construction, are read through prefix and suffix sums.  A density, a
    table's included, is integrated by ``_panels`` from the _PANEL_START
    edges of its window (``_start_panels``, which widens it where a weight
    times the density has not decayed), with ``_knots(X, knots)`` as break
    points, and the sums run over the final panels: a read is one lookup
    plus the 8-point Gauss-Legendre rule on part of one panel.  The slivers
    a jump or a singularity leaves open are valued by ``_panels``' one
    sliver policy; NonIntegrable when the panels do not suit a weight times
    the density.  Mixtures without a density sum their components' tables
    by weight."""

    def __init__(self, X: Distribution, weights: Callable, rows: int, knots: Sequence[float]):
        self.weights, self.rows, self.parts = weights, rows, None
        if X.locs is not None:
            self.xs, self.dens = X.locs, None
            vals = weights(X.locs) * X.masses
        elif X.density is not None:
            self.dens = as_array_fn(X.density)
            edges = _start_panels(self._load, X.effective_support(), X.lo, X.hi,
                                  _knots(X, knots))
            # four rounds more than other integrals, log2(1024 / _PANEL_START):
            # the slivers left open are as narrow as from 1024 start panels
            out = _panels(self._load, edges, depth=_PANEL_DEPTH + 4)
            if out is None:
                raise NonIntegrable("the panels do not suit a tail weight times the density")
            lefts, vals = np.concatenate(out[1]), np.concatenate(out[2], axis=1)
            order = np.argsort(lefts)
            self.xs, vals = np.append(lefts[order], edges[-1]), vals[:, order]
        elif X.components is not None:
            self.parts = [(w, _TailTable(c, weights, rows, knots))
                          for c, w in zip(X.components, X.weights) if w > 0]
            self.total = sum(w * part.total for w, part in self.parts)
            return
        else:
            raise InputError("tail integrals need point masses, a density or components")
        zero = np.zeros((rows, 1))
        self.prefix = np.concatenate((zero, np.cumsum(vals, axis=1)), axis=1)
        self.suffix = np.concatenate((np.cumsum(vals[:, ::-1], axis=1)[:, ::-1], zero), axis=1)
        self.total = self.suffix[:, 0]

    def _load(self, x):
        """The weights times the density, stacked (the product formed in the
        stack)."""
        out = self.weights(x)
        return np.multiply(out, self.dens(x), out=out)

    def __call__(self, t, node: float) -> np.ndarray:
        """The one-node tail of every weight at each t: shape (J,) + shape of t."""
        ts = np.asarray(t, dtype=float)
        if self.parts is not None:
            return sum(w * part(ts, node) for w, part in self.parts)
        flat = ts.ravel()
        up = flat >= node
        if self.dens is None:
            i = np.searchsorted(self.xs, flat, side="left")
            out = np.where(up, self.suffix[:, i], -self.prefix[:, i])
        else:
            xs = self.xs
            tc = np.clip(flat, xs[0], xs[-1])
            i = np.minimum(np.searchsorted(xs, tc, side="right"), xs.size - 1) - 1
            part = _gauss_legendre(self._load, np.where(up, tc, xs[i]), np.where(up, xs[i + 1], tc))
            out = np.where(up, self.suffix[:, i + 1] + part, -(self.prefix[:, i] + part))
        return out.reshape((self.rows,) + ts.shape)


def _identity_table(X: Distribution, spec: SignChangeSpec, m: int, beta: float,
                    c: float) -> TabulatedDensity:
    """Density of the order-m transform of X under ``spec`` (correction
    polynomial about ``c``) from the defining identity at the truncated
    power g_t(s) = (s - t)_+^{m-1}/(m-1)!, whose m-th derivative is the
    point mass at t:

        beta p(t) = E[B(X) (g_t - R_{g_t} - L_{g_t})(X)].

    L and R are linear in the node values and derivatives at c of g_t, which
    are known in t, so only the tail moments of B(X) (X - c)^j, j < m, are
    integrated: one panel table of X (``_TailTable``) read at every grid
    point.  The grid spans the effective support of X, the nodes and c."""
    k = spec.k
    ys = np.asarray(spec.nodes, dtype=float) - c

    def trunc(z, e):  # z_+^e / e!, the unit step for e = 0
        return np.where(z > 0, np.abs(z) ** e, 0.0) / math.factorial(e)

    lagrange = [lagrange_poly(ys, row) for row in np.eye(k)]
    correction = [correction_poly(row, ys, m) for row in np.eye(m - k)]

    # row j holds B(x) (x - c)^j: B is evaluated once per call
    tails = _TailTable(X, _running_products(as_array_fn(spec.bias), lambda x: x - c, m), m,
                       spec.quad_points)

    def values(ts):
        s = ts - c
        tail, full = tails(ts, -np.inf), tails.total
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


def _identity_density(X: Distribution, spec: SignChangeSpec, m: int, beta: float, c: float):
    """The identity table as a density built on first use, and its CDF."""
    table = _Lazy(lambda: _identity_table(X, spec, m, beta, c))
    return table, (lambda x: table.get().cdf(x))


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
    ``tilt`` run apart.  On a density the normalizer and the tilt's
    normaliser are one stacked panel pass over X (``_tilt``); DegenerateAlpha
    and NegativeAlpha are raised before ZeroNormalizer.  The probe's ends,
    X's window, bound the law."""
    probe = _probe_points(X)
    pts = _with_near_nodes(spec, probe)
    w = spec.tilt_weight(pts)
    report = _validation_report(pts, w)
    if not report.passed:
        raise SignViolation(f"sign pattern fails at x={report.worst_point!r} "
                            f"(value {report.worst_value:.3e})")
    seed_law, _, mean = _tilt(X, as_array_fn(spec.tilt_weight), spec.quad_points, probe,
                              w[:probe.size])
    alpha = _checked_alpha(mean / math.factorial(spec.k))
    if seed_law is None:
        raise _zero_normalizer(X)
    recipe = BiasRecipe(spec=spec, seed_law=seed_law)
    k = spec.k

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
        tails = _Lazy(lambda: _TailTable(X, _running_products(as_array_fn(spec.bias), None, 1),
                                         1, spec.quad_points))
        dens = as_array_fn(lambda t: np.maximum(tails.get()(t, nodes[0])[0] / alpha, 0.0))
        cdf = None
    else:
        dens, cdf = _identity_density(X, spec, k, alpha, nodes[0])

    law_kinks = tuple(sorted({*nodes, *spec.kinks,
                              *(kk for kk in X.kinks if lo <= kk <= hi)}))
    law = Distribution(lo=lo, hi=hi, density=dens, cdf=cdf,
                       sampler=draw, kinks=law_kinks,
                       label=f"bias({X.label or 'X'}; k={k})")
    return BiasedDistribution(law, alpha, None, recipe)


def mixture_bias(components: Sequence[Distribution], gamma: Sequence[float],
                 spec: SignChangeSpec) -> BiasedDistribution:
    """Transform of a mixture: per-component transforms reweighted by
    alpha_s * gamma_s / alpha.  Components with vanishing normalizer are
    allowed and receive zero weight; components with gamma_s = 0 are not
    transformed.  SignViolation when the spec fails on a component."""
    comps = list(components)
    gs = np.asarray(list(gamma), dtype=float)
    if len(comps) != gs.size or len(comps) == 0:
        raise InputError("components and gamma must have equal, positive length")
    if np.any(gs < 0) or abs(gs.sum() - 1.0) > 1e-12:
        raise InputError("gamma must be a probability vector")

    parts = {}
    for s in np.flatnonzero(gs > 0.0):
        try:
            parts[s] = bias(comps[s], spec)
        except DegenerateAlpha:
            pass
    alphas = [parts[s].alpha if s in parts else 0.0 for s in range(gs.size)]
    total = float(np.dot(alphas, gs))
    if total <= ALPHA_TOL:
        raise DegenerateAlpha("every component has a vanishing normalizer")
    weights = tuple(alphas[s] * gs[s] / total for s in parts)
    law = make_mixture([p.law for p in parts.values()], weights)
    return BiasedDistribution(law, total, None, MixtureRecipe(tuple(parts.values()), weights))
