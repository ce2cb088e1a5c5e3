"""Slow or second reference routes of the tests: barycentric Lagrange
evaluation at a point, the m-th iterated antiderivative as one integral,
the sign-compatible primitive built from both, the power-sum form of the
interpolation-residual coefficients, the per-piece evaluation of a
piecewise polynomial, the coefficient route to transform moments, and the
sampler/density agreement suite.  The package itself needs none of them;
the tests check the dense interpolants, the coefficient recurrence, the
one-pass piecewise evaluation, the moment algebra and the samplers against
them.  Also the ``numpy.polynomial`` route to the ``Polynomial`` algebra,
and ``bias`` on a point-mass law as three separate passes (validation,
normalizer, tilt), each evaluating the weight on its own; and the tail
table of a stack of weights started from a 1025-point grid, each weight
taken from the stack on its own and the rows stacked again.  Also the
pass report of ``scripts/pass_count.py``, whose seven ``bias`` inputs of
the benchmark's continuous-cold workload the tests share.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

import biasforge as bf
from biasforge import InputError, NodeSet, NonIntegrable, integrate_fn
from biasforge.distributions import (
    _gauss_legendre,
    _panels,
    _knots,
    _sorted_unique,
    as_array_fn,
)


def lagrange_value(nodes: NodeSet | Sequence[float], values: Sequence[float], x) -> float:
    """Barycentric evaluation of the interpolation polynomial at a point
    (avoids the coefficient round-off of the dense form)."""
    ns = np.asarray(tuple(nodes), dtype=float)
    vs = np.asarray(tuple(values), dtype=float)
    if ns.size != vs.size:
        raise InputError("need one value per node")
    if ns.size == 0:
        return 0.0
    x = float(x)
    hit = np.nonzero(ns == x)[0]
    if hit.size:
        return float(vs[hit[0]])
    w = np.array([1.0 / np.prod(ns[k] - np.delete(ns, k)) for k in range(ns.size)])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q = w / (x - ns)
        out = np.sum(q * vs) / np.sum(q)
    if not np.isfinite(out):  # x within rounding of a node: 1/(x - node) overflowed
        return float(vs[np.argmin(np.abs(x - ns))])
    return float(out)


def iterated_antiderivative(f: Callable, a: float, m: int, x: float) -> float:
    """m-th iterated primitive of f anchored at a, evaluated at x, via the
    single-integral reduction  ∫_a^x f(t) (x-t)^{m-1}/(m-1)! dt."""
    if m < 1:
        raise InputError("need m >= 1")
    a, x = float(a), float(x)
    if a == x:
        return 0.0
    scale = 1.0 / math.factorial(m - 1)

    def kernel(t):
        return float(f(t)) * (x - t) ** (m - 1) * scale

    if x > a:
        return integrate_fn(kernel, a, x)
    return -integrate_fn(kernel, x, a)


def sign_compatible_primitive(f: Callable, nodes: NodeSet | Sequence[float], x: float) -> float:
    """Evaluate the unique m-th primitive of a nonnegative f that vanishes
    at every node and alternates sign across the node intervals, ending
    nonnegative on the right.

    Construction: the m-fold primitive anchored at the largest node, minus
    its interpolation polynomial at the nodes.
    """
    ns = tuple(nodes)
    m = len(ns)
    if m < 1:
        raise InputError("need at least one node")
    anchor = ns[-1]
    gx = iterated_antiderivative(f, anchor, m, x)
    gvals = [iterated_antiderivative(f, anchor, m, xk) for xk in ns]
    return gx - lagrange_value(ns, gvals, x)


def power_sum_ratio(nodes: Sequence[float], exponent: int) -> float:
    """sum_l x_l^n / prod_{r != l} (x_l - x_r).

    Equals the complete homogeneous symmetric polynomial of degree
    n - k + 1 in the k nodes, and vanishes for n <= k - 2; so
    ``power_sum_ratio(nodes, k + j - i - 1)`` is the divided-difference
    form of ``interp_coeff(nodes, i, j)``.
    """
    ns = tuple(float(x) for x in nodes)
    if len(ns) == 0:
        raise InputError("need at least one node")
    total = 0.0
    for l, xl in enumerate(ns):
        denom = 1.0
        for r, xr in enumerate(ns):
            if r != l:
                denom *= xl - xr
        total += xl**exponent / denom
    return total


def piecewise_value(f: bf.PiecewisePoly, x):
    """A piecewise polynomial evaluated piece by piece: a binary search for
    the piece index, then each piece's own ``Polynomial`` on the points it
    holds, gathered and scattered by a boolean mask."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    idx = np.searchsorted(np.asarray(f.breaks), arr, side="right")
    out = np.empty_like(arr)
    for i, piece in enumerate(f.pieces):
        mask = idx == i
        if mask.any():
            out[mask] = piece(arr[mask])
    return float(out[0]) if scalar else out


def _script(name: str):
    """The module of ``scripts/<name>.py``, loaded by its path."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the pass report; its seven ``bias`` inputs are those of the benchmark's
# continuous-cold workload, (name, X, spec) each
pass_count = _script("pass_count")
cold_bias_cases = pass_count.bias_cases


def moment_via_coefficients(X, spec, j: int) -> float:
    """Independent route to E[Y^j] for the k-node transform Y of X:

        E[Y^j] = sum_i c_i^{(j)} E[B(X) X^i prod(X - x_l)] / (alpha (k+j)_k)

    with the interpolation-residual coefficients c (k >= 1 nodes).  Used as
    a cross-check of the seed-and-shrink moment recursion."""
    k = spec.k
    if k < 1:
        raise InputError("coefficient route needs at least one node")
    alpha = bf.alpha_of(X, spec)
    falling = math.perm(k + j, k)  # (k + j)(k + j - 1) ... (j + 1)
    total = 0.0
    for i in range(j + 1):
        c = bf.interp_coeff(spec.nodes, i, j)
        if c == 0.0:
            continue
        kern = lambda x, _i=i: spec.tilt_weight(x) * x ** _i
        total += c * bf.expectation(X, kern, points=spec.quad_points)
    return total / (alpha * falling)


def ks_suite(seed: int = 0, n: int = 100_000) -> dict:
    """Sampler/density agreement for every catalog transform configuration:
    the statistic of n draws against the density-integral CDF must clear
    the 1% critical value."""
    U = bf.uniform(-1.0, 1.0)
    configs = [
        ("ambiguity-p", bf.bias(U, bf.SignChangeSpec(bf.plus_part, NodeSet((-1.0,)),
                                                     kinks=(0.0,)))),
        ("ambiguity-q", bf.bias(U, bf.SignChangeSpec(bf.plus_part, NodeSet((0.0,)),
                                                     kinks=(0.0,)))),
        ("normal-zero-bias", bf.bias(bf.normal(), bf.zero_bias_spec())),
        ("half-normal-mixture", bf.bias(bf.half_normal_mixture(0.3, 1.2), bf.zero_bias_spec())),
        ("exponential-equilibrium", bf.bias(bf.exponential(1.0), bf.sign_spec(0.0))),
        ("uniform-order-2-lift", bf.bias_to_order(U, bf.unit_bias_spec(), 2)),
    ]
    crit = bf.ks_critical(n, 0.01)
    stats = {}
    for i, (label, transform) in enumerate(configs):
        draws = transform.sample(n, bf.RandomSource(seed + 31 * i + 11))
        cdf = bf.numeric_cdf(transform.law)
        stats[label] = float(bf.ks_statistic(draws, cdf))
    return {"suite": "ks", "n": int(n), "critical": crit, "stats": stats,
            "passed": all(s < crit for s in stats.values())}


# ---------------------------------------------------------------------------
# the numpy.polynomial route to the Polynomial algebra
# ---------------------------------------------------------------------------

def numpy_add(p: bf.Polynomial, q: bf.Polynomial) -> bf.Polynomial:
    return bf.Polynomial(tuple(npoly.polyadd(p.coeffs or (0.0,), q.coeffs or (0.0,))))


def numpy_sub(p: bf.Polynomial, q: bf.Polynomial) -> bf.Polynomial:
    return bf.Polynomial(tuple(npoly.polysub(p.coeffs or (0.0,), q.coeffs or (0.0,))))


def numpy_mul(p: bf.Polynomial, q: bf.Polynomial) -> bf.Polynomial:
    if not p.coeffs or not q.coeffs:
        return bf.Polynomial(())
    return bf.Polynomial(tuple(npoly.polymul(p.coeffs, q.coeffs)))


def numpy_derivative(p: bf.Polynomial, order: int) -> bf.Polynomial:
    if order == 0 or not p.coeffs:
        return p
    if order > p.degree:
        return bf.Polynomial(())
    return bf.Polynomial(tuple(npoly.polyder(p.coeffs, m=order)))


def numpy_antiderivative(p: bf.Polynomial) -> bf.Polynomial:
    return bf.Polynomial(tuple(npoly.polyint(p.coeffs))) if p.coeffs else p


# ---------------------------------------------------------------------------
# bias on a point-mass law, one pass per quantity
# ---------------------------------------------------------------------------

def bias_in_three_passes(X, spec):
    """The normalizer and the seed law of ``bias`` by ``validate_spec``,
    ``alpha_of`` and ``tilt`` run apart, each evaluating the weight itself;
    the errors are those of the three in that order."""
    report = bf.validate_spec(spec, X)
    if not report.passed:
        raise bf.SignViolation(f"sign pattern fails at x={report.worst_point!r} "
                               f"(value {report.worst_value:.3e})")
    alpha = bf.alpha_of(X, spec)
    return alpha, bf.tilt(X, spec.tilt_weight, weight_kinks=spec.quad_points)


# ---------------------------------------------------------------------------
# the tail table, one weight at a time from a 1025-point grid
# ---------------------------------------------------------------------------

class PerWeightTailTable:
    """``distributions._TailTable`` as it was built from a list of weight
    callables, each evaluated on its own in every call of the panel rule,
    and from a 1025-point linspace of the effective support, whose first
    round rules the halves of every panel at the 2049-point spacing.  It
    takes the law and the weight stack of the stacked table; weight j is
    row j of the stack, ``weights(x)[j]``, and the rows are stacked again
    for ``_panels``, whose fallbacks integrate one row of that stack."""

    def __init__(self, X, weights, knots=()):
        rows = len(weights(np.zeros(1)))
        self.weights = [lambda x, j=j: weights(x)[j] for j in range(rows)]
        self.parts = None
        if X.locs is not None:
            self.xs, self.dens = X.locs, None
            vals = np.stack([w(X.locs) for w in self.weights]) * X.masses
        elif X.density is not None:
            lo, hi = X.effective_support()
            inner = [float(x) for x in _knots(X, knots) if lo < float(x) < hi]
            self.dens = as_array_fn(X.density)
            out = _panels(self._load, _sorted_unique(np.concatenate(
                (np.linspace(lo, hi, 1025), inner))))
            if out is None:
                raise NonIntegrable("the panels do not suit a tail weight times the density")
            lefts, vals = np.concatenate(out[1]), np.concatenate(out[2], axis=1)
            order = np.argsort(lefts)
            self.xs, vals = np.append(lefts[order], hi), vals[:, order]
        elif X.components is not None:
            self.parts = [(w, PerWeightTailTable(c, weights, knots))
                          for c, w in zip(X.components, X.weights) if w > 0]
            self.total = sum(w * part.total for w, part in self.parts)
            return
        else:
            raise InputError("tail integrals need point masses, a density or components")
        zero = np.zeros((len(self.weights), 1))
        self.prefix = np.concatenate((zero, np.cumsum(vals, axis=1)), axis=1)
        self.suffix = np.concatenate((np.cumsum(vals[:, ::-1], axis=1)[:, ::-1], zero), axis=1)
        self.total = self.suffix[:, 0]

    def _load(self, x):
        out = np.stack([w(x) for w in self.weights])
        return np.multiply(out, self.dens(x), out=out)

    def __call__(self, t, node):
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
        return out.reshape((len(self.weights),) + ts.shape)
