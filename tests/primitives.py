"""Slow reference routes of the polynomial tests: barycentric Lagrange
evaluation at a point, the m-th iterated antiderivative as one integral,
and the sign-compatible primitive built from both.  The package itself
needs none of them; the tests check the dense interpolants and the
identities against them.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from biasforge import InputError, NodeSet, integrate_fn


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
