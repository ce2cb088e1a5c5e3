"""Second-difference transforms and order-lifted bias transforms.

The second-difference transform at a location ``a`` is the unique law
turning the second-order Taylor remainder of a test function into its
second derivative:

    E[f(X) - f(a) - f'(a)(X - a)] = (1/2) E[(X - a)^2] E[f''(XH)].

It is the two-node construction with a double node at ``a``: tilt by
(x - a)^2, then shrink towards ``a`` by one Beta(1, 2) factor.  Chaining
(m - k)/2 such steps onto a k-node transform lifts the derivative order
from k to any m of the same parity; the lifted identity subtracts, besides
the node interpolant, a degree <= m-1 correction polynomial about the
location.  One constructor (``_chain``) builds every chain: an order lift
(at 0), the second-difference transform (X itself its base) and each
lifted part of an operator law (``stein._operator``).  A chain is one law
with one kernel: the steps' Beta(1, 2) factors multiply to one
Beta(1, m - k) factor, so it draws one tilt of the base law by
(x - c)^(m - k) and shrinks it once, and its density is the order-m
identity table of X, read from a tail table whose rows B(x) (x - c)^j,
j < m, and the base's moments about the location to order 4 + m - k,
which its normalizers and moments read, ride the base's one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Optional

import numpy as np

from .errors import DegenerateBeta, DegenerateAlpha, InputError, ParityMismatch
from .distributions import (
    Distribution,
    RandomSource,
    _Lazy,
    _shifted,
    expectation,
    sample,
    tilt,
)
from .polynomials import lagrange_poly
from .transform import (
    ALPHA_TOL,
    BiasedDistribution,
    BiasRecipe,
    SignChangeSpec,
    _bias,
    _identity_table,
    _recorded,
    bias,
    unit_bias_spec,
)

SECOND_MOMENT_TOL = 1e-12


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainRecipe:
    """The k-node base stage's recipe (for a second-difference transform,
    the zero-node unit recipe, which is X itself) plus (m - k)/2
    second-difference steps at ``location``, with the per-step normalizers
    (half the running second moments about the location)."""

    base: BiasRecipe
    step_normalizers: tuple
    location: float = 0.0

    def moments(self, top: int) -> np.ndarray:
        """The base's moments about the location (its recipe's: the record
        its pass took about the location while top + 2 steps is within it,
        else one pass about it, exact sums on point masses), mapped through
        every step and shifted back once, on Python floats (``_shifted``), so
        no moment at a far location is a difference of raw moments."""
        return np.array(self._moment_list(top))

    def _moment_list(self, top: int) -> list:
        steps, a = len(self.step_normalizers), self.location
        mom = self.base._moment_list(top + 2 * steps, a)
        for _ in range(steps):
            mom = _hat_moment_map(mom)
        return _shifted(mom, a)


def _hat_moment_map(mom: list) -> list:
    """Moments about the location after one second-difference step, floats:
    E[(Z - a)^p] = E[(W - a)^{p+2}] / ((p+2)(p+1) * (1/2) E[(W - a)^2])."""
    b = mom[2] / 2.0
    if not b > SECOND_MOMENT_TOL:
        raise DegenerateBeta("second moment vanished inside the chain")
    return [mom[p + 2] / ((p + 2) * (p + 1) * b) for p in range(len(mom) - 2)]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _chain(X: Distribution, spec: SignChangeSpec, m: int, c: float, label: str,
           stage=None, base: Optional[Distribution] = None) -> BiasedDistribution:
    """The order-m transform of X under ``spec``: (m - k)/2 second-difference
    steps about ``c`` on the k-node base W that ``stage`` (``transform._bias``
    with m rows and the moments about c; run here when not given) builds,
    or on the law ``base`` itself as a zero-node unit base, which takes the
    stage's record.  The steps' normalizers are half the running second
    moments about c: the base recipe's moments about c to order m - k
    (``BiasRecipe.moments``), mapped step by step; beta = alpha prod(b_l).
    The law is one kernel: its density the order-m identity table read from
    a table of the stage's m rows; its draws one tilt of W by (x - c)^(m - k),
    built on first draw, shrunk towards c by one Beta(1, m - k) factor
    1 - U^(1 / (m - k)) (the product of the steps' Beta(1, 2) factors in
    law).  It spans c and W's window, as a ``bias`` law spans its probe's.
    DegenerateBeta at a point mass at c or at beta <= ALPHA_TOL."""
    k, r = spec.k, m - spec.k
    make, table, rec = stage or _bias(X, spec, m, c, c)
    made = (make() if base is None else
            BiasedDistribution(base, 1.0, None, _recorded(BiasRecipe(spec, base), rec, c)))
    mom = made.recipe._moment_list(r, c)
    beta, normalizers = made.alpha, []
    for _ in range(r // 2):
        normalizers.append(mom[2] / 2.0)
        mom = _hat_moment_map(mom)  # DegenerateBeta at a point mass at c
        beta *= normalizers[-1]
    if not beta > ALPHA_TOL:
        raise DegenerateBeta(f"order-{m} normalizer {beta!r} is not positive")

    def weight(x):  # (x - c)^(m - k) as a product: np.power took half a first draw
        return reduce(np.multiply, [np.asarray(x, dtype=float) - c] * r)

    W = made.law
    seed = _Lazy(lambda: tilt(W, weight, weight_kinks=(c,)))

    def draw(rs: RandomSource, n: int):
        y = sample(seed.get(), rs, n)  # a fresh array: c + v (y - c) is formed in it
        v = rs.uniform(n)
        v **= 1.0 / r
        np.subtract(1.0, v, out=v)
        y -= c
        y *= v
        y += c
        return y

    lo, hi = W.effective_support()
    dens = _Lazy(lambda: _identity_table(X, spec, m, beta, c, table(-np.inf, m)))
    law = Distribution(lo=min(lo, c), hi=max(hi, c), density=dens,
                       cdf=lambda x: dens.get().cdf(x), sampler=draw, kinks=(c,) + W.kinks,
                       label=label)
    recipe = ChainRecipe(made.recipe, tuple(normalizers), location=c)
    return BiasedDistribution(law, alpha=made.alpha, beta=float(beta), recipe=recipe)


def second_difference_transform(X: Distribution, a: float) -> BiasedDistribution:
    """The second-difference transform of X at ``a``: the one-step chain
    about ``a`` on X itself (``_chain``).  Its alpha is half the second
    moment about ``a``, recorded by the unit pass over X that carries its
    table; DegenerateAlpha when X is (numerically) a point mass at ``a``."""
    a = float(a)
    try:
        t = _chain(X, unit_bias_spec(), 2, a, f"second-difference({X.label or 'X'}; a={a})",
                   base=X)
    except DegenerateBeta as exc:
        raise DegenerateAlpha(f"second moment about {a} is zero "
                              "(point mass at the location)") from exc
    return replace(t, alpha=t.beta, beta=None)


def _order_checked(spec: SignChangeSpec, m: int) -> int:
    """The node count k of ``spec``, after checking 0 <= k <= m of m's parity."""
    k = spec.k
    if k > m:
        raise InputError(f"need 0 <= k <= m, got k={k}, m={m}")
    if (m - k) % 2 != 0:
        raise ParityMismatch(f"k={k} and m={m} have different parity")
    return k


def beta_of(X: Distribution, spec: SignChangeSpec, m: int) -> float:
    """Order-m normalizer

        beta = E[B(X) (X^m - interpolant of x^m at the nodes)] / m!

    (plain E[B(X) X^m] / m! with no nodes), one expectation of B: the route
    apart that the chain's beta (``bias_to_order``) is tested against.
    Always positive for a valid, nondegenerate configuration; equals alpha
    when k == m."""
    k = _order_checked(spec, m)
    interp = lagrange_poly(spec.nodes, [x**m for x in spec.nodes])  # zero with no nodes
    kernel = lambda x: spec.bias(x) * (x ** m - interp(x))
    b = expectation(X, kernel, points=spec.quad_points) / math.factorial(m)
    if not b > ALPHA_TOL:
        raise DegenerateBeta(f"order-{m} normalizer {b!r} is not positive")
    return float(b)


def bias_to_order(X: Distribution, spec: SignChangeSpec, m: int) -> BiasedDistribution:
    """k-node transform lifted to derivative order m (same parity as k) by
    chaining second-difference steps at zero onto the k-node stage
    (``_chain``): one pass over X for the base, its normalizers and the
    chain's table.  DegenerateBeta at a stage that is a point mass at zero
    or at beta <= ALPHA_TOL."""
    k = _order_checked(spec, m)
    if k == m:
        return bias(X, spec)
    return _chain(X, spec, m, 0.0, f"bias-to-order({X.label or 'X'}; k={k}, m={m})")
