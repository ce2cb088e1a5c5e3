"""Second-difference transforms and order-lifted bias transforms.

The second-difference transform at a location ``a`` is the unique law
turning the second-order Taylor remainder of a test function into its
second derivative:

    E[f(X) - f(a) - f'(a)(X - a)] = (1/2) E[(X - a)^2] E[f''(XH)].

It is the two-node construction with a double node at ``a``: tilt by
(x - a)^2, then shrink towards ``a`` by one Beta(1, 2) factor.  Its density
is tabulated from that identity at the truncated power (s - t)_+, like
every multi-node density in ``transform``.

Chaining (m - k)/2 second-difference steps at zero onto a k-node
transform lifts the derivative order from k to any m of the same parity.
The lifted identity subtracts, besides the node interpolant, an explicit
degree <= m-1 correction polynomial built from the test function's
derivatives at zero; its normalizer beta is always positive for a
nondegenerate chain.  Each step's density is the identity table of the
input law at that step's order, so no step's density reads the previous
step's density.  The previous law is only tilted for sampling, and that
tilt reads an identity table when the previous law has one (an earlier
step, or a base with two or more nodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBeta, DegenerateAlpha, InputError, ParityMismatch
from .distributions import (
    Distribution,
    RandomSource,
    _Lazy,
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
    _identity_density,
    bias,
    recipe_moments,
    shift_moments,
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
        """Base moments, centred at the location, mapped through every step
        and shifted back (no shift at location 0)."""
        steps, a = len(self.step_normalizers), self.location
        mom = recipe_moments(self.base, top + 2 * steps)
        if a:
            mom = shift_moments(mom, -a)
        for _ in range(steps):
            mom = _hat_moment_map(mom)
        return shift_moments(mom, a) if a else mom


def _hat_moment_map(mom: np.ndarray) -> np.ndarray:
    """Moments about the location after one second-difference step:
    E[(Z - a)^p] = E[(W - a)^{p+2}] / ((p+2)(p+1) * (1/2) E[(W - a)^2])."""
    if len(mom) < 3:
        raise InputError("need moments up to order 2")
    b = mom[2] / 2.0
    if not b > SECOND_MOMENT_TOL:
        raise DegenerateBeta("second moment vanished inside the chain")
    top = len(mom) - 3
    return np.array([mom[p + 2] / ((p + 2) * (p + 1) * b) for p in range(top + 1)])


# ---------------------------------------------------------------------------
# law construction helpers
# ---------------------------------------------------------------------------

def _step_law(prev: Distribution, X: Distribution, spec: SignChangeSpec, m: int,
              beta: float, c: float, **fields) -> Distribution:
    """One second-difference step about ``c`` after the law ``prev``: the
    order-m identity table of X under ``spec`` for the density, and the
    two-node construction with a double node at ``c`` for the sampler (tilt
    ``prev`` by (x - c)^2, then shrink by a Beta(1, 2) draw 1 - sqrt(U)).
    The tilt is made on first draw; ``fields`` are the law's support,
    kinks and label."""
    seed = _Lazy(lambda: tilt(prev, lambda x: (np.asarray(x, dtype=float) - c) ** 2,
                              weight_kinks=(c,)))

    def draw(rs: RandomSource, n: int):
        y = sample(seed.get(), rs, n)  # a fresh array: c + s (y - c) is formed in it
        s = rs.uniform(n)
        np.sqrt(s, out=s)
        np.subtract(1.0, s, out=s)
        y -= c
        y *= s
        y += c
        return y

    dens, cdf = _identity_density(X, spec, m, beta, c)
    return Distribution(density=dens, cdf=cdf, sampler=draw, **fields)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def second_difference_transform(X: Distribution, a: float) -> BiasedDistribution:
    """The second-difference transform of X at ``a``; its normalizer is
    half the second moment about ``a``.  Degenerate when X is (numerically)
    a point mass at ``a``."""
    a = float(a)
    second_moment = expectation(X, lambda x: (np.asarray(x, float) - a) ** 2)
    if not second_moment > SECOND_MOMENT_TOL:
        raise DegenerateAlpha(f"second moment about {a} is zero (point mass at the location)")
    lo, hi = X.effective_support()
    unit = unit_bias_spec()
    law = _step_law(X, X, unit, 2, second_moment / 2.0, a, lo=min(lo, a), hi=max(hi, a),
                    kinks=(a,) + X.kinks,
                    label=f"second-difference({X.label or 'X'}; a={a})")
    recipe = ChainRecipe(BiasRecipe(unit, X), (second_moment / 2.0,), location=a)
    return BiasedDistribution(law, alpha=second_moment / 2.0, beta=None, recipe=recipe)


def beta_of(X: Distribution, spec: SignChangeSpec, m: int) -> float:
    """Order-m normalizer

        beta = E[B(X) (X^m - interpolant of x^m at the nodes)] / m!

    (plain E[B(X) X^m] / m! with no nodes), one expectation of B: the route
    apart that the chain's beta (``bias_to_order``) is tested against.
    Always positive for a valid, nondegenerate configuration; equals alpha
    when k == m."""
    k = spec.k
    if k > m:
        raise InputError(f"need k <= m, got k={k}, m={m}")
    if (m - k) % 2 != 0:
        raise ParityMismatch(f"k={k} and m={m} have different parity")
    interp = lagrange_poly(spec.nodes, [x**m for x in spec.nodes])  # zero with no nodes
    kernel = lambda x: spec.bias(x) * (x ** m - interp(x))
    b = expectation(X, kernel, points=spec.quad_points) / math.factorial(m)
    if not b > ALPHA_TOL:
        raise DegenerateBeta(f"order-{m} normalizer {b!r} is not positive")
    return float(b)


def bias_to_order(X: Distribution, spec: SignChangeSpec, m: int) -> BiasedDistribution:
    """k-node transform lifted to derivative order m (same parity as k) by
    chaining second-difference steps at zero onto the k-node stage.  beta is
    the chain's alpha * prod(b_l), b_l half the running second moment (the
    base's recipe moments, mapped step by step), the product each step's
    table is divided by.  DegenerateBeta at a stage that is a point mass at
    zero or at beta <= ALPHA_TOL."""
    k = spec.k
    if m < 0 or k > m:
        raise InputError(f"need 0 <= k <= m, got k={k}, m={m}")
    if (m - k) % 2 != 0:
        raise ParityMismatch(f"k={k} and m={m} have different parity")
    base = bias(X, spec)
    if k == m:
        return base

    mom = recipe_moments(base.recipe, m - k)
    law, beta = base.law, base.alpha
    fields = dict(lo=min(law.lo, 0.0), hi=max(law.hi, 0.0), kinks=(0.0,) + law.kinks,
                  label=f"bias-to-order({X.label or 'X'}; k={k}, m={m})")
    normalizers = []
    for order in range(k + 2, m + 1, 2):
        normalizers.append(float(mom[2] / 2.0))
        mom = _hat_moment_map(mom)  # DegenerateBeta at a point mass at zero
        beta *= normalizers[-1]
        law = _step_law(law, X, spec, order, beta, 0.0, **fields)
    if not beta > ALPHA_TOL:
        raise DegenerateBeta(f"order-{m} normalizer {beta!r} is not positive")
    recipe = ChainRecipe(base=base.recipe, step_normalizers=tuple(normalizers))
    return BiasedDistribution(law, alpha=base.alpha, beta=float(beta), recipe=recipe)
