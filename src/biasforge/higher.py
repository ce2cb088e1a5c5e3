"""Second-difference transforms and order-lifted bias transforms.

The second-difference transform at a location ``a`` is the unique law
turning the second-order Taylor remainder of a test function into its
second derivative:

    E[f(X) - f(a) - f'(a)(X - a)] = (1/2) E[(X - a)^2] E[f''(XH)].

It is built by applying the one-node sign transform at ``a`` twice in a
row, so its density comes straight out of the one-node machinery.

Chaining (m - k)/2 second-difference steps at zero onto a k-node
transform lifts the derivative order from k to any m of the same parity.
The lifted identity subtracts, besides the node interpolant, an explicit
degree <= m-1 correction polynomial built from the test function's
derivatives at zero; its normalizer beta is always positive for a
nondegenerate chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateBeta, DegenerateAlpha, InputError, ParityMismatch
from .distributions import (
    DEFAULT_QUAD,
    Distribution,
    QuadratureConfig,
    RandomSource,
    _Lazy,
    cache_density,
    expectation,
    moment,
    sample,
)
from .polynomials import lagrange_poly
from .transform import (
    ALPHA_TOL,
    DENSITY_GRID,
    BiasedDistribution,
    SignChangeSpec,
    alpha_of,
    bias,
    recipe_moments,
    shift_moments,
    sign_spec,
)

SECOND_MOMENT_TOL = 1e-12


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HatRecipe:
    """Second-difference construction record: the inner law, the location,
    and the exact second moment about it."""

    inner: Distribution
    location: float
    second_moment: float

    def moments(self, top: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> np.ndarray:
        """Raw moments of the inner law, centred at the location, mapped
        through one step and shifted back."""
        a = self.location
        raw = np.array([moment(self.inner, p, cfg) for p in range(top + 3)])
        return shift_moments(_hat_moment_map(shift_moments(raw, -a)), a)


@dataclass(frozen=True)
class ChainRecipe:
    """k-node base stage plus (m - k)/2 second-difference steps at zero,
    with the per-step normalizers (half the running second moments)."""

    base: BiasedDistribution
    step_normalizers: tuple

    def moments(self, top: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> np.ndarray:
        steps = len(self.step_normalizers)
        mom = recipe_moments(self.base.recipe, top + 2 * steps, cfg)
        for _ in range(steps):
            mom = _hat_moment_map(mom)
        return mom


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

def _hat_law_build(W: Distribution, a: float, cfg: QuadratureConfig) -> Distribution:
    """Two one-node sign stages at ``a``, each density cached on a grid."""
    stage1 = bias(W, sign_spec(a), cfg=cfg, check=False)
    law1 = cache_density(stage1.law, DENSITY_GRID, cfg)
    stage2 = bias(law1, sign_spec(a), cfg=cfg, check=False)
    return cache_density(stage2.law, DENSITY_GRID, cfg)


def _deferred_law(builder, lo: float, hi: float, kinks: tuple, label: str) -> Distribution:
    """Constructed law whose density/CDF/sampler are built on first use."""
    thunk = _Lazy(builder)

    def dens(x):
        return thunk.get().density(x)

    def cdf(x):
        return thunk.get().cdf(x)

    def draw(rs: RandomSource, n: int):
        return sample(thunk.get(), rs, n)

    return Distribution(kind="constructed", lo=lo, hi=hi, density=dens, cdf=cdf,
                        sampler=draw, kinks=kinks, label=label)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def second_difference_transform(X: Distribution, a: float,
                                rng: Optional[RandomSource] = None,
                                cfg: QuadratureConfig = DEFAULT_QUAD,
                                second_moment: Optional[float] = None) -> BiasedDistribution:
    """The second-difference transform of X at ``a``; its normalizer is
    half the second moment about ``a``.  Degenerate when X is (numerically)
    a point mass at ``a``."""
    a = float(a)
    if second_moment is None:
        second_moment = expectation(X, lambda x: (np.asarray(x, float) - a) ** 2, cfg)
    if not second_moment > SECOND_MOMENT_TOL:
        raise DegenerateAlpha(f"second moment about {a} is zero (point mass at the location)")
    lo, hi = X.effective_support(cfg)
    law = _deferred_law(lambda: _hat_law_build(X, a, cfg),
                        min(lo, a), max(hi, a), (a,) + X.kinks,
                        label=f"second-difference({X.label or X.kind}; a={a})")
    recipe = HatRecipe(inner=X, location=a, second_moment=float(second_moment))
    return BiasedDistribution(law, alpha=second_moment / 2.0, beta=None,
                              recipe=recipe, rng=rng)


def beta_of(X: Distribution, spec: SignChangeSpec, m: int,
            cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Order-m normalizer

        beta = E[B(X) (X^m - interpolant of x^m at the nodes)] / m!

    (plain E[B(X) X^m] / m! with no nodes).  Always positive for a valid,
    nondegenerate configuration; equals alpha when k == m."""
    k = spec.k
    if k > m:
        raise InputError(f"need k <= m, got k={k}, m={m}")
    if (m - k) % 2 != 0:
        raise ParityMismatch(f"k={k} and m={m} have different parity")
    nodes = tuple(spec.nodes)
    B = spec.bias
    if k == 0:
        kernel = lambda x: float(B(x)) * float(x) ** m
    else:
        interp = lagrange_poly(nodes, [x**m for x in nodes])
        kernel = lambda x: float(B(x)) * (float(x) ** m - interp(float(x)))
    b = expectation(X, kernel, cfg, points=spec.quad_points) / math.factorial(m)
    if not b > ALPHA_TOL:
        raise DegenerateBeta(f"order-{m} normalizer {b!r} is not positive")
    return float(b)


def bias_to_order(X: Distribution, spec: SignChangeSpec, m: int,
                  rng: Optional[RandomSource] = None,
                  cfg: QuadratureConfig = DEFAULT_QUAD,
                  check: bool = True) -> BiasedDistribution:
    """k-node transform lifted to derivative order m (same parity as k) by
    chaining second-difference steps at zero onto the k-node stage."""
    k = spec.k
    if m < 0 or k > m:
        raise InputError(f"need 0 <= k <= m, got k={k}, m={m}")
    if (m - k) % 2 != 0:
        raise ParityMismatch(f"k={k} and m={m} have different parity")
    base = bias(X, spec, rng=rng, cfg=cfg, check=check)
    if k == m:
        return base

    steps = (m - k) // 2
    mom = recipe_moments(base.recipe, 2 * steps, cfg)
    normalizers = []
    for _ in range(steps):
        b_l = mom[2] / 2.0
        if not b_l > SECOND_MOMENT_TOL:
            raise DegenerateBeta("chain stage degenerated to a point mass at zero")
        normalizers.append(float(b_l))
        mom = _hat_moment_map(mom)
    beta = beta_of(X, spec, m, cfg)

    base_law = base.law
    lo = min(base_law.lo, 0.0)
    hi = max(base_law.hi, 0.0)

    def build():
        law = base_law
        for _ in range(steps):
            law = _hat_law_build(law, 0.0, cfg)
        return law

    law = _deferred_law(build, lo, hi, (0.0,) + base_law.kinks,
                        label=f"bias-to-order({X.label or X.kind}; k={k}, m={m})")
    recipe = ChainRecipe(base=base, step_normalizers=tuple(normalizers))
    return BiasedDistribution(law, alpha=base.alpha, beta=beta, recipe=recipe, rng=rng)


def moment_via_coefficients(X: Distribution, spec: SignChangeSpec, j: int,
                            cfg: QuadratureConfig = DEFAULT_QUAD,
                            method: str = "symmetric") -> float:
    """Independent route to E[Y^j] for the k-node transform Y of X:

        E[Y^j] = sum_i c_i^{(j)} E[B(X) X^i prod(X - x_l)] / (alpha (k+j)_k)

    with the interpolation-residual coefficients c (k >= 1 nodes).  Used as
    a cross-check of the seed-and-shrink moment recursion."""
    from .polynomials import interp_coeff

    k = spec.k
    if k < 1:
        raise InputError("coefficient route needs at least one node")
    alpha = alpha_of(X, spec, cfg)
    falling = 1
    for r in range(k):
        falling *= (k + j) - r
    total = 0.0
    for i in range(j + 1):
        c = interp_coeff(spec.nodes, i, j, method)
        if c == 0.0:
            continue
        kern = lambda x, _i=i: float(spec.tilt_weight(x)) * float(x) ** _i
        total += c * expectation(X, kern, cfg, points=spec.quad_points)
    return total / (alpha * falling)
