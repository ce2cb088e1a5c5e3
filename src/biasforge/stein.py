"""Linear-operator transforms of order two and higher, coupling-based
Wasserstein bound arithmetic, and fixed-point checks.

An operator  L f = f^{(m)} - sum_j B_j f^{(j)}  with admissible coefficient
sign patterns induces a transform X*: mix the order-lifted transforms of X
under each B_j with weights proportional to their normalizers.  A law Z is
a fixed point of the induced transform exactly when its density solves the
corresponding differential equation (first order: log-derivative equals
-B/alpha), which is what ``fixed_point_check`` probes numerically.

The bound constants c_i come from operator-specific smoothness estimates
for solutions of the associated equation; they are caller inputs here and
are never computed by this package.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    AllBetaZero,
    DegenerateAlpha,
    DegenerateBeta,
    InputError,
    NegativeWeight,
    SignViolation,
    ZeroNormalizer,
)
from .distributions import (
    Distribution,
    RandomSource,
    _Lazy,
    _check_draws,
    _mean_se,
    as_array_fn,
    expectation,
    make_mixture,
    sample,
)
from .transform import (
    ALPHA_TOL,
    BiasedDistribution,
    MixtureRecipe,
    SignChangeSpec,
    _bias,
    _identity_read,
    _one_node_density,
    alpha_of,
    bias,
)
from .higher import _chain, _order_checked

FD_STEP = 1e-4          # fixed-point check: finite-difference step
DENSITY_FLOOR = 1e-6    # probes where the density is below this are skipped
NODE_MARGIN = 1e-2      # probes this close to a node are skipped


# ---------------------------------------------------------------------------
# operator description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteinOperator:
    """L f = f^{(m)} - sum_{j<m} B_j f^{(j)} with each coefficient wrapped in
    a sign-change spec whose node count k_j <= m - j has the parity of m - j
    (``higher._order_checked``)."""

    order: int
    coeffs: tuple  # SignChangeSpec for B_0 ... B_{m-1}

    def __post_init__(self):
        if self.order < 1:
            raise InputError("operator order must be >= 1")
        if len(self.coeffs) != self.order:
            raise InputError(f"need {self.order} coefficient specs, got {len(self.coeffs)}")
        for j, spec in enumerate(self.coeffs):
            _order_checked(spec, self.order - j)


# ---------------------------------------------------------------------------
# second order
# ---------------------------------------------------------------------------

def _operator_alpha(X: Distribution, B0: Callable, B1: Callable, a: float) -> float:
    """alpha_1 + alpha_2 = E[B0(X)(X - a)^2] / 2 + E[B1(X)(X - a)]."""
    alpha1 = 0.5 * expectation(X, lambda x: B0(x) * (x - a) ** 2, points=(a,))
    alpha2 = expectation(X, lambda x: B1(x) * (x - a), points=(a,))
    alpha = alpha1 + alpha2
    if not alpha > ALPHA_TOL:
        raise DegenerateAlpha("alpha_1 + alpha_2 is numerically zero")
    return alpha


def second_order_transform(X: Distribution, B0: Callable, B1: SignChangeSpec,
                           B0_kinks: Sequence[float] = ()) -> BiasedDistribution:
    """Transform X* for the operator f'' - B1 f' - B0 f with B0 >= 0 and B1
    sign-compatible at its single node a:

        alpha E[f''(X*)] = E[B0(X)(f(X) - f(a) - f'(a)(X-a))
                            + B1(X)(f'(X) - f'(a))].

    It is the order-2 operator (B0 as a zero-node spec, B1) about a
    (``_operator``), with beta None: the one-step chain about a on the B0
    tilt and the one-node B1 transform, weighted by alpha_1 = E[B0(X)(X -
    a)^2] / 2 and alpha_2.  NegativeWeight where B0 is negative on X."""
    _order_checked(B1, 1)  # one node
    a = float(B1.nodes[0])
    t = _operator(X, (SignChangeSpec(B0, kinks=B0_kinks), B1), a,
                  f"second-order({X.label or 'X'}; a={a})")
    return replace(t, beta=None)


def second_order_density(X: Distribution, B0: Callable, B1: Callable, a: float, t: float,
                         alpha: Optional[float] = None) -> float:
    """Density of the second-order transform:

        q(t) = E[(B1(X) + B0(X)(X - t)) (1{a <= t <= X} - 1{X < t < a})] / alpha,

    exact on atoms, one adaptive integral otherwise (the pointwise oracle of
    the second-order law's panel-table density)."""
    a, t = float(a), float(t)
    if alpha is None:
        alpha = _operator_alpha(X, B0, B1, a)
    return _one_node_density(X, lambda x: B1(x) + B0(x) * (x - t), a, t, alpha, (a,))


# ---------------------------------------------------------------------------
# general order
# ---------------------------------------------------------------------------

def higher_order_transform(X: Distribution, op: SteinOperator) -> BiasedDistribution:
    """Transform X* for a general order-m operator: ``_operator`` about 0."""
    return _operator(X, op.coeffs, 0.0, f"operator-transform(order={op.order})")


def _operator(X: Distribution, specs: Sequence[SignChangeSpec], c: float,
              label: str) -> BiasedDistribution:
    """The transform of X for L f = f^(m) - sum_j B_j f^(j), m = len(specs),
    about ``c``: its parts, the order-(m - j) transforms under specs[j] (a
    chain about c, ``higher._chain``, when k_j < m - j, else the stage's own
    law), mixed by their normalizers beta_j (alpha_j unlifted), whose sum is
    alpha = beta; a vanishing one drops out, AllBetaZero when all do.  Each
    part takes one pass over X (``transform._bias``); the first carries every
    coefficient's rows B_j(x) (x - c)^i, i < m - j, for one tail table at
    -inf, so the density sum_j beta_j p_j(t) / alpha reads each slice
    exactly (``transform._identity_read``), with no grid.  NegativeWeight
    where a zero-node coefficient is negative at a probe point of X."""
    m, parts, norms = len(specs), [], []
    for j, spec in enumerate(specs):
        lifted = spec.k < m - j
        refuse = ((SignViolation, "sign pattern fails") if spec.k else
                  (NegativeWeight, f"order-{j} coefficient is negative"))
        more = () if j else tuple(zip(specs[1:], range(m - 1, 0, -1)))
        stage = _bias(X, spec, m - j, c, c if lifted else 0.0, refuse, more)
        if not j:
            tails = _Lazy(partial(stage[1], -np.inf))
        with contextlib.suppress(DegenerateAlpha, DegenerateBeta, ZeroNormalizer):
            part = (_chain(X, spec, m - j, c, f"order-{m - j}({X.label or 'X'}; c={c})", stage)
                    if lifted else stage[0]())
            parts.append(part)
            norms.append(part.beta if lifted else part.alpha)
    alpha = sum(norms)
    if not alpha > ALPHA_TOL:
        raise AllBetaZero("every coefficient normalizer vanishes")
    starts = np.cumsum([0, *range(m, 0, -1)])  # coefficient j's rows: starts[j] to starts[j + 1]
    reads = [(_identity_read(spec, m - j, c), slice(starts[j], starts[j + 1]))
             for j, spec in enumerate(specs)]

    def density(t):
        ts, table = np.asarray(t, dtype=float), tails.get()
        tail, full = table(ts), table.total
        return np.maximum(sum(read(ts, tail[at], full[at]) for read, at in reads) / alpha, 0.0)

    weights = tuple(n / alpha for n in norms)
    law = replace(make_mixture([p.law for p in parts], weights), density=as_array_fn(density),
                  label=label)
    return BiasedDistribution(law, alpha=alpha, beta=alpha,
                              recipe=MixtureRecipe(tuple(parts), weights))


# ---------------------------------------------------------------------------
# distance-bound arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceBound:
    """Ingredients and result of a coupling-based Wasserstein bound; the
    bound is the exact stated combination of its ingredients."""

    order: int
    constants: tuple
    coupling_gap: float
    alpha_dev: float
    residuals: tuple
    bound: float
    f_at_node: Optional[float] = None


def _as_constants(c, names):
    try:
        vals = tuple(float(v) for v in ([c[n] for n in names] if isinstance(c, dict) else c))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"need numeric constants {names}: {exc!r}") from exc
    if len(vals) != len(names):
        raise InputError(f"need constants {names}")
    if any(not math.isfinite(v) or v < 0 for v in vals):
        raise InputError("bound constants must be finite and nonnegative")
    return vals


def first_order_bound(coupling_gap: float, alpha: float, b_mean: float, c,
                      f_at_node: Optional[float] = None) -> DistanceBound:
    """c2 E|X - X'| + c1 |1 - alpha| + c0 |E B(X)|; when the solution value
    at the node is known, |f(x_1)| replaces c0."""
    c0, c1, c2 = _as_constants(c, ("c0", "c1", "c2"))
    gap = float(coupling_gap)
    dev = abs(1.0 - float(alpha))
    res = abs(float(b_mean))
    third = abs(float(f_at_node)) if f_at_node is not None else c0
    bound = c2 * gap + c1 * dev + third * res
    return DistanceBound(order=1, constants=(c0, c1, c2), coupling_gap=gap,
                         alpha_dev=dev, residuals=(res,), bound=float(bound),
                         f_at_node=None if f_at_node is None else float(f_at_node))


def second_order_bound(coupling_gap: float, alpha: float, residuals, c) -> DistanceBound:
    """c3 E|X - X*| + c2 |1 - alpha| + c1 |E[B0(X)(X-a) + B1(X)]| + c0 |E B0(X)|."""
    c0, c1, c2, c3 = _as_constants(c, ("c0", "c1", "c2", "c3"))
    r1, r0 = (abs(float(residuals[0])), abs(float(residuals[1])))
    gap = float(coupling_gap)
    dev = abs(1.0 - float(alpha))
    bound = c3 * gap + c2 * dev + c1 * r1 + c0 * r0
    return DistanceBound(order=2, constants=(c0, c1, c2, c3), coupling_gap=gap,
                         alpha_dev=dev, residuals=(r1, r0), bound=float(bound))


def first_order_coupling_stats(X: Distribution, spec: SignChangeSpec, n: int, seed: int,
                               coupling: str = "independent") -> dict:
    """Monte Carlo estimates of the first-order bound ingredients.

    coupling="self" identifies X' with X, so the coupling gap is 0 for any
    law: it checks nothing, and the bound it feeds is valid only when X is
    already known to be a fixed point of the transform.  "independent"
    draws X' from the freshly built transform on a derived stream."""
    if coupling not in ("self", "independent"):
        raise InputError("coupling must be 'self' or 'independent'")
    _check_draws(n)
    rs = RandomSource(seed)
    xs = sample(X, rs, n)
    w = as_array_fn(spec.tilt_weight)(xs)  # a fresh array
    w /= math.factorial(spec.k)
    alpha, b_mean = _mean_se(w), _mean_se(as_array_fn(spec.bias)(xs))
    del w  # freed before the transform is drawn
    if coupling == "self":
        gaps = np.zeros_like(xs)
    else:
        gaps = bias(X, spec).sample(n, rs.derive(1_000_003))  # |X - X'| in the draws' buffer
        gaps -= xs
        np.abs(gaps, out=gaps)
    report = {"coupling": coupling, "n": int(n), "seed": int(seed)}
    for name, (mean, se) in (("coupling_gap", _mean_se(gaps)), ("alpha", alpha),
                             ("b_mean", b_mean)):
        report[name], report[f"{name}_se"] = mean, se
    return report


# ---------------------------------------------------------------------------
# fixed-point checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointReport:
    mode: str
    max_residual: float
    argmax: float
    n_probes: int


def fixed_point_check(Z: Distribution, spec: Optional[SignChangeSpec] = None,
                      B0: Optional[Callable] = None, B1: Optional[Callable] = None,
                      B1_deriv: Optional[Callable] = None, a: float = 0.0,
                      probes=None) -> FixedPointReport:
    """Residual of the fixed-point differential equation on a probe grid.

    First order (a ``spec``): a fixed point's density satisfies
    p'/p = -B/alpha, so the report carries max |p'(t)/p(t) + B(t)/alpha|
    over probes with p(t) > DENSITY_FLOOR, by Richardson-extrapolated
    central differences of step FD_STEP.  Second order (``B0``, ``B1`` and
    ``B1_deriv``, node ``a``): residual of alpha p'' = (B0 - B1') p - B1 p'.
    Node neighborhoods (NODE_MARGIN) are excluded because the density may
    kink there.  InputError when no probe is left to check."""
    if Z.density is None:
        raise InputError("fixed-point check needs a density")
    second = (B0, B1, B1_deriv)
    if spec is not None and second == (None, None, None):
        mode, nodes, alpha = "first-order", tuple(spec.nodes), alpha_of(Z, spec)
    elif spec is None and None not in second:
        mode, nodes, alpha = "second-order", (float(a),), _operator_alpha(Z, B0, B1, a)
    else:
        raise InputError("give a sign-change spec (first order) "
                         "or B0, B1 and B1_deriv (second order)")

    if probes is None:
        lo, hi = Z.effective_support()
        probes = np.linspace(lo + 2 * NODE_MARGIN, hi - 2 * NODE_MARGIN, 201)
    t = np.asarray(probes, dtype=float).ravel()
    t = t[np.all(np.abs(t[:, None] - np.array(nodes)) >= NODE_MARGIN, axis=1)]
    p = as_array_fn(Z.density)
    pt = p(t)
    keep = pt > DENSITY_FLOOR
    t, pt = t[keep], pt[keep]
    if not t.size:  # a check that evaluated nothing is no evidence of a fixed point
        raise InputError("no usable probe: each lies within NODE_MARGIN of a node "
                         "or where the density is at most DENSITY_FLOOR")

    h = FD_STEP  # Richardson: (4 D(h/2) - D(h)) / 3 of central differences D
    up, down, up2, down2 = p(t + h), p(t - h), p(t + h / 2), p(t - h / 2)
    d1 = (4.0 * ((up2 - down2) / (2.0 * (h / 2))) - (up - down) / (2.0 * h)) / 3.0
    if mode == "first-order":
        res = np.abs(d1 / pt + as_array_fn(spec.bias)(t) / alpha)
    else:
        d2 = (4.0 * ((up2 - 2.0 * pt + down2) / (h / 2) ** 2)
              - (up - 2.0 * pt + down) / h**2) / 3.0
        res = np.abs(alpha * d2
                     - (as_array_fn(B0)(t) - as_array_fn(B1_deriv)(t)) * pt
                     + as_array_fn(B1)(t) * d1)
    i = int(np.argmax(res))
    return FixedPointReport(mode=mode, max_residual=float(res[i]), argmax=float(t[i]),
                            n_probes=int(t.size))
