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
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    AllBetaZero,
    DegenerateAlpha,
    DegenerateBeta,
    InputError,
    NegativeWeight,
    ParityMismatch,
    ZeroNormalizer,
)
from .distributions import (
    Distribution,
    RandomSource,
    _Lazy,
    _TailTable,
    _probe_points,
    _check_draws,
    _mean_se,
    _tilt,
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
    _one_node_density,
    _validation_report,
    alpha_of,
    bias,
)
from .higher import bias_to_order, second_difference_transform

FD_STEP = 1e-4          # fixed-point check: finite-difference step
DENSITY_FLOOR = 1e-6    # probes where the density is below this are skipped
NODE_MARGIN = 1e-2      # probes this close to a node are skipped


# ---------------------------------------------------------------------------
# operator description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteinOperator:
    """L f = f^{(m)} - sum_{j<m} B_j f^{(j)} with each coefficient wrapped in
    a sign-change spec whose node count matches the parity of m - j."""

    order: int
    coeffs: tuple  # SignChangeSpec for B_0 ... B_{m-1}

    def __post_init__(self):
        if self.order < 1:
            raise InputError("operator order must be >= 1")
        if len(self.coeffs) != self.order:
            raise InputError(f"need {self.order} coefficient specs, got {len(self.coeffs)}")
        for j, spec in enumerate(self.coeffs):
            kj = spec.k
            if kj > self.order - j:
                raise InputError(f"coefficient {j} has too many sign changes")
            if (self.order - j - kj) % 2 != 0:
                raise ParityMismatch(
                    f"coefficient {j}: {kj} sign changes vs derivative order {self.order - j}")


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

    X* mixes the second-difference transform of the B0-tilted law with the
    one-node B1 transform, weighted by alpha_1, alpha_2: alpha_1 =
    E[B0(X)(X - a)^2] / 2 is the B0 tilt's normaliser times its second
    difference's (0 if either is degenerate), alpha_2 the one-node alpha.
    The density's tail table, of the loads [B1 + B0 (x - a), B0], sums the
    final panels of the B0 tilt's pass, which the loads ride (with the B1
    node and kinks as break points): no read integrates.  It takes a pass
    of its own only when integrate_fn took the tilt's."""
    if B1.k != 1:
        raise InputError("the order-1 coefficient needs exactly one sign-change node")
    a = float(B1.nodes[0])
    b0_of, probe = as_array_fn(B0), _probe_points(X)
    b0x = b0_of(probe)  # once: the verdict and the B0-tilted law read these values
    report = _validation_report(probe, b0x)
    if not report.passed:
        raise NegativeWeight(f"order-0 coefficient is negative at x={report.worst_point!r}")

    # the load B1 + B0 (x - t) is (B1 + B0 (x - a)) - (t - a) B0
    b1_of = as_array_fn(B1.bias)

    def loads(x):  # [B1 + B0 (x - a), B0], B0 evaluated once
        b0 = b0_of(x)
        return np.stack((b1_of(x) + b0 * (x - a), b0))

    tilted, z0, _, panels, _ = _tilt(X, b0_of, B0_kinks, probe, b0x, loads, B1.quad_points)
    normalized = []  # (part, alpha_1 or alpha_2) of each nondegenerate part
    if tilted is not None:
        with contextlib.suppress(DegenerateAlpha):
            hat = second_difference_transform(tilted, a)
            normalized.append((hat, z0 * hat.alpha))
    with contextlib.suppress(DegenerateAlpha):
        one_node = bias(X, B1)
        normalized.append((one_node, one_node.alpha))
    alpha = sum(n for _, n in normalized)
    if not alpha > ALPHA_TOL:
        raise DegenerateAlpha("alpha_1 + alpha_2 is numerically zero")
    parts, weights = zip(*((p, n / alpha) for p, n in normalized if n > ALPHA_TOL))

    law = make_mixture([p.law for p in parts], weights)
    tails = _Lazy(lambda: _TailTable(X, loads, panels, (*B0_kinks, *B1.quad_points)))

    def density(t):
        upper, flat = tails.get()(t, a)
        return (upper - (np.asarray(t, dtype=float) - a) * flat) / alpha

    law = replace(law, density=as_array_fn(density),
                  label=f"second-order({X.label or 'X'}; a={a})")
    return BiasedDistribution(law, alpha=alpha, beta=None,
                              recipe=MixtureRecipe(parts, weights))


def second_order_density(X: Distribution, B0: Callable, B1: Callable, a: float, t: float,
                         alpha: Optional[float] = None) -> float:
    """Density of the second-order transform:

        q(t) = E[(B1(X) + B0(X)(X - t)) (1{a <= t <= X} - 1{X < t < a})] / alpha,

    exact on atoms, one adaptive integral otherwise (the pointwise oracle of
    the second-order law's panel-table density)."""
    a, t = float(a), float(t)
    if alpha is None:
        alpha = _operator_alpha(X, B0, B1, a)

    def load(x):
        return B1(x) + B0(x) * (x - t)

    return _one_node_density(X, load, a, t, alpha, (a,))


# ---------------------------------------------------------------------------
# general order
# ---------------------------------------------------------------------------

def higher_order_transform(X: Distribution, op: SteinOperator) -> BiasedDistribution:
    """Transform X* for a general order-m operator: the order-lifted
    transforms under each coefficient, mixed with weights proportional to
    their normalizers beta_j (alpha_j for an unlifted coefficient, k_j = m - j).
    Coefficients whose normalizer vanishes drop out."""
    m = op.order
    parts = []
    for j, spec in enumerate(op.coeffs):
        try:
            parts.append(bias_to_order(X, spec, m - j))
        except (DegenerateBeta, DegenerateAlpha, ZeroNormalizer):
            pass
    betas = [p.beta if p.beta is not None else p.alpha for p in parts]
    total = float(sum(betas))
    if not total > ALPHA_TOL:
        raise AllBetaZero("every coefficient normalizer vanishes")
    weights = [b / total for b in betas]
    law = make_mixture([p.law for p in parts], weights)
    law = replace(law, label=f"operator-transform(order={m})")
    return BiasedDistribution(law, alpha=total, beta=total,
                              recipe=MixtureRecipe(tuple(parts), tuple(weights)))


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
