"""Independent oracles the benchmark checks biasforge against.

Nothing here calls biasforge: closed-form densities and moments of the
catalog transforms, moments of polynomial biases on the uniform law by
exact polynomial integration, the vectorized one-node density and CDF of an
empirical law, and the Kolmogorov critical value.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial as P
from scipy.special import ndtr

# Level of every KS check.  At this level a correct sampler fails by chance
# about once in 10^6 checks, so a failed check means a wrong sampler or CDF.
KS_LEVEL = 1e-6


def kolmogorov_critical(n: int, level: float = KS_LEVEL) -> float:
    """Critical value of the one-sample KS statistic for n draws: the x with
    P(K > x) = level for the Kolmogorov limit law, over sqrt(n)."""
    def tail(x):
        return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 101))

    lo, hi = 0.5, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tail(mid) > level:
            lo = mid
        else:
            hi = mid
    return hi / math.sqrt(n)


def ks_against(draws, cdf) -> float:
    """KS statistic of ``draws`` against ``cdf`` (the benchmark's own
    arithmetic, used where the library's statistic is not under test)."""
    xs = np.sort(np.asarray(draws, dtype=float))
    n = xs.size
    F = cdf(xs)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


# ---------------------------------------------------------------------------
# catalog laws
# ---------------------------------------------------------------------------

def normal_pdf(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def normal_moment(q: int) -> float:
    """E[X^q] of the standard normal: (q-1)!! for even q, 0 for odd q."""
    return 0.0 if q % 2 else float(math.prod(range(q - 1, 0, -2)))


def half_normal_mixture_pdf(t, w: float, sigma: float):
    """w * half-normal(sigma) on t > 0 plus (1-w) * its mirror on t < 0."""
    t = np.asarray(t, dtype=float)
    hn = 2.0 * np.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return np.where(t > 0, w * hn, np.where(t < 0, (1.0 - w) * hn, np.nan))


def half_normal_mixture_moment(p: int, w: float, sigma: float) -> float:
    absolute = sigma**p * 2.0 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)
    return (w + (1.0 - w) * (-1) ** p) * absolute


def second_order_normal_pdf(t):
    """Density of the transform of N(0,1) under f'' - x f' - f (B0 = 1,
    B1 = x at node 0; alpha = 3/2): (2 phi(t) - |t| Phi(-|t|)) / (3/2)."""
    a = np.abs(np.asarray(t, dtype=float))
    return (2.0 * normal_pdf(a) - a * ndtr(-a)) / 1.5


def second_order_normal_moment(p: int) -> float:
    """From 1.5 (p+2)(p+1) E[Z^p] = E[X^{p+2}] + (p+2) E[X^{p+2}]."""
    return (p + 3) * normal_moment(p + 2) / (1.5 * (p + 2) * (p + 1))


# ---------------------------------------------------------------------------
# transforms of the uniform law on [-1, 1]
# ---------------------------------------------------------------------------

def uniform_xplus_pdf(t, node: float):
    """Positive-part bias on U(-1, 1) with node 0 or -1 (the ambiguity pair)."""
    t = np.asarray(t, dtype=float)
    cap = np.where((t >= 0) & (t <= 1), 1.0 - t * t, 0.0)
    if node == 0.0:
        return 1.5 * cap
    if node == -1.0:
        return 0.6 * cap + np.where((t >= -1) & (t < 0), 0.6, 0.0)
    raise ValueError("closed form known for nodes 0 and -1 only")


def uniform_xplus_cdf(t, node: float):
    """CDF of ``uniform_xplus_pdf`` (node 0): (3/2)(t - t^3/3) on [0, 1]."""
    if node != 0.0:
        raise ValueError("CDF given for node 0 only")
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return 1.5 * (t - t**3 / 3.0)


def uniform_xplus_moment(p: int, node: float) -> float:
    cap = 1.0 / (p + 1) - 1.0 / (p + 3)
    if node == 0.0:
        return 1.5 * cap
    return 0.6 * cap + 0.6 * (-1) ** p / (p + 1)


def uniform_lift2_pdf(t):
    """Order-2 lift of U(-1, 1) under the unit bias: (3/2)(1 - |t|)^2."""
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1, 1.5 * (1.0 - np.abs(t)) ** 2, 0.0)


def uniform_lift2_moment(p: int) -> float:
    return 0.0 if p % 2 else 6.0 / ((p + 1) * (p + 2) * (p + 3))


def _uniform_mean(poly: P) -> float:
    anti = poly.integ()
    return float(anti(1.0) - anti(-1.0)) / 2.0


def uniform_node_product_moment(p: int, nodes) -> float:
    """E[Z^p] for the k-node transform of U(-1, 1) under B(x) = prod(x - x_j),
    from the defining identity with F(x) = x^(p+k):

        (p+k)!/p! * alpha * E[Z^p] = E[B(X) (X^(p+k) - L(X))],

    with L the interpolant of x^(p+k) at the nodes and
    alpha = E[B(X) prod(X - x_j)] / k!."""
    nodes = [float(x) for x in nodes]
    k = len(nodes)
    B = P.fromroots(nodes)
    alpha = _uniform_mean(B * B) / math.factorial(k)
    power = P([0.0] * (p + k) + [1.0])
    L = P.fit(nodes, [x ** (p + k) for x in nodes], k - 1).convert() if k > 1 else \
        P([nodes[0] ** (p + k)])
    rhs = _uniform_mean(B * (power - L))
    return rhs * math.factorial(p) / (math.factorial(p + k) * alpha)


def trapezoid_moments(ts, ps, top: int):
    """Moments 1..top of a density tabulated on the grid ``ts``."""
    ts = np.asarray(ts, dtype=float)
    ps = np.asarray(ps, dtype=float)
    return [float(np.trapezoid(ts**p * ps, ts)) for p in range(1, top + 1)]


# ---------------------------------------------------------------------------
# exponential law and its size-biased tilt
# ---------------------------------------------------------------------------

def exponential_pdf(t):
    t = np.asarray(t, dtype=float)
    return np.where(t >= 0, np.exp(-np.clip(t, 0, None)), 0.0)


def exponential_cdf(t):
    t = np.asarray(t, dtype=float)
    return np.where(t > 0, -np.expm1(-np.clip(t, 0, None)), 0.0)


def gamma2_pdf(t):
    """Exponential(1) tilted by w(x) = x: the Gamma(2, 1) density."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= 0, np.clip(t, 0, None) * np.exp(-np.clip(t, 0, None)), 0.0)


# ---------------------------------------------------------------------------
# zero-bias transform of an empirical law (B(x) = x, node 0)
# ---------------------------------------------------------------------------

class EmpiricalZeroBias:
    """Exact density and CDF of the zero-bias transform of the empirical law
    of ``samples``:

        p(t) = sum_i x_i (1{0 <= t <= x_i} - 1{x_i < t < 0}) / (n alpha),

    alpha = mean(x^2), from sorted samples and prefix sums."""

    def __init__(self, samples):
        xs = np.sort(np.asarray(samples, dtype=float))
        self.xs = xs
        self.n = xs.size
        self.alpha = float(np.mean(xs * xs))
        self.prefix = np.concatenate(([0.0], np.cumsum(xs)))
        breaks = np.unique(np.concatenate((xs, [0.0])))
        mids = 0.5 * (breaks[1:] + breaks[:-1])
        self.breaks = breaks
        self.levels = self.pdf(mids)
        self.cum = np.concatenate(([0.0], np.cumsum(self.levels * np.diff(breaks))))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        ge = np.searchsorted(self.xs, t, side="left")          # first x_i >= t
        upper = self.prefix[-1] - self.prefix[ge]                # sum of x_i >= t
        lower = self.prefix[ge]                                  # sum of x_i < t
        val = np.where(t >= 0, upper, np.where(t < 0, -lower, 0.0))
        return np.clip(val / (self.n * self.alpha), 0.0, None)

    def moment(self, p: int) -> float:
        """From (p+1) alpha E[Z^p] = E[X^(p+2)]."""
        return float(np.mean(self.xs ** (p + 2))) / ((p + 1) * self.alpha)

    def total_mass(self) -> float:
        return float(self.cum[-1])

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        j = np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0, self.levels.size - 1)
        inside = self.cum[j] + self.levels[j] * (t - self.breaks[j])
        return np.where(t < self.breaks[0], 0.0,
                        np.where(t >= self.breaks[-1], 1.0, inside))
