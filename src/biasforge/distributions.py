"""Distribution substrate: analytic catalog, atoms, empirical samples,
tilting, mixtures, density tables (``numeric_cdf`` builds through
``cache_density``), one-dimensional quadrature and the deterministic
sampling contract.

Laws are immutable ``Distribution`` values.  Samplers draw from a
caller-owned ``RandomSource``; equal seeds give identical streams, which
is what makes every experiment in this package reproducible.

An infinite support is integrated over the law's own window, where its
density is at least ``TAIL_EPS`` of its peak (all catalog densities decay at
least exponentially, so the truncation is harmless at the quadrature
tolerances).  Each law finds its window once and keeps it in one field
(``Distribution.effective_support``): the catalog laws in closed form, a
tilt from its normaliser pass, any other density by one tangent probe
(``_effective_bounds``) on first use; a mixture takes the hull of its
components' windows.  An integral against the law starts from that window
and widens it only at an infinite end where a weighted integrand (x^p f(x),
w(x) f(x)) has not yet decayed below ``TAIL_EPS`` of its peak
(``_start_panels``).  The probe and the widening apply one tail rule
(``_tail_hits``, ``_reach``).

Every integral against a density, an expectation or the tail table of a
transform, is one array-native adaptive panel rule (``_panels``):
8-point Gauss-Legendre panels, each compared with the rule on its two
halves and bisected, all panels of a round in one call of the integrand.
A tabulated density is no exception: its grid points, where it kinks, are
break points (``_knots``) like the law's kinks and the caller's points.
Every integrand is a stack on a leading axis, a plain function
x -> (J,) + shape of x (an expectation is a one-row stack; the moments
x^p f(x) of a density, a tilt's normaliser rows and the tail weights of a
transform riding them are more); the rows share one window, widened for
the slowest-decaying of them, and one panel pass, in which each is held
to its own tolerance; a tilt keeps the window of its own rows.  A
transform's seed moment rows ride that pass as spare rows, which neither
widen it nor take part in its acceptance.  The tail
table (``_TailTable``) sums the final panels of such a pass, the
construction's or one of its own.  One sliver policy serves every
caller: a panel still open after a fixed depth keeps its rule for each
row whose error there is within the whole tolerance, and ``integrate_fn``
(scipy's adaptive quadrature) values it for the others, on that row of
the stack (``_row``).  ``integrate_fn`` is also the independent oracle
the panel rule is tested against; a stack with a non-finite rule or too
many open panels goes to it whole, row by row.  scipy is imported on
first use only: by ``integrate_fn`` and by the first normal or
half-normal CDF.
Normal-family draws use a numpy quantile (AS241).
"""

from __future__ import annotations

import csv
import math
import threading
from dataclasses import dataclass, field, replace
from itertools import takewhile
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InputError,
    NegativeWeight,
    NoSampler,
    NonIntegrable,
    WeightMismatch,
    ZeroNormalizer,
)

ABS_TOL = 1e-9             # quadrature tolerance: ABS_TOL + REL_TOL |I|
REL_TOL = 1e-9
MAX_SUBDIVISIONS = 200     # scipy quad's subinterval limit in integrate_fn, beyond the points
TAIL_EPS = 1e-16           # truncate tails where |integrand| < TAIL_EPS * peak
ATOM_MASS_TOL = 1e-12
ZERO_NORMALIZER_TOL = 1e-12
NEGATIVE_WEIGHT_TOL = -1e-12
INVERSE_CDF_GRID = 8193
_PROBE_GRID = 4097
_PANEL_START = 64          # initial panels of the adaptive panel integral
_PANEL_DEPTH = 24          # bisection rounds before the sliver policy takes a panel
_TAIL_DEPTH = 28           # those of a pass tail rows ride: slivers as from 1024 start panels
_PANEL_OPEN_MAX = 1 << 16  # open panels beyond which integrate_fn takes the window
_MASK64 = (1 << 64) - 1
_BLOCK = 1 << 15           # points per call of a base density inside a tilted one
_LOOKUP_BLOCK = 1 << 14    # uniforms per block of a guide-table lookup


# ---------------------------------------------------------------------------
# random source
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RandomSource:
    """Seeded random stream from ``position`` 0, the uniforms drawn.  Single-owner:
    never share one source across concurrent tasks; derive independent ones.
    A source equals only itself: ``seed`` and ``position`` do not name a derived stream."""

    seed: int
    position: int = field(default=0, init=False)

    def __post_init__(self):
        self._gen = np.random.default_rng(int(self.seed) & _MASK64)

    def uniform(self, n: int) -> np.ndarray:
        """n i.i.d. U(0,1) draws, advancing the stream."""
        self.position += int(n)
        return self._gen.random(int(n))

    def derive(self, offset: int) -> "RandomSource":
        """Independent NEP 19 child stream (spawn key ``offset``); ``seed`` reads seed + offset."""
        child = RandomSource((int(self.seed) + int(offset)) & _MASK64)
        child._gen = np.random.default_rng(np.random.SeedSequence(
            int(self.seed) & _MASK64, spawn_key=(int(offset) & _MASK64,)))
        return child


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def as_array_fn(f: Callable) -> Callable:
    """Wrap ``f`` so a scalar input gives a Python float and an ndarray a
    same-shape ndarray, falling back to elementwise evaluation for
    scalar-only callables."""

    def g(x):
        arr = np.asarray(x, dtype=float)
        try:
            y = np.asarray(f(arr), dtype=float)
            if y.shape == arr.shape:
                return float(y) if arr.ndim == 0 else y
        except (TypeError, ValueError, ZeroDivisionError, IndexError):
            pass
        flat = np.array([float(f(float(v))) for v in arr.ravel()])
        return float(flat[0]) if arr.ndim == 0 else flat.reshape(arr.shape)

    return g


_TAN_PROBE = np.tan(np.linspace(-(math.pi / 2 - 1e-6), math.pi / 2 - 1e-6, _PROBE_GRID))
_TAN_PROBE.setflags(write=False)  # the tail probe's grid, shared by every call


def _tail_hits(vals: np.ndarray, eps=TAIL_EPS):
    """The tail rule per integrand of the stack ``vals`` (J on a leading
    axis; ``any`` over a subset of rows gives its rule): where it is at least
    ``eps`` (TAIL_EPS, or one per point) of its own peak, and where it is not
    finite.  A NaN is no hit (0 * inf: an integrable weight such as e^x
    overflows where the density is 0); an infinite value is a hit but no
    peak; a row without mass has no threshold.  Returns (hit, bad), (J, n)."""
    mag = np.abs(vals.reshape(-1, vals.shape[-1]))
    finite = np.isfinite(mag)
    peaks = np.where(finite, mag, 0.0).max(axis=1, keepdims=True)
    return mag >= np.where(peaks > 0.0, peaks * eps, np.nan), ~finite


def _effective_bounds(fv, lo, hi):
    """Finite integration window for a possibly infinite interval.

    Probes the array-native integrand ``fv``, which may stack J integrands
    on a leading axis, on a tangent-spaced grid and keeps the hull of the
    points where some integrand exceeds TAIL_EPS times its own peak
    (``_tail_hits``): the hull of the integrands' windows.  Each infinite
    end is decided by ``_reach``, on the grid read outward from the other
    end, so it raises NonIntegrable when an integrand has not decayed by
    |x| ~ 1e6, or is not finite at the window's end: it overflows before
    it decays below the threshold.  That holds for e^{x^2} on the normal,
    and also for e^{0.49 x^2}, which is integrable but overflows near
    |x| = 38: a numerical limit.  The probe runs without overflow warnings.
    """
    if math.isfinite(lo) and math.isfinite(hi):
        return float(lo), float(hi)
    xs = np.concatenate(([lo] if math.isfinite(lo) else [],
                         _TAN_PROBE[(_TAN_PROBE >= lo) & (_TAN_PROBE <= hi)],
                         [hi] if math.isfinite(hi) else []))
    with np.errstate(over="ignore", invalid="ignore"):
        hit, bad = (rows.any(axis=0) for rows in _tail_hits(fv(xs)))
    idx = np.flatnonzero(hit)
    if not idx.size:
        return 0.0, 0.0
    n = xs.size - 1
    a = max(idx[0] - 1, 0) if math.isfinite(lo) else n - _reach(n - idx[::-1], bad[::-1], xs[::-1])
    b = min(idx[-1] + 1, n) if math.isfinite(hi) else _reach(idx, bad, xs)
    return float(xs[a]), float(xs[b])


def integrate_fn(f, lo, hi, points: Sequence[float] = ()):
    """Adaptive quadrature of ``f`` on [lo, hi]; infinite endpoints are
    truncated by the tail rule.  ``points`` are known kink locations (a
    table's grid among them): quad may split MAX_SUBDIVISIONS times beyond
    the pieces they cut.  NonIntegrable when quad does not converge or gives
    inf (a node on a singularity, which quad returns silently); NaN passes."""
    from scipy import integrate  # loaded on first use

    lo_e, hi_e = _effective_bounds(as_array_fn(f), lo, hi)
    if not lo_e < hi_e:
        return 0.0
    pts = sorted(set(_inside(points, lo_e, hi_e).tolist()))
    out = integrate.quad(
        f, lo_e, hi_e,
        epsabs=ABS_TOL, epsrel=REL_TOL,
        limit=MAX_SUBDIVISIONS + len(pts), points=pts or None,
        full_output=1,
    )
    val, abserr = out[0], out[1]
    if math.isinf(val):
        raise NonIntegrable(f"quadrature gave {val} on [{lo_e!r}, {hi_e!r}]")
    if len(out) >= 4 and abserr > max(100 * ABS_TOL, 1e-6 * max(1.0, abs(val))):
        raise NonIntegrable(f"quadrature did not converge (err={abserr:.3g}): {out[3]}")
    return float(val)


def _sorted_unique(xs: np.ndarray) -> np.ndarray:
    """``np.unique`` of a float array without NaN, which does not import ``numpy.ma``."""
    xs = np.sort(xs)
    return xs[np.concatenate(([True], xs[1:] != xs[:-1]))]


# 8-point Gauss-Legendre, symmetric about 0: numpy.polynomial's leggauss(8)
# bit for bit, written out because importing numpy.polynomial takes milliseconds
_GX = np.array([0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GW = np.array([0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])
_GX, _GW = np.concatenate((-_GX[::-1], _GX)), np.concatenate((_GW[::-1], _GW))


def _gauss_legendre(fv: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """8-point Gauss-Legendre rule on the panels [a, b], arrays of any shape, from
    one call of ``fv`` on their nodes; ``fv`` may stack leading axes, which are kept."""
    half = 0.5 * (b - a)
    x = half[..., None] * _GX  # the nodes are formed in this array
    return fv(np.add(x, (0.5 * (a + b))[..., None], out=x)) @ _GW * half


def _panels(fv: Callable, edges: np.ndarray, depth: int = _PANEL_DEPTH, spare: int = 0):
    """Adaptive Gauss-Legendre panels on the window cut at the sorted
    ``edges``, the quadrature of every density integral, the rules on the
    first panels formed in the call of their halves' rules: each round accepts
    the halves of every open panel whose rule is within its share (by width)
    of ABS_TOL + REL_TOL |I| of the rule on its halves, or within 64 ulp of
    their value, and bisects the rest.
    ``fv`` stacks J integrands on a leading axis, (J,) + shape of x, each
    held to its own tolerance.  The one sliver policy: a panel still open
    after ``depth`` rounds (a jump or a singularity; by then a 2^-depth
    sliver of its start panel) keeps the rule on its halves for each
    integrand whose error there is within the whole tolerance
    ABS_TOL + REL_TOL |I| (the slivers of a jump), and ``integrate_fn``
    values its halves for the others, on ``_row(fv, j)``.
    The last ``spare`` integrands ride the panels of the others: they take
    no part in the acceptance, the finiteness check or the sliver policy.
    Returns (integrals, lefts, vals): the (J,) integrals and, round by
    round, the left edges and (J, n) values of the final panels, which tile
    the window.  None when a rule is not finite or more than
    _PANEL_OPEN_MAX panels are open at once."""
    a, b = edges[:-1], edges[1:]
    n, whole, held = a.size, None, slice(None, -spare or None)
    width, done, lefts, vals = edges[-1] - edges[0], 0.0, [], []
    for _ in range(depth):
        cuts = np.array((a, 0.5 * (a + b), b))
        if whole is None:  # the first rules on the panels ride along their halves' call
            r = _gauss_legendre(fv, np.concatenate((a, cuts[0], cuts[1])),
                                np.concatenate((b, cuts[1], cuts[2])))
            whole, halves = r[..., :n], r[..., n:].reshape(r.shape[:-1] + (2, n))
        else:
            halves = _gauss_legendre(fv, cuts[:2], cuts[1:])  # both halves in one call
        fine = halves[..., 0, :] + halves[..., 1, :]
        err = np.abs(fine - whole)  # finite only if both rules are
        total = done + fine.sum(axis=-1)
        tol = (ABS_TOL + REL_TOL * np.abs(total))[..., None]
        # a rule within 64 ulp of its own value is as close as rounding
        # allows: a total that cancels below that (an odd moment of a wide
        # symmetric law) is not reached by bisecting
        miss = (err > tol * (b - a) / width) & (err > 2.0 ** -46 * np.abs(fine))
        open_ = miss[held].reshape(-1, a.size).any(axis=0)
        if not np.isfinite(err[held]).all() or np.count_nonzero(open_) > _PANEL_OPEN_MAX:
            return None
        if not open_.any():
            return total, lefts + [a], vals + [fine]
        lefts.append(a[~open_])
        vals.append(fine.compress(~open_, axis=-1))
        done += vals[-1].sum(axis=-1)
        a, b = cuts[:2, open_].ravel(), cuts[1:, open_].ravel()  # left halves first
        whole = halves.compress(open_, axis=-1).reshape(fine.shape[:-1] + (-1,))
    far = (miss & (err > tol))[held].compress(open_, axis=-1)  # beyond the whole tolerance
    for j, i in zip(*np.nonzero(np.tile(far, 2))):  # the stuck panels: left halves first
        whole[j, i] = integrate_fn(_row(fv, j), a[i], b[i])
    return done + np.array([sum(r) for r in whole]), lefts + [a], vals + [whole]


def _inside(points, lo: float, hi: float) -> np.ndarray:
    """The break points ``points`` (any sequence or array of floats) strictly
    inside (lo, hi), as one array."""
    pts = np.asarray(points, dtype=float).ravel()
    return pts[(pts > lo) & (pts < hi)]


def _ladder(a: float, b: float, lo: float, hi: float):
    """The outward points of the window [a, b] at each infinite end of the
    support [lo, hi], in outward order: the end, then 16 steps
    r tan(theta) from it, r the window's half-width and theta every
    2 _PROBE_GRID / _PANEL_START-th angle of the tail probe's positive half
    (the first step 0.1 r, three start panels; the last r 1e6), those past
    the tail probe's end, |x| ~ 1e6, moved onto it.  Empty at a finite end.
    Returns (left, right)."""
    steps = 0.5 * (b - a) * _TAN_PROBE[_PROBE_GRID // 2::2 * _PROBE_GRID // _PANEL_START]
    far = _TAN_PROBE[-1]
    left = np.empty(0) if math.isfinite(lo) else np.subtract(a, steps)
    right = np.empty(0) if math.isfinite(hi) else np.add(b, steps)
    if a > -far:
        np.maximum(left, -far, out=left)
    if b < far:
        np.minimum(right, far, out=right)
    return left, right


def _reach(hits: np.ndarray, bad, pts: np.ndarray) -> int:
    """How many steps of the ladder ``pts`` (outward from a window's end) the
    window must take in, given the ascending indices of the ``_tail_hits``
    on it (``hits``) and where an integrand is not finite (``bad``): up to
    the first point past the last hit, 0 with no hit.  NonIntegrable when an
    integrand has not decayed by the ladder's last point or by |x| ~ 1e6,
    or is not finite where it decays."""
    if not hits.size:
        return 0
    last = int(hits[-1])
    if last == pts.size - 1 or (last and abs(pts[last]) >= _TAN_PROBE[-1]):
        raise NonIntegrable("integrand tail has not decayed below the truncation threshold")
    if bad[last:last + 2].any():
        raise NonIntegrable("integrand overflows before its tail decays below the truncation threshold")
    return last + 1


def _start_panels(fv: Callable, window, lo: float, hi: float, points, head=None, spare: int = 0):
    """The first panels' edges of an integral of ``fv`` (which may stack J
    integrands on a leading axis) against a law of support [lo, hi] and
    window ``window``: the _PANEL_START edges of the window and the
    ``points`` inside it, widened at an infinite end where an integrand has
    not decayed below TAIL_EPS of its peak there.  One call of fv takes the
    points of each infinite end's ``_ladder``, the window's edges and the
    tail probe's every _PROBE_GRID / _PANEL_START-th point inside the window
    (which find a peak the edges are too wide for).  Each integrand's peak
    over all those values sets how far (``_reach``) the window takes in the
    ladder's steps.  The law's density is at the threshold at the window's
    ends, up to their rounding (1 + 3.8e-15 of it on the normal), so an end
    is a hit only above twice the threshold: a constant weight keeps the
    window.  The last ``spare`` integrands widen nothing.  Returns (edges,
    the window the first ``head`` integrands, all but the spare ones by
    default, widen to, and the ladder steps past the edges that the first
    n spare ones reach as (left ends, right ends, n), n the most whose
    tails all decay): the rest widen the panels only."""
    a, b = window
    edges, inner = np.linspace(a, b, _PANEL_START + 1), _inside(points, a, b)
    if inner.size:
        edges = _sorted_unique(np.concatenate((edges, inner)))
    left, right = _ladder(a, b, lo, hi)
    past = (np.empty(0), np.empty(0), spare)
    if not (left.size or right.size):
        return edges, (float(a), float(b)), past
    coarse = _TAN_PROBE[::_PROBE_GRID // _PANEL_START]
    xs = np.concatenate((left, right, edges, coarse[(coarse > a) & (coarse < b)]))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = fv(xs)
    eps, k, m = np.where((xs == a) | (xs == b), 2.0 * TAIL_EPS, TAIL_EPS), left.size, right.size
    hits, bads = _tail_hits(vals, eps)

    def reach(rows):  # the ladder steps the integrands ``rows``, a slice, take in at each end
        hit, bad = hits[rows].any(axis=0), bads[rows].any(axis=0)
        return (_reach(np.flatnonzero(hit[:k]), bad[:k], left),
                _reach(np.flatnonzero(hit[k:k + m]), bad[k:k + m], right))

    held = len(hits) - spare
    out_l, out_r = reach(slice(held))
    own_l, own_r = reach(slice(head)) if head and head < held else (out_l, out_r)
    window = (float(left[own_l]) if k else float(a), float(right[own_r]) if m else float(b))
    past = (np.empty(0), np.empty(0), 0)
    for n in range(spare, 0, -1):  # the longest run of spare rows whose tails decay
        try:
            far_l, far_r = reach(slice(held + n))
        except NonIntegrable:
            continue
        lp, rp = left[out_l:far_l + 1][::-1], right[out_r:far_r + 1]
        past = np.concatenate((lp[:-1], rp[:-1])), np.concatenate((lp[1:], rp[1:])), n
        break
    edges = np.concatenate((left[out_l:0:-1], edges, right[1:out_r + 1]))
    inner = _inside(points, edges[0], edges[-1])
    inner = inner[(inner < a) | (inner > b)]  # those inside the window are edges already
    return (_sorted_unique(np.concatenate((edges, inner))) if inner.size else edges), window, past


def _running_products(head: Callable, factor: Callable, rows: int, start: int = 0) -> Callable:
    """The stack of ``rows`` integrands head(x) factor(x)^(start + j),
    j < rows, formed as a running product: ``g(x)`` gives the (rows,) +
    shape stack.  ``head`` and ``factor`` are array-native and each called
    at most once per call of g (``factor`` not at all for the one row
    head(x)); ``start`` is 0 or 1."""

    def g(x):
        v = head(x)
        step = factor(x) if start + rows > 1 else None
        out = np.empty((rows,) + np.shape(x))
        if start:
            v = np.multiply(v, step, out=out[0])
        else:
            out[0] = v
        for j in range(1, rows):
            v = np.multiply(v, step, out=out[j])
        return out

    return g


def _row(fv: Callable, j: int) -> Callable:
    """Row j of the stacked integrand ``fv`` at a scalar point, for
    ``integrate_fn``: the stack's own row, bit for bit."""
    return lambda x: fv(np.array([x]))[j, 0]


def _knots(d: Distribution, points=()) -> np.ndarray:
    """The break points of an integral against the density of ``d``: the
    caller's ``points``, the law's kinks and, for a table (linear between
    its grid points, so kinked at each), the grid."""
    table = _table_of(d)
    return np.concatenate((np.asarray(points, dtype=float).ravel(), d.kinks,
                           () if table is None else table.xs))


def _window_integral(fv: Callable, d: Distribution, points: Sequence[float] = (), head=None,
                     depth: int = _PANEL_DEPTH, spare: int = 0):
    """Integrals of the J integrands that ``fv`` stacks (each a weight times
    the density of ``d``) by ``_panels`` from ``_start_panels`` on the law's
    window and support, with ``_knots(d, points)`` as break points: they
    share the window and the panels, each panel held to every integrand's
    tolerance.  When the panels do not suit fv, ``integrate_fn`` takes the
    whole window row by row (``_row``), J read from one call of fv.  The
    last ``spare`` rows ride the others' panels and take no part in the
    window, the edges or a panel's acceptance, so the others keep their
    bits; each ladder step past the edges that they reach adds its 8-point
    rule to them.  They read NaN where those steps add more than the
    tolerance, from the first one that has not decayed on, or where
    integrate_fn takes the window.  Returns ((J,) integrals, the window of
    the first ``head`` rows, the final panels: (left edges, values) round
    by round as ``_panels`` gives them and the right end; None when
    integrate_fn took the window)."""
    knots = _knots(d, points)
    edges, window, past = _start_panels(fv, d.effective_support(), d.lo, d.hi, knots, head, spare)
    lo_e, hi_e = float(edges[0]), float(edges[-1])
    out = _panels(fv, edges, depth, spare)
    if out is None:
        with np.errstate(all="ignore"):
            rows = len(fv(edges[:1])) - spare
        return (np.array([integrate_fn(_row(fv, j), lo_e, hi_e, points=knots) for j in range(rows)]
                         + [np.nan] * spare), window, None)
    if spare:  # the spare rows' ladder steps past the edges, added in place (a view)
        (lefts, rights, n), tot = past, out[0][-spare:]
        add = np.where(np.arange(spare) < n, 0.0, np.inf)
        if n and lefts.size:  # the rows past the first n may overflow there: they read NaN
            with np.errstate(over="ignore", invalid="ignore"):
                add[:n] = _gauss_legendre(fv, lefts, rights)[-spare:][:n].sum(axis=-1)
        tot += add
        tot[np.abs(add) > ABS_TOL + REL_TOL * np.abs(tot)] = np.nan
    return out[0], window, (out[1], out[2], hi_e)


class _TailTable:
    """Cumulative integrals of a stack of J fixed weights w_j against the
    law of X, read by one reader at any t as the tail about its ``node``

        E[w_j(X) (1{node <= t <= X} - 1{X < t < node})],

    the upper tail from t >= node and minus the lower tail below it, so no
    value is a difference of near-equal sums; NaN at a NaN t.  ``weights``
    is array-native: ``weights(x)`` gives the (J,) + shape stack as a fresh
    array, which the table multiplies by the masses or density in place.
    It keeps the prefix sums over the atoms or panels left of the node's
    and the suffix sums from it on (``total``, the first suffix column, is
    the whole sums at node -inf).  For a density, a table's included, they
    sum the final panels of a pass of the weights times the density: the
    first ``rows`` (default all) of ``panels``, those of the pass the
    weights rode (``_tilt``'s), or else a pass of its own
    (``_window_integral`` to _TAIL_DEPTH rounds, ``points`` its break
    points); NonIntegrable when the panels do not suit them.  A read is one
    lookup plus the 8-point Gauss-Legendre rule on part of one panel.
    Mixtures without a density sum their components' tables by weight,
    ``panels`` a list by component."""

    def __init__(self, X: Distribution, weights: Callable, node: float = -np.inf, panels=None,
                 points=(), rows: Optional[int] = None):
        self.weights, self.node, self.parts = weights, float(node), None
        if X.locs is not None:
            self.xs, self.dens = X.locs, None
            vals = weights(X.locs)
            vals *= X.masses
            split = int(np.searchsorted(self.xs, node, side="left"))  # the atoms left of it
        elif X.density is not None:
            self.dens = as_array_fn(X.density)
            if panels is None:
                panels = _window_integral(self._load, X, points, depth=_TAIL_DEPTH)[2]
                if panels is None:
                    raise NonIntegrable("the panels do not suit a tail weight times the density")
            lefts, vals = np.concatenate(panels[0]), np.hstack([v[:rows] for v in panels[1]])
            order = np.argsort(lefts)
            self.xs, vals = np.append(lefts[order], panels[2]), vals[:, order]
            split = max(int(np.searchsorted(self.xs, node, side="right")) - 1, 0)  # its panel
        elif X.components is not None:
            self.parts = [(w, _TailTable(c, weights, node, p, points, rows)) for c, w, p in
                          zip(X.components, X.weights, panels or [None] * len(X.weights)) if w > 0]
            self.total = sum(w * part.total for w, part in self.parts)
            return
        else:
            raise InputError("tail integrals need point masses, a density or components")
        # column i: the sum of the first i <= split atoms or panels; i + 1: from i >= split on
        self.sums = np.zeros((len(vals), vals.shape[1] + 2))
        np.cumsum(vals[:, :split], axis=1, out=self.sums[:, 1:split + 1])
        np.cumsum(vals[:, split:][:, ::-1], axis=1, out=self.sums[:, -2:split:-1])
        self.total = self.sums[:, split + 1]

    def _load(self, x):
        """The weights times the density, stacked (the product formed in the
        stack)."""
        out = self.weights(x)
        return np.multiply(out, self.dens(x), out=out)

    def __call__(self, t) -> np.ndarray:
        """The one-node tail of every weight at each t: shape (J,) + shape of t."""
        ts = np.asarray(t, dtype=float)
        if self.parts is not None:
            return sum(w * part(ts) for w, part in self.parts)
        flat = ts.ravel()
        up = flat >= self.node
        if self.dens is None:
            i = np.searchsorted(self.xs, flat, side="left")
            out = np.where(up, self.sums[:, i + 1], -self.sums[:, i])
            out[:, np.isnan(flat)] = np.nan  # NaN sorts past every atom
        else:
            xs = self.xs
            tc = np.clip(flat, xs[0], xs[-1])
            i = np.minimum(np.searchsorted(xs, tc, side="right"), xs.size - 1) - 1
            part = _gauss_legendre(self._load, np.where(up, tc, xs[i]), np.where(up, xs[i + 1], tc))
            out = np.where(up, self.sums[:, i + 2] + part, -(self.sums[:, i] + part))
        return out.reshape(out.shape[:1] + ts.shape)


# ---------------------------------------------------------------------------
# tabulated densities (grid caches, numeric CDFs, inverse-CDF sampling)
# ---------------------------------------------------------------------------

def _guide(cum: np.ndarray):
    """Chen and Asau's guide table of the nondecreasing cumulative weights
    ``cum`` (the last at least 1.0) for the K = 2^p buckets [b/K, (b+1)/K),
    K the least power of two above twice the size: ``g[b] = #{cum <= b/K}``,
    or -1 where the bucket's closure holds two or more weights, as ``int16``
    for fewer than 2^15 weights (g <= size) and ``int32`` beyond.
    ``c = ceil(cum K)`` is exact (K is a power of two) and g[b] = j on the run
    c[j-1] <= b < c[j], so ``np.repeat`` writes g from the run lengths, in
    O(size + K) with no temporary of length K beyond g.  Returns (g, K)."""
    n = cum.size
    scale = 1 << (n.bit_length() + 1)
    c = np.multiply(cum, scale)
    np.ceil(c, out=c)
    np.minimum(c, scale, out=c)  # a weight above 1.0 counts as 1.0
    runs = np.empty(n + 1, np.intp)
    runs[0], runs[n] = c[0], scale - c[-1]
    np.subtract(c[1:], c[:-1], out=runs[1:n], casting="unsafe")  # exact integers
    index = np.int16 if n < 1 << 15 else np.int32
    g = np.repeat(np.arange(n + 1, dtype=index), runs)
    shared = c[np.flatnonzero(runs[1:n] == 0) + 1]  # c[j] = c[j-1]: bucket c[j] - 1 is crowded
    g[shared[shared > 0].astype(np.intp) - 1] = -1
    return g, float(scale)


def _lookup(cum: np.ndarray, xs: np.ndarray, u: np.ndarray, linear: bool,
            guide: tuple) -> np.ndarray:
    """Inversion by a guide table (Devroye 1986, III.2.4) of the 1-d uniforms
    ``u`` in [0, 1): ``xs[np.searchsorted(cum, u, side="right")]`` for atoms
    of cumulative weights ``cum`` ending in 1.0, or, when ``linear``,
    ``np.interp(u, cum, xs)`` for a table whose ``cum`` runs from 0.0 to 1.0.
    The index of u among the weights w it can pass (``cum[1:]`` for
    segments) is ``g[floor(u K)] + (w[g] <= u)``, searched only in a crowded
    bucket.  Segment j gives numpy's own ``slope[j] (u - cum[j]) + xs[j]``,
    and ``xs[j]`` at u = cum[j], so the values are ``np.interp``'s bit for
    bit.  ``guide`` is ``_guide(w)``, kept by the table or the atom law that
    calls, so a warm law reads its guide and builds none.  The slopes are
    formed on each call.
    Blocks of ``_LOOKUP_BLOCK`` uniforms keep every temporary beyond the
    slopes block-sized."""
    w = cum[1:] if linear else cum
    g, scale = guide
    if linear:
        with np.errstate(all="ignore"):  # the slope of a flat run is never read
            slope = np.diff(xs) / np.diff(cum)
    out = np.empty(u.size)
    key = np.empty(min(u.size, _LOOKUP_BLOCK), np.intp)
    idx = np.empty_like(key)
    for i in range(0, u.size, _LOOKUP_BLOCK):
        part, res = u[i:i + _LOOKUP_BLOCK], out[i:i + _LOOKUP_BLOCK]
        k, j = key[:part.size], idx[:part.size]
        start = g.take(np.multiply(part, scale, out=k, casting="unsafe"))
        np.add(start, w.take(start) <= part, out=j)
        if start.min() < 0:
            crowded = np.flatnonzero(start < 0)
            j[crowded] = np.searchsorted(w, part[crowded], side="right")
        if not linear:
            xs.take(j, out=res)
            continue
        with np.errstate(all="ignore"):  # as quiet as np.interp
            np.subtract(part, cum.take(j), out=res)
            knots = None if res.all() else np.flatnonzero(res == 0.0)
            res *= slope.take(j)  # inf * 0 only at a knot, which is set below
            res += xs.take(j)
        if knots is not None:
            res[knots] = xs.take(j[knots])
    return out


def _bin_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, u, side="right")`` for uniforms ``u`` in [0, 1)
    and nondecreasing cumulative weights ``cum`` ending in 1.0, by counting
    ``cum[j] <= u``: one comparison pass per weight into a ``uint8`` count,
    the same indices with no binary search (1e5 uniforms: 0.03 against
    1.1 ms on 2 weights, 5.4 against 7.1 ms on 255).  Beyond 255 weights,
    the largest value of a ``uint8``, it calls ``searchsorted``."""
    if cum.size > np.iinfo(np.uint8).max:
        return np.searchsorted(cum, u, side="right")
    idx = np.zeros(u.shape, np.uint8)
    hit = np.empty(u.shape, bool)
    for c in cum[:-1]:  # cum[-1] = 1.0 exceeds every uniform
        np.greater_equal(u, c, out=hit)
        idx += hit
    return idx


@dataclass(frozen=True)
class TabulatedDensity:
    """Density sampled on a fixed grid with a trapezoid CDF.

    Linear interpolation between grid points; zero outside.  ``ys`` is
    rescaled so that the tabulated mass is exactly one (the raw mass is
    kept for diagnostics).  Every knot also brings its left neighbour, so a
    density that jumps at a knot is tabulated with both one-sided limits.
    The guide of ``ppf``'s lookups is built on the first array of draws and
    kept with the table; a table read only as a density or a CDF builds none.
    """

    xs: np.ndarray
    ys: np.ndarray
    cum: np.ndarray
    raw_mass: float
    _lookup_guide: _Lazy = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cum = self.cum  # the builder holds the weights, not the table: no cycle
        object.__setattr__(self, "_lookup_guide", _Lazy(lambda: _guide(cum[1:])))

    @staticmethod
    def from_callable(f, lo, hi, n=INVERSE_CDF_GRID, knots=()):
        if int(n) < 2:  # a one-point grid has no width for the trapezoid CDF
            raise InputError(f"a density table needs at least 2 grid points, not {n!r}")
        xs = np.linspace(float(lo), float(hi), int(n))
        extra = np.array([float(k) for k in knots if lo < float(k) < hi])
        if extra.size:
            xs = _sorted_unique(np.concatenate((xs, extra, np.nextafter(extra, -np.inf))))
        ys = np.clip(as_array_fn(f)(xs), 0.0, None)
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))))
        mass = float(cum[-1])
        if mass <= ZERO_NORMALIZER_TOL:
            raise ZeroNormalizer("tabulated density has zero mass")
        ys = ys / mass
        cum = np.maximum.accumulate(cum / mass)
        cum[-1] = 1.0
        return TabulatedDensity(xs, ys, cum, mass)

    def __call__(self, x):
        return self.pdf(x)

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.interp(arr, self.xs, self.ys, left=0.0, right=0.0)
        return float(out) if arr.ndim == 0 else out

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.interp(arr, self.xs, self.cum, left=0.0, right=1.0)
        return float(out) if arr.ndim == 0 else out

    def ppf(self, u):
        """Inverse CDF by linear interpolation of the table: ``np.interp(u,
        cum, xs)``, bit for bit, for any input.  An array of uniforms in [0, 1)
        is read through a guide table (``_lookup``), with no search of the
        table for most values; the guide is built on the first such array, at
        most once however many threads draw, and kept.  A scalar, an empty
        array, an array with a value outside [0, 1) or NaN, and a table whose
        ``cum`` does not run from 0.0 to 1.0 go to ``np.interp`` itself.  The
        shape is kept.  ``cum`` must be nondecreasing, as ``np.interp``
        requires; ``from_callable`` makes it so."""
        arr = np.asarray(u, dtype=float)
        if (arr.ndim == 0 or arr.size == 0 or not (arr.min() >= 0.0 and arr.max() < 1.0)
                or not (self.cum[0] == 0.0 and self.cum[-1] == 1.0)):
            return np.interp(u, self.cum, self.xs)
        return _lookup(self.cum, self.xs, arr.ravel(), linear=True,
                       guide=self._lookup_guide.get()).reshape(arr.shape)

    def integrate_weighted(self, w, a, b):
        """∫_a^b w(x) * pdf(x) dx by 8-point Gauss-Legendre on each segment of
        the table inside [a, b]: the table rule of the pointwise oracle
        (``density_k1``, ``second_order_density``), a route apart from the
        library's panels.  Exact for the linear density times a weight of
        degree up to 14, and the nodes are interior, so a jump of w at a
        segment end is never read; it does not see a kink or a jump of w
        inside a segment."""
        a = max(float(a), float(self.xs[0]))
        b = min(float(b), float(self.xs[-1]))
        if not a < b:
            return 0.0
        cuts = np.concatenate(([a], self.xs[(self.xs > a) & (self.xs < b)], [b]))
        wv = as_array_fn(w)
        return float(np.sum(_gauss_legendre(lambda x: self.pdf(x) * wv(x), cuts[:-1], cuts[1:])))


# ---------------------------------------------------------------------------
# the Distribution value
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    """Immutable law: optional density/CDF, optional atoms, optional sampler.

    A point-mass law (atoms, or the merged samples of an empirical law, which
    keeps its ``samples`` for bootstrap draws) holds sorted unique locations
    and their masses in two read-only arrays, ``locs`` and ``masses``
    (``atoms`` views them as pairs of floats).  ``kinks`` lists known
    non-smooth points of the density (support edges, mixture junctions,
    transform nodes) for quadrature.  ``_window`` is the one field of the
    law's window (see ``effective_support``): a finite support, or the two
    floats its constructor knows (a catalog law, a tilt, a ``cache_density``
    table; set by ``_windowed``), else for any other density on an infinite
    support the lazy tail probe.  It is not an argument, and
    ``dataclasses.replace`` drops it, so a replaced density is probed unless
    it is given its own.
    """

    lo: float
    hi: float
    density: Optional[Callable] = None
    cdf: Optional[Callable] = None
    locs: Optional[np.ndarray] = None         # point-mass laws only
    masses: Optional[np.ndarray] = None
    sampler: Optional[Callable] = None        # (RandomSource, n) -> ndarray
    samples: Optional[np.ndarray] = None      # empirical laws: bootstrap draws only
    components: Optional[tuple] = None        # mixtures
    weights: Optional[tuple] = None
    kinks: tuple = ()
    label: str = ""
    _window: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise InputError("support must satisfy lo <= hi")
        if math.isfinite(self.lo) and math.isfinite(self.hi):
            object.__setattr__(self, "_window", (float(self.lo), float(self.hi)))
        elif self.density is not None and self.components is None:
            dens, lo, hi, label = self.density, self.lo, self.hi, self.label
            object.__setattr__(self, "_window", _Lazy(lambda: _probe_window(dens, lo, hi, label)))

    @property
    def atoms(self) -> Optional[tuple]:
        """(location, mass) pairs of a point-mass law, None for other laws."""
        return None if self.locs is None else tuple(zip(self.locs.tolist(), self.masses.tolist()))

    def effective_support(self):
        """The law's window, a finite interval carrying all but a
        ``TAIL_EPS`` sliver of mass: the support when finite, else the
        ``_window`` the law keeps (closed form for the catalog, the
        normaliser pass's for a tilt, else the tail probe of the density, run
        on first use and kept), else the hull of the components' windows for
        a mixture.  A density always has mass, so NonIntegrable when that
        probe finds none (mass too narrow for the probe grid)."""
        if self._window is not None:  # two floats, or the lazy probe
            return self._window.get() if isinstance(self._window, _Lazy) else self._window
        if self.components is None:
            raise InputError("cannot bound an infinite support without a density")
        lo, hi = zip(*(c.effective_support() for c in self.components))
        return min(lo), max(hi)


def _windowed(d: Distribution, window) -> Distribution:
    """``d``, made to keep ``window``, a finite interval its constructor
    knows, as its window in place of the tail probe.  A window that rounds
    to a point (a normal beyond 1e15 sigma from the origin) is not kept:
    the probe, which finds no mass, takes over."""
    a, b = map(float, window)
    if a < b:
        object.__setattr__(d, "_window", (a, b))
    return d


def _probe_window(dens: Callable, lo: float, hi: float, label: str):
    """The tail probe's window of the density ``dens`` on [lo, hi];
    NonIntegrable when it finds no mass."""
    a, b = _effective_bounds(as_array_fn(dens), lo, hi)
    if not a < b:
        raise NonIntegrable("the tail probe finds no density mass in "
                            f"{label or 'an unlabelled law'}")
    return a, b


def _merge(xs: np.ndarray, ms: np.ndarray):
    """Sorted unique locations and their total masses.  ``np.bincount`` adds
    the masses of each location in input order, as a running sum would."""
    if np.all(xs[1:] > xs[:-1]):
        return xs, ms
    xs, inv = np.unique(xs, return_inverse=True)
    return xs, np.bincount(inv, weights=ms, minlength=xs.size)


def _atom_law(xs: np.ndarray, ms: np.ndarray, label: str, slack: float = 0.0,
              samples: Optional[np.ndarray] = None) -> Distribution:
    """Point-mass law on sorted unique locations ``xs`` with masses ``ms``,
    both owned by the law (and made read-only); zero masses are dropped.
    InputError on a negative mass, WeightMismatch when the masses do not sum
    to one within ATOM_MASS_TOL + ``slack``.  Given the ``samples`` the
    arrays were merged from, it is their empirical law, drawn by bootstrap."""
    if ms.min() < 0.0:
        raise InputError("atom masses must be nonnegative")
    keep = ms > 0.0
    if not keep.all():
        xs, ms = xs[keep], ms[keep]
    if abs(ms.sum() - 1.0) > ATOM_MASS_TOL + slack:
        raise WeightMismatch(f"atom masses sum to {ms.sum()!r}, not 1")
    xs.setflags(write=False)
    ms.setflags(write=False)
    if samples is None:
        cum = np.cumsum(ms)
        cum[-1] = 1.0
        guide = _Lazy(lambda: _guide(cum))  # built on the first draw and kept

        def draw(rs: RandomSource, n: int):
            return _lookup(cum, xs, rs.uniform(n), linear=False, guide=guide.get())
    else:
        def draw(rs: RandomSource, n: int):
            idx = np.minimum((rs.uniform(n) * samples.size).astype(int), samples.size - 1)
            return samples[idx]

    return Distribution(lo=float(xs[0]), hi=float(xs[-1]), locs=xs, masses=ms, sampler=draw,
                        samples=samples, label=label)


def from_atoms(pairs, label="") -> Distribution:
    """Discrete law from (location, mass) pairs; duplicates are merged.
    InputError on a non-finite location or mass."""
    try:
        arr = np.array(list(pairs), dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"atoms must be (location, mass) pairs: {exc}") from exc
    if arr.shape[1:] != (2,) or not np.isfinite(arr).all():
        raise InputError("atoms must be (location, mass) pairs of finite numbers")
    return _atom_law(*_merge(arr[:, 0].copy(), arr[:, 1].copy()), label)


def dirac(x: float) -> Distribution:
    return from_atoms(((float(x), 1.0),), label=f"dirac({x})")


def from_samples(values, label="empirical") -> Distribution:
    """Empirical law: the point-mass law of the merged samples (mass 1/n
    each), so moments are sample averages and no density is ever exposed;
    sampling is bootstrap from the samples as given.  InputError on a
    non-numeric or non-finite value."""
    try:
        arr = np.array(values, dtype=float).ravel()  # a copy
    except (TypeError, ValueError) as exc:
        raise InputError(f"empirical sample is not numeric: {exc}") from exc
    if arr.size == 0:
        raise InputError("empirical sample is empty")
    if not np.isfinite(arr).all():
        raise InputError("empirical sample has a non-finite value")
    arr.setflags(write=False)
    # a merged mass is a running sum of up to n terms 1/n: n 2^-52 bounds its rounding
    return _atom_law(*_merge(arr, np.full(arr.size, 1.0 / arr.size)), label,
                     slack=arr.size * 2.0 ** -52, samples=arr)


def uniform(lo: float, hi: float) -> Distribution:
    lo, hi = _floats((lo, hi), "uniform bounds")
    if not lo < hi:
        raise InputError("uniform needs lo < hi")
    h = 1.0 / (hi - lo)

    def dens(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), h, 0.0)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - lo) * h, 0.0, 1.0)

    return Distribution(lo=lo, hi=hi, density=dens, cdf=cdf,
                        sampler=lambda rs, n: lo + (hi - lo) * rs.uniform(n),
                        kinks=(lo, hi), label=f"uniform[{lo},{hi}]")


def exponential(rate: float = 1.0) -> Distribution:
    [lam] = _floats((rate,), "rate")
    if lam <= 0:
        raise InputError("rate must be positive")

    def dens(x):  # lam * exp(-lam * x_+) for x >= 0, else 0, in one buffer
        x = np.asarray(x, dtype=float)
        out = np.clip(x, 0, None, out=np.empty(x.shape))
        out *= -lam
        np.exp(out, out=out)
        out *= lam
        out[~(x >= 0)] = 0.0
        return out

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, -np.expm1(-lam * np.clip(x, 0, None)), 0.0)

    return _windowed(Distribution(lo=0.0, hi=math.inf, density=dens, cdf=cdf,
                                  sampler=lambda rs, n: -np.log1p(-rs.uniform(n)) / lam,
                                  kinks=(0.0,), label=f"exponential({lam})"),
                     (0.0, -math.log(TAIL_EPS) / lam))


def _ndtr(x):
    from scipy.special import ndtr  # loaded on the first normal CDF
    return ndtr(x)


# Wichura's AS241 (Appl. Statist. 37 (1988) 477-484): numerator and denominator
# coefficients, constant term first, of the centre, near tail and far tail.
_AS241 = np.array([
    [3.3871328727963665, 133.14166789178438, 1971.5909503065513, 13731.69376550946,
     45921.95393154987, 67265.7709270087, 33430.57558358813, 2509.0809287301227],
    [1.0, 42.31333070160091, 687.1870074920579, 5394.196021424751,
     21213.794301586597, 39307.89580009271, 28729.085735721943, 5226.495278852854],
    [1.4234371107496835, 4.630337846156546, 5.769497221460691, 3.6478483247632045,
     1.2704582524523684, 0.2417807251774506, 0.022723844989269184, 0.0007745450142783414],
    [1.0, 2.053191626637759, 1.6763848301838038, 0.6897673349851,
     0.14810397642748008, 0.015198666563616457, 0.0005475938084995345, 1.0507500716444169e-09],
    [6.657904643501103, 5.463784911164114, 1.7848265399172913, 0.29656057182850487,
     0.026532189526576124, 0.0012426609473880784, 2.7115555687434876e-05, 2.0103343992922881e-07],
    [1.0, 0.599832206555888, 0.1369298809227358, 0.014875361290850615,
     0.0007868691311456133, 1.8463183175100548e-05, 1.421511758316446e-07, 2.0442631033899397e-15],
]).reshape(3, 2, 8)


def _rational(c, r):
    """c[0](r) / c[1](r) for the coefficient rows c, by Horner's rule in place."""
    num, den = c[0, 7] * r + c[0, 6], c[1, 7] * r + c[1, 6]
    for k in range(5, -1, -1):
        np.add(np.multiply(num, r, out=num), c[0, k], out=num)
        np.add(np.multiply(den, r, out=den), c[1, k], out=den)
    return np.divide(num, den, out=num)


def _ndtri(u):
    """Normal quantile within a few ulp (AS241): -inf at 0, +inf at 1, NaN off [0, 1]."""
    u = np.asarray(u, dtype=float)
    p = u.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0), inf / inf
        q = p - 0.5
        r = np.multiply(q, q)
        x = _rational(_AS241[0], np.subtract(0.180625, r, out=r))
        x *= q
        tail = np.flatnonzero(np.abs(q, out=r) > 0.425)  # r is spent; NaN stays central
        s = np.sqrt(-np.log(np.minimum(p[tail], 1.0 - p[tail])))
        xt = _rational(_AS241[1], s - 1.6)
        xt[s > 5.0] = _rational(_AS241[2], s[s > 5.0] - 5.0)
        xt[s == np.inf] = np.inf
        x[tail] = np.copysign(xt, q[tail])
    # a 1-d x owns its data, so ``mu + sig * x`` computes in its buffer
    return x if u.ndim == 1 else x.reshape(u.shape) if u.ndim else float(x[0])


def _tail_span(sig: float) -> float:
    """How far from the mode a normal density of scale ``sig`` stays at least
    TAIL_EPS of its peak: sig sqrt(2 ln(1 / TAIL_EPS))."""
    return sig * math.sqrt(-2.0 * math.log(TAIL_EPS))


def normal(mean: float = 0.0, std: float = 1.0) -> Distribution:
    mu, sig = _floats((mean, std), "normal parameters")
    if sig <= 0:
        raise InputError("std must be positive")
    c = 1.0 / (sig * math.sqrt(2 * math.pi))

    def dens(x):
        z = (np.asarray(x, dtype=float) - mu) / sig
        return c * np.exp(-0.5 * z * z)

    law = Distribution(lo=-math.inf, hi=math.inf, density=dens,
                       cdf=lambda x: _ndtr((np.asarray(x, dtype=float) - mu) / sig),
                       sampler=lambda rs, n: mu + sig * _ndtri(rs.uniform(n)),
                       label=f"normal({mu},{sig})")
    return _windowed(law, (mu - _tail_span(sig), mu + _tail_span(sig)))


def half_normal(sigma: float = 1.0) -> Distribution:
    """|Z| for Z ~ normal(0, sigma^2); second moment equals sigma^2."""
    [sig] = _floats((sigma,), "sigma")
    if sig <= 0:
        raise InputError("sigma must be positive")
    c = 2.0 / (sig * math.sqrt(2 * math.pi))

    def dens(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, c * np.exp(-0.5 * (x / sig) ** 2), 0.0)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, 2.0 * _ndtr(np.clip(x, 0, None) / sig) - 1.0, 0.0)

    law = Distribution(lo=0.0, hi=math.inf, density=dens, cdf=cdf,
                       sampler=lambda rs, n: sig * _ndtri(0.5 * (1.0 + rs.uniform(n))),
                       kinks=(0.0,), label=f"half-normal({sig})")
    return _windowed(law, (0.0, _tail_span(sig)))


def negative_half_normal(sigma: float = 1.0) -> Distribution:
    base = half_normal(sigma)  # validates sigma
    sig = float(sigma)

    def dens(x):
        return base.density(-np.asarray(x, dtype=float))

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 2.0 * _ndtr(np.clip(x, None, 0) / sig), 1.0)

    law = Distribution(lo=-math.inf, hi=0.0, density=dens, cdf=cdf,
                       sampler=lambda rs, n: -sig * _ndtri(0.5 * (1.0 + rs.uniform(n))),
                       kinks=(0.0,), label=f"negative-half-normal({sig})")
    return _windowed(law, (-_tail_span(sig), 0.0))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def expectation(X: Distribution, fn: Callable, points: Sequence[float] = ()) -> float:
    """E[fn(X)]: exact on point masses (atoms and empirical laws), the
    adaptive panel integral from the law's window against a density, a
    table's included (``_knots``: its grid points are break points).
    ``points`` are kinks of fn."""
    if X.locs is not None:  # einsum: no BLAS thread for a long sum
        return float(np.einsum("i,i->", X.masses, as_array_fn(fn)(X.locs)))
    if X.density is not None:
        g = as_array_fn(lambda x: X.density(x) * fn(x))  # array-safe, as a one-row stack
        return float(_window_integral(lambda x: g(x)[None], X, points)[0][0])
    if X.components is not None:
        return float(sum(w * expectation(c, fn, points)
                         for c, w in zip(X.components, X.weights)))
    raise InputError("no expectation route for this distribution")


def _table_of(d: Distribution) -> Optional[TabulatedDensity]:
    """The table behind a law's density, built now if it is lazy; None when
    the density is not a table."""
    dens = d.density.get() if isinstance(d.density, _Lazy) else d.density
    return dens if isinstance(dens, TabulatedDensity) else None


def moment(d: Distribution, n: int) -> float:
    """E[X^n]: exact atom sum for point-mass laws (a sample average for an
    empirical one), read from the arrays with the bits of ``expectation``;
    quadrature otherwise."""
    if n < 0 or int(n) != n:
        raise InputError("moment order must be a nonnegative integer")
    n = int(n)
    if n == 0:
        return 1.0
    if d.locs is not None:  # the array operations of expectation's atom branch
        return float(np.einsum("i,i->", d.masses, d.locs ** n))
    return expectation(d, lambda x: x ** n)


def shift_moments(mom: np.ndarray, c: float) -> np.ndarray:
    """Moments E[(X + c)^p], p = 0..len(mom)-1, from the moments E[X^r]
    by the binomial expansion (``_shifted``, on Python floats);
    NonIntegrable, naming the top order and the shift, where c^p overflows."""
    return np.array(_shifted(np.asarray(mom, dtype=float).tolist(), c), dtype=float)


def _shifted(m: list, c: float) -> list:
    """``shift_moments`` on a list of floats: term p sums C(p, r) c^(p-r) m_r
    from 0, left to right, each power of c formed once, C exact.  A shift by
    0 returns ``m`` when every entry is finite and none is -0.0, the one
    case where the expansion moves no bit (0 inf is NaN, 0 + -0.0 is 0.0).
    NonIntegrable where c^k overflows, not inf: a term 0 c^k would be NaN."""
    if c == 0 and all(math.isfinite(v) and (v or math.copysign(1.0, v) > 0) for v in m):
        return m
    try:
        cp = [c ** k for k in range(len(m))]
    except OverflowError:
        raise NonIntegrable(f"moments to order {len(m) - 1} shifted by {c!r} overflow") from None
    return [sum([math.comb(p, r) * cp[p - r] * m[r] for r in range(p + 1)])
            for p in range(len(m))]


def _moments(d: Distribution, top: int, center: float = 0.0) -> np.ndarray:
    """E[(X - center)^p], p = 0..top, in a pass of their own (a transform's
    recipe reads the seed moments its construction recorded first), each
    taken about the center, so none is a difference of raw moments.  Point
    masses sum (x - center)^p order by order with the einsum of
    ``expectation``'s atom branch (at center 0 the bits of ``moment``); a
    mixture without a density sums its components' by weight.  A density,
    a table's included, is integrated in one stacked pass: the integrands
    (x - center)^p f(x), p = 1..top, a running product, share the law's
    window (widened where a power has not decayed), its break points
    (``_knots``) and one ``_panels`` call.  They agree with ``moment``
    within 1e-12 relative on smooth densities (within the quadrature
    tolerance where ``integrate_fn`` values the slivers of a singularity),
    not bit for bit, and their last bits depend on top."""
    if top < 1:
        return np.ones(1)
    if d.locs is not None:
        xs = d.locs - center
        return np.array([1.0, *(np.einsum("i,i->", d.masses, xs ** p) for p in range(1, top + 1))])
    if d.density is not None:  # row p - 1 holds (x - center)^p f(x)
        step = (lambda x: x - center) if center else (lambda x: x)
        powers = _running_products(as_array_fn(d.density), step, top, start=1)
        return np.concatenate(([1.0], _window_integral(powers, d)[0]))
    if d.components is None:
        raise InputError("no expectation route for this distribution")
    out = sum(w * _moments(c, top, center) for c, w in zip(d.components, d.weights))
    out[0] = 1.0
    return out


def sample(d: Distribution, rng: RandomSource, n: int) -> np.ndarray:
    """n i.i.d. draws; deterministic given the seed of ``rng``."""
    if n < 1:
        raise InputError("need n >= 1 draws")
    if d.sampler is None:
        raise NoSampler(f"no sampling route for {d.label or 'an unlabelled law'}")
    return np.asarray(d.sampler(rng, int(n)), dtype=float)


def _check_draws(n: int) -> None:
    """InputError unless there are n >= 2 Monte Carlo draws."""
    if n < 2:
        raise InputError("Monte Carlo standard errors need n >= 2 draws")


def _mean_se(values: np.ndarray):
    """The mean of the Monte Carlo ``values`` and its standard error,
    std (ddof 1) / sqrt(n)."""
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(values.size))


def _weight_ok(wx: np.ndarray) -> np.ndarray:
    """Where the weight values ``wx`` are finite and nonnegative (down to
    NEGATIVE_WEIGHT_TOL)."""
    return np.isfinite(wx) & (wx >= NEGATIVE_WEIGHT_TOL)


def _check_weight(wx: np.ndarray, xs: np.ndarray) -> None:
    """NegativeWeight, naming the first point of ``xs``, where the weight
    values ``wx`` are negative or not finite."""
    bad = ~_weight_ok(wx)
    if bad.any():
        i = bad.argmax()
        raise NegativeWeight(f"weight must be finite and nonnegative: it is "
                             f"{float(wx[i])!r} at x={float(xs[i])!r}")


class _Lazy:
    """Value built on first use, exactly once: concurrent first readers
    wait for one build, and reads after it take no lock.  Calling it calls
    the value."""

    def __init__(self, builder: Callable):
        self._builder = builder
        self._value = None
        self._lock = threading.Lock()

    def __call__(self, x):  # a lazily built table reads as a density
        return self.get()(x)

    def get(self):
        value = self._value
        if value is None:
            with self._lock:
                if self._value is None:
                    self._value = self._builder()
                value = self._value
        return value


def _probe_points(d: Distribution) -> np.ndarray:
    """The points at which ``tilt`` checks a weight on ``d``: the atoms, a
    _PROBE_GRID linspace of the effective support (whose ends are the
    support's), for a mixture with a density those inside a component's
    window, so a gap between components, where the law has no mass, is not
    probed, or for a mixture without a density every component's points."""
    if d.locs is not None:
        return d.locs
    if d.density is None and d.components is not None:
        return np.concatenate([_probe_points(c) for c in d.components])
    xs = np.linspace(*d.effective_support(), _PROBE_GRID)
    if d.components is None:
        return xs
    spans = [c.effective_support() for c in d.components]
    return xs[np.any([(xs >= lo) & (xs <= hi) for lo, hi in spans], axis=0)]


def tilt(d: Distribution, w: Callable, weight_kinks: Sequence[float] = ()) -> Distribution:
    """Reweighted law with density proportional to w times the density of d.

    Point masses (``locs``) are reweighted exactly; a ``density`` is
    multiplied by w, renormalized by quadrature and sampled through a
    numeric inverse CDF on the tilt's own window, whose table gives the
    ``cdf`` too; a mixture without one tilts its ``components``.  A law
    with a sampler alone cannot be tilted: NoSampler.  w is evaluated once
    on all the ``_probe_points`` (``_tilt`` builds from those values):
    NegativeWeight where it is negative or not finite at one of them.
    ``weight_kinks`` declares non-smooth points of w."""
    if d.locs is None and d.density is None and d.components is None:
        raise NoSampler("only a law with atoms, a density or mixture components can be tilted")
    wv, probe = as_array_fn(w), _probe_points(d)
    wx = wv(probe)
    _check_weight(wx, probe)
    law = _tilt(d, wv, weight_kinks, probe, wx)[0]
    if law is None:
        raise _zero_normalizer(d)
    return law


def _zero_normalizer(d: Distribution) -> ZeroNormalizer:
    """The error of a tilt of ``d`` whose normaliser is (numerically) zero."""
    where = (" on the atoms" if d.locs is not None else
             " on the mixture" if d.density is None else "")
    return ZeroNormalizer(f"tilting weight has zero expectation{where}")


def _tilt(d: Distribution, wv: Callable, weight_kinks: Sequence[float], probe: np.ndarray,
          wx: np.ndarray, loads: Optional[Callable] = None, points: Sequence[float] = (),
          powers: int = 0, center: float = 0.0):
    """``tilt`` by the array-native ``wv`` from its values ``wx`` at the
    ``_probe_points`` ``probe`` of ``d``; a mixture without a density hands
    each component its slice of both and weighs the tilted components by
    the normalisers they return.  The caller has checked ``wx``
    (``_check_weight``, or a passed validation report).  Returns the law,
    its normaliser z = E[max(w(X), 0)], the mean E[w(X)], the panels of
    the tail rows and the seed moments, the law None when z is at most
    ZERO_NORMALIZER_TOL.
    A density, a table's included, gives z and the mean in one stacked
    panel pass from its window, and the tilt keeps the window its own rows
    widened to: its inverse-CDF table spans it, built on first draw or
    first CDF read, and gives the law's CDF.  The tail rows ride that pass:
    ``loads`` (array-native) gives a fresh stack, w(x) and then the rows, so
    the pass evaluates w there and not through ``wv``; the rows times f(x),
    ``points`` their break points, widen its panels only and make it bisect
    _TAIL_DEPTH rounds.  The panels returned are its final panels, those of
    the tail rows, for ``_TailTable``: None on point masses, without loads
    or when integrate_fn took the pass, a list by component for a mixture.
    The ``powers`` rows max(w, 0) (x - center)^p f, p >= 1, ride it last as
    spare rows (``_window_integral``), kept by no table: the seed moments
    about ``center``, a tuple from order 0, are their totals over z up to
    the first row that did not hold; None on point masses and on a mixture
    without a density.  A kept row's ladder steps added at most ABS_TOL +
    REL_TOL |I|: it is within that of a pass of its own, about 1e-9."""
    kinks = tuple(sorted({*d.kinks, *(float(x) for x in weight_kinks)}))

    def w_plus(x):
        return np.maximum(wv(x), 0.0)

    if d.locs is not None:  # exact reweighting of the atoms
        mean = float(np.einsum("i,i->", d.masses, wx))
        mw = d.masses * np.clip(wx, 0.0, None)
        z = float(np.sum(mw))
        if z <= ZERO_NORMALIZER_TOL:
            return None, z, mean, None, None
        mw /= z
        return _atom_law(d.locs, mw, label=f"tilt({d.label})"), z, mean, None, None

    if d.density is None:
        if d.components is None:  # a sampler alone
            raise InputError("no expectation route for this distribution")
        parts = []
        # the components' windows are known: the mixture's probe found them
        cuts = np.cumsum([0, *(_probe_points(c).size for c in d.components)])
        for comp, a, b in zip(d.components, cuts[:-1], cuts[1:]):
            tc, zc, mc, pc, _ = _tilt(comp, wv, weight_kinks, probe[a:b], wx[a:b], loads, points)
            parts.append((tc, zc if tc is not None else 0.0, mc, pc))
        mean = float(sum(wt * mc for wt, (_, _, mc, _) in zip(d.weights, parts)))
        total = sum(wt * zc for wt, (_, zc, _, _) in zip(d.weights, parts))
        panels = [pc for *_, pc in parts]
        if total <= ZERO_NORMALIZER_TOL:
            return None, total, mean, panels, None
        comps = [(tc, wt * zc / total) for wt, (tc, zc, _, _) in zip(d.weights, parts) if zc > 0]
        return make_mixture([c for c, _ in comps], [p for _, p in comps]), total, mean, panels, None

    base = as_array_fn(d.density)

    def stack(x):  # [w f, w+ f, loads f, w+ f x^p]: w, f and the loads evaluated once
        f, lw = base(x), None if loads is None else loads(x)
        w, tail = (wv(x), ()) if lw is None else (lw[0], lw[1:])
        out = np.empty((2 + len(tail) + powers,) + np.shape(x))
        np.multiply(w, f, out=out[0])
        np.multiply(np.maximum(w, 0.0), f, out=out[1])
        if len(tail):
            np.multiply(tail, f, out=out[2:2 + len(tail)])
        row, step = out[1], x - center if center else x
        for p in range(len(out) - powers, len(out)):  # a running product from w+ f
            row = np.multiply(row, step, out=out[p])
        return out

    (mean, z, *rows), window, out = _window_integral(
        stack, d, (*weight_kinks, *points), 2, _PANEL_DEPTH if loads is None else _TAIL_DEPTH,
        powers)
    mean, z, tail = float(mean), float(z), len(rows) - powers
    panels = None if not tail or out is None else (out[0], [v[2:2 + tail] for v in out[1]], out[2])
    if z <= ZERO_NORMALIZER_TOL:
        return None, z, mean, panels, None
    seed = (1.0, *takewhile(math.isfinite, (float(r) / z for r in rows[tail:])))

    def dens(x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return float(w_plus(arr) * base(arr) / z)
        pts = arr.reshape(-1)
        out = w_plus(pts)  # a fresh array: the product is formed in it
        for i in range(0, pts.size, _BLOCK):  # base's temporaries stay block-sized
            out[i:i + _BLOCK] *= base(pts[i:i + _BLOCK])
        out /= z
        return out.reshape(arr.shape)

    table = _Lazy(lambda: TabulatedDensity.from_callable(
        dens, *window, INVERSE_CDF_GRID, knots=kinks))

    def draw(rs: RandomSource, n: int):
        return table.get().ppf(rs.uniform(n))

    law = Distribution(lo=d.lo, hi=d.hi, density=dens, cdf=lambda x: table.get().cdf(x),
                       sampler=draw, kinks=kinks, label=f"tilt({d.label})")
    return _windowed(law, window), z, mean, panels, seed


def make_mixture(components: Sequence[Distribution], weights: Sequence[float]) -> Distribution:
    """Mixture law.  Exact atom merge when every component is discrete;
    pointwise weighted density when every component has one."""
    comps = tuple(components)
    ws = np.asarray(list(weights), dtype=float)
    if len(comps) != ws.size or len(comps) == 0:
        raise WeightMismatch("components and weights must have equal, positive length")
    if not np.all(ws >= 0):
        raise WeightMismatch("mixture weights must be nonnegative")
    if abs(ws.sum() - 1.0) > ATOM_MASS_TOL:
        raise WeightMismatch(f"mixture weights sum to {ws.sum()!r}, not 1")
    if len(comps) == 1:
        return comps[0]

    if all(c.locs is not None for c in comps):  # merged in component order
        xs = np.concatenate([c.locs for c, w in zip(comps, ws) if w > 0])
        ms = np.concatenate([w * c.masses for c, w in zip(comps, ws) if w > 0])
        # the components' own rounding (an empirical merge) carries over
        slack = sum(w * abs(c.masses.sum() - 1.0) for c, w in zip(comps, ws))
        return _atom_law(*_merge(xs, ms), "mixture", slack=slack)

    lo, hi = min(c.lo for c in comps), max(c.hi for c in comps)
    kinks = tuple(sorted({k for c in comps for k in c.kinks}))

    def blend(fns):  # the weighted sum of the components' callables, if all have one
        if any(f is None for f in fns):
            return None
        fns = [as_array_fn(f) for f in fns]

        def g(x):
            arr = np.asarray(x, dtype=float)
            out = sum(w * f(arr) for f, w in zip(fns, ws))
            return float(out) if arr.ndim == 0 else out
        return g

    dens, cdf = blend([c.density for c in comps]), blend([c.cdf for c in comps])

    cum = np.cumsum(ws)
    cum[np.flatnonzero(ws)[-1]:] = 1.0  # no uniform picks a trailing zero weight

    def draw(rs: RandomSource, n: int):
        idx = _bin_index(cum, rs.uniform(n))
        out = np.empty(int(n))
        for j, c in enumerate(comps):  # in component order, each into its places
            at = np.flatnonzero(idx == j)
            if at.size:
                out[at] = sample(c, rs, at.size)
        return out

    return Distribution(lo=lo, hi=hi, density=dens, cdf=cdf,
                        sampler=draw, components=comps, weights=tuple(float(w) for w in ws),
                        kinks=kinks, label="mixture")


def cache_density(d: Distribution, n: int = 2049) -> Distribution:
    """Replace a law's density by a normalized grid tabulation (and gain a
    numeric CDF).  The sampler is kept as constructed."""
    if d.density is None:
        raise InputError("cannot cache a law without a density")
    lo_e, hi_e = d.effective_support()
    table = TabulatedDensity.from_callable(d.density, lo_e, hi_e, n, knots=d.kinks)
    return _windowed(replace(d, density=table, cdf=table.cdf), (lo_e, hi_e))


def numeric_cdf(d: Distribution, n: int = INVERSE_CDF_GRID) -> Callable:
    """The law's own CDF, else the trapezoid CDF of ``cache_density(d, n)``."""
    if d.cdf is not None:
        return d.cdf
    return cache_density(d, n).cdf


# ---------------------------------------------------------------------------
# JSON / CSV interfaces
# ---------------------------------------------------------------------------

_FAMILIES = {
    "uniform": (uniform, ("lo", "hi")),
    "exponential": (exponential, ("rate",)),
    "normal": (normal, ("mean", "std")),
    "half-normal": (half_normal, ("sigma",)),
    "negative-half-normal": (negative_half_normal, ("sigma",)),
}


def catalog_families() -> dict:
    return {name: list(params) for name, (_, params) in _FAMILIES.items()}


def _floats(values, what: str) -> list:
    """``values`` as floats; InputError when one is not a finite number."""
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be numbers: {exc}") from exc
    if not all(map(math.isfinite, out)):
        raise InputError(f"{what} must be finite")
    return out


def dist_from_json(obj) -> Distribution:
    """Build a law from its JSON description.

    Accepted forms: {"family": name, "params": {...}}, {"atoms": [[x, p]...]},
    {"empirical": [values]}, {"empirical_csv": path}, and
    {"mixture": {"components": [...], "weights": [...]}}.  Any other shape,
    a value that is not a finite number and an unreadable file raise
    InputError.
    """
    if not isinstance(obj, dict):
        raise InputError("distribution spec must be a JSON object")
    if "family" in obj:
        name = obj["family"]
        if not isinstance(name, str) or name not in _FAMILIES:
            raise InputError(f"unknown family {name!r}; known: {sorted(_FAMILIES)}")
        ctor, param_names = _FAMILIES[name]
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise InputError(f"params of family {name!r} must be a JSON object")
        unknown = set(params) - set(param_names)
        if unknown:
            raise InputError(f"unknown parameters {sorted(unknown)} for family {name!r}")
        values = _floats(params.values(), f"parameters of family {name!r}")
        try:
            return ctor(**dict(zip(params, values)))
        except TypeError as exc:  # a required parameter is missing
            raise InputError(f"family {name!r}: {exc}") from exc
    if "atoms" in obj:
        atoms = obj["atoms"]
        if not isinstance(atoms, list) or any(not isinstance(a, list) or len(a) != 2 for a in atoms):
            raise InputError("atoms must be a list of [location, mass] pairs")
        return from_atoms([_floats(a, "atom locations and masses") for a in atoms])
    if "empirical" in obj:
        return from_samples(obj["empirical"])
    if "empirical_csv" in obj:
        if not isinstance(obj["empirical_csv"], str):
            raise InputError("empirical_csv must be a file path")
        return load_empirical_csv(obj["empirical_csv"])
    if "mixture" in obj:
        spec = obj["mixture"]
        if not (isinstance(spec, dict) and isinstance(spec.get("components"), list)
                and isinstance(spec.get("weights"), list)):
            raise InputError('mixture needs "components" and "weights" lists')
        comps = [dist_from_json(c) for c in spec["components"]]
        return make_mixture(comps, _floats(spec["weights"], "mixture weights"))
    raise InputError("distribution spec needs one of: family, atoms, empirical, "
                     "empirical_csv, mixture")


def load_empirical_csv(path) -> Distribution:
    """Empirical law from a one-column CSV of samples.  Only the first
    non-empty row may be a header; InputError, naming the line, on any later
    row that is not a number, and when the file cannot be read."""
    values = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for i, row in enumerate(filter(None, reader)):
                try:
                    values.append(float(row[0]))
                except ValueError:
                    if i:  # only the first non-empty row may be a header
                        raise InputError(f"{path}, line {reader.line_num}: "
                                         f"{row[0]!r} is not a number") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read samples from {path}: {exc}") from exc
    if not values:
        raise InputError(f"no numeric samples found in {path}")
    return from_samples(values, label=f"empirical:{path}")
