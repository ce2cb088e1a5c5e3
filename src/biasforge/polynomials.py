"""Polynomial substrate: dense polynomials, node sets, Lagrange
interpolation, the interpolation-residual coefficients and correction
polynomials.

Degrees stay small (single digits) throughout the package, so the dense
monomial representation is well conditioned enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputError, ParityMismatch

MIN_NODE_GAP = 1e-8


# ---------------------------------------------------------------------------
# dense polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, monomial basis, low degree first.

    Canonical form: trailing zero coefficients stripped; the zero
    polynomial is the empty tuple.

    The algebra works on the coefficient tuples in plain Python.  Sums,
    differences, ``scale``, ``derivative`` and ``antiderivative`` give the
    bits of ``numpy.polynomial``; so does a product when a factor has at
    most two coefficients (see ``__mul__``).  A call is Horner's rule from
    the top coefficient, in Python floats at a single point and in one
    numpy buffer on an array, with the same float operations either way.
    So a polynomial has its limit at ±inf, and a constant, which does not
    read x, is itself at every input, as the zero polynomial is 0.0.
    """

    coeffs: tuple = ()

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        while cs and cs[-1] == 0.0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        cs = self.coeffs
        if not cs:
            return 0.0 if arr.ndim == 0 else np.zeros_like(arr)
        # Horner from the top coefficient: on finite x these are the bits of
        # a pass from 0.0 (±0 + c is c), and at ±inf no 0 * inf arises
        if arr.ndim == 0:  # one point: the same float operations in Python
            v, out = float(arr), cs[-1]
            for c in reversed(cs[:-1]):
                out = out * v + c
            return out
        out = np.empty_like(arr)
        out.fill(cs[-1])
        for c in reversed(cs[:-1]):
            out *= arr
            out += c
        return out

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs or (0.0,), other.coeffs or (0.0,)
        if len(a) < len(b):
            a, b = b, a
        return Polynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs or (0.0,), other.coeffs or (0.0,)
        tail = a[len(b):] if len(a) > len(b) else tuple(-y for y in b[len(a):])
        return Polynomial(tuple(x - y for x, y in zip(a, b)) + tail)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """The convolution of the coefficients, each sum from 0.0 in the
        order of the longer factor's index, as ``numpy.convolve`` reads it.
        A sum of at most two products does not depend on their order, so
        the bits are numpy's when a factor has at most two coefficients;
        with two longer factors numpy's BLAS dot product may sum in another
        order, and the two differ within the rounding of the sum."""
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial(())
        if len(a) < len(b):
            a, b = b, a
        out = []
        for k in range(len(a) + len(b) - 1):
            s = 0.0
            for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
                s += a[i] * b[k - i]
            out.append(s)
        return Polynomial(tuple(out))

    def scale(self, c: float) -> "Polynomial":
        return Polynomial(tuple(c * a for a in self.coeffs))

    def derivative(self, order: int = 1) -> "Polynomial":
        if order < 0:
            raise InputError("derivative order must be nonnegative")
        if order == 0 or not self.coeffs:
            return self
        if order > self.degree:
            return Polynomial(())
        cs = self.coeffs
        for _ in range(order):  # one order at a time, as ``polyder`` does
            cs = tuple(j * cs[j] for j in range(1, len(cs)))
        return Polynomial(cs)

    def antiderivative(self) -> "Polynomial":
        """Primitive vanishing at zero."""
        if not self.coeffs:
            return Polynomial(())
        return Polynomial((0.0,) + tuple(c / (j + 1) for j, c in enumerate(self.coeffs)))

    @staticmethod
    def monomial(degree: int) -> "Polynomial":
        return Polynomial((0.0,) * degree + (1.0,))


# ---------------------------------------------------------------------------
# node sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeSet:
    """Strictly increasing real nodes; consecutive nodes must be at least
    MIN_NODE_GAP apart because divided quantities 1/(x_l - x_r) appear
    throughout."""

    nodes: tuple = ()

    def __post_init__(self):
        ns = tuple(float(x) for x in self.nodes)
        object.__setattr__(self, "nodes", ns)
        for a, b in zip(ns, ns[1:]):
            if b - a < MIN_NODE_GAP:
                raise InputError(f"nodes {a} and {b} are closer than {MIN_NODE_GAP}")

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, i):
        return self.nodes[i]


# ---------------------------------------------------------------------------
# Lagrange interpolation
# ---------------------------------------------------------------------------

def lagrange_poly(nodes: NodeSet | Sequence[float], values: Sequence[float]) -> Polynomial:
    """Interpolation polynomial of degree <= len(nodes)-1 through
    (node, value) pairs; the zero polynomial for an empty node set."""
    ns = tuple(nodes)
    vs = tuple(float(v) for v in values)
    if len(ns) != len(vs):
        raise InputError("need one value per node")
    if len(set(ns)) < len(ns):  # a repeated node leaves no interpolant
        raise InputError(f"interpolation nodes must be distinct, not {ns!r}")
    out = Polynomial(())
    for k, (xk, vk) in enumerate(zip(ns, vs)):
        if vk == 0.0:
            continue
        basis = Polynomial((1.0,))
        denom = 1.0
        for j, xj in enumerate(ns):
            if j == k:
                continue
            basis = basis * Polynomial((-xj, 1.0))
            denom *= xk - xj
        out = out + basis.scale(vk / denom)
    return out


# ---------------------------------------------------------------------------
# interpolation-residual coefficients
# ---------------------------------------------------------------------------

def complete_homogeneous(nodes: Sequence[float], degree: int) -> float:
    """Complete homogeneous symmetric polynomial of the given degree in the
    nodes (sum of all monomials of that total degree, repeats allowed)."""
    if degree < 0:
        return 0.0
    h = np.zeros(degree + 1)
    h[0] = 1.0
    for x in nodes:
        for t in range(1, degree + 1):
            h[t] += x * h[t - 1]
    return float(h[degree])


def interp_coeff(nodes: Sequence[float], i: int, j: int) -> float:
    """Coefficient of x^i in the degree-j quotient of the monomial
    interpolation residual: (x^{k+j} - interpolant) / prod(x - x_l),
    up to the falling-factorial scale.

    It is the complete homogeneous symmetric polynomial of degree j - i in
    the nodes, by a recurrence that stays well conditioned for clustered
    nodes.
    """
    ns = tuple(float(x) for x in nodes)
    if not ns:
        raise InputError("need at least one node")
    if not 0 <= i <= j:
        raise InputError("need 0 <= i <= j")
    return complete_homogeneous(ns, j - i)


def correction_poly(derivs_at_zero: Sequence[float], nodes: Sequence[float],
                    m: int) -> Polynomial:
    """Degree <= m-1 correction polynomial that lets a biasing function with
    k < m sign changes drive an order-m identity.

    ``derivs_at_zero`` holds the k-th through (m-1)-th derivatives at zero
    of the test function.  Zero polynomial when k == m; the truncated
    Maclaurin polynomial when k == 0.
    """
    ns = tuple(float(x) for x in nodes)
    k = len(ns)
    if m < 0 or k > m:
        raise InputError("need 0 <= k <= m")
    if (m - k) % 2 != 0:
        raise ParityMismatch(f"k={k} and m={m} have different parity")
    ds = tuple(float(v) for v in derivs_at_zero)
    if len(ds) != m - k:
        raise InputError(f"need {m - k} derivative values, got {len(ds)}")
    if k == 0:
        return Polynomial(tuple(ds[j] / math.factorial(j) for j in range(m)))
    inner = [sum(ds[j] * interp_coeff(ns, i, j) / math.factorial(k + j) for j in range(i, m - k))
             for i in range(m - k)]
    prod = Polynomial((1.0,))
    for x in ns:
        prod = prod * Polynomial((-x, 1.0))
    return prod * Polynomial(tuple(inner))


# ---------------------------------------------------------------------------
# piecewise polynomials (test-function substrate)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial with global-coordinate pieces.

    ``pieces[i]`` applies on [breaks[i-1], breaks[i]); pieces[0] on
    (-inf, breaks[0]) and pieces[-1] on [breaks[-1], inf).  Breaks must be
    finite and strictly increasing.

    A call is one array pass over de Boor's pp-form: the piece index is the
    count of breaks not above x (NaN goes to the last piece, as in
    ``searchsorted(breaks, x, side="right")``), then one Horner pass over
    ``_table``, the coefficients with the highest power first, one column
    per piece, a lower-degree piece padded with leading zeros.  The pass
    starts from the first row; a padded step gives +0.0 at any finite x,
    so every finite input gets the bits ``Polynomial.__call__`` gives on
    its own piece.  Where the pass gives NaN (a NaN input, or a padded
    0 * ±inf) the point's own piece evaluates it, so a zero piece gives 0.0
    at every input, ±inf and NaN included, as ``Polynomial(())`` does, and
    every other piece has its own limit at ±inf.
    """

    breaks: tuple
    pieces: tuple  # len(breaks) + 1 Polynomial values
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.pieces) != len(self.breaks) + 1:
            raise InputError("need one more piece than breaks")
        bs = tuple(float(b) for b in self.breaks)
        if not all(math.isfinite(b) for b in bs):
            raise InputError("breaks must be finite")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise InputError("breaks must be strictly increasing")
        object.__setattr__(self, "breaks", bs)
        rows = max(1, max(len(p.coeffs) for p in self.pieces))
        table = np.zeros((rows, len(self.pieces)))
        for j, p in enumerate(self.pieces):
            table[rows - len(p.coeffs):, j] = p.coeffs[::-1]
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        idx = np.full(arr.shape, len(self.breaks), dtype=np.intp)
        for b in self.breaks:
            idx -= arr < b
        out = self._table[0].take(idx)
        with np.errstate(invalid="ignore"):  # a padded 0 * ±inf, redone below
            for row in self._table[1:]:
                out *= arr
                out += row.take(idx)
        nan = np.flatnonzero(np.isnan(out))
        if nan.size:  # NaN input or a padded 0 * ±inf: each piece's own Horner
            for j in np.unique(idx[nan]):
                at = nan[idx[nan] == j]
                out[at] = self.pieces[j](arr[at])
        return float(out[0]) if scalar else out

    def derivative(self, order: int = 1) -> "PiecewisePoly":
        return PiecewisePoly(self.breaks, tuple(p.derivative(order) for p in self.pieces))

    def antiderivative(self, anchor: float = 0.0) -> "PiecewisePoly":
        """Continuous primitive vanishing at ``anchor``."""
        raw = [p.antiderivative() for p in self.pieces]
        shifted = [raw[0]]
        for i, b in enumerate(self.breaks):
            prev = shifted[i]
            nxt = raw[i + 1]
            shifted.append(nxt + Polynomial((prev(b) - nxt(b),)))
        out = PiecewisePoly(self.breaks, tuple(shifted))
        c = out(anchor)
        return PiecewisePoly(self.breaks, tuple(p + Polynomial((-c,)) for p in out.pieces))

    @staticmethod
    def linear_interpolant(knots: Sequence[float], values: Sequence[float],
                           extend: str = "constant") -> "PiecewisePoly":
        """Piecewise-linear function through the knots; constant or zero
        extension outside the knot range."""
        ks = tuple(float(k) for k in knots)
        vs = tuple(float(v) for v in values)
        if len(ks) != len(vs) or len(ks) < 2:
            raise InputError("need >= 2 knots with matching values")
        pieces = []
        if extend == "constant":
            pieces.append(Polynomial((vs[0],)))
        elif extend == "zero":
            pieces.append(Polynomial(()))
        else:
            raise InputError("extend must be 'constant' or 'zero'")
        for (x0, y0), (x1, y1) in zip(zip(ks, vs), zip(ks[1:], vs[1:])):
            slope = (y1 - y0) / (x1 - x0)
            pieces.append(Polynomial((y0 - slope * x0, slope)))
        pieces.append(Polynomial((vs[-1],)) if extend == "constant" else Polynomial(()))
        return PiecewisePoly(ks, tuple(pieces))
