"""Exact arithmetic for every vertex and ball-growth bound in the library.

Everything here is pure: big integers for the combinatorial tables,
``fractions.Fraction`` for the piecewise volume profile.  No floating
point, so equalities and inequalities can be asserted exactly.

Two families of ball-growth lower bounds appear:

* ``essential_ball_bounds`` (the *b* table): row 1 is 2i+1 up to the
  triviality radius r with the special endpoint 2r+2 at i = r+1, and
  each later row is the running prefix sum of the previous one.  The
  table therefore carries r explicitly; entries beyond i = r+1 are
  undefined.
* ``cup_ball_bounds`` (the *breve* table): row 0 is constant 1 and row
  n is b(n-1, i) + 2 * sum of the previous row below i.  These values
  coincide with the Delannoy-style coefficients of 1/(1-u-v-uv).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, require_int

INFINITY = math.inf


def comb0(n: int, k: int) -> int:
    """Binomial coefficient with the convention 0 outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class BoundTable:
    """Tabulated exact bound values, rows indexed from ``min_n``."""

    kind: str
    min_n: int
    r: int | None
    rows: tuple

    def value(self, n: int, i: int) -> int:
        row = self.row(n)
        i = require_int(i, "i", 0)
        if i >= len(row):
            raise ParameterError(f"column {i} not tabulated")
        return row[i]

    def row(self, n: int) -> tuple:
        n = require_int(n, "n", self.min_n)
        if n - self.min_n >= len(self.rows):
            raise ParameterError(f"row {n} not tabulated")
        return self.rows[n - self.min_n]


def essential_ball_bounds(n_max: int, i_max: int, r: int) -> BoundTable:
    """Ball-growth lower bounds for combinatorially essential covers."""
    n_max = require_int(n_max, "n_max", 1)
    i_max = require_int(i_max, "i_max", 0)
    r = require_int(r, "r", 0)
    if i_max > r + 1:
        raise ParameterError(f"entries beyond i = r+1 = {r + 1} are undefined")
    first = [2 * i + 1 if i <= r else 2 * r + 2 for i in range(i_max + 1)]
    rows = [tuple(first)]
    for _ in range(2, n_max + 1):
        acc = 0
        row = []
        for x in rows[-1]:
            acc += x
            row.append(acc)
        rows.append(tuple(row))
    return BoundTable("essential", 1, r, tuple(rows))


def cup_ball_bounds(n_max: int, i_max: int) -> BoundTable:
    """Ball-growth lower bounds under a nonzero length-n cup product."""
    n_max = require_int(n_max, "n_max", 0)
    i_max = require_int(i_max, "i_max", 0)
    rows = [tuple([1] * (i_max + 1))]
    for _ in range(1, n_max + 1):
        prev = rows[-1]
        acc = 0
        row = []
        for i in range(i_max + 1):
            row.append(prev[i] + 2 * acc)
            acc += prev[i]
        rows.append(tuple(row))
    return BoundTable("cup", 0, None, tuple(rows))


def delannoy_table(n_max: int, i_max: int) -> BoundTable:
    """Coefficients of 1/(1-v-u-uv) via the three-term recurrence."""
    n_max = require_int(n_max, "n_max", 0)
    i_max = require_int(i_max, "i_max", 0)
    rows = [tuple([1] * (i_max + 1))]
    for _ in range(1, n_max + 1):
        prev = rows[-1]
        row = [1]
        for i in range(1, i_max + 1):
            row.append(row[i - 1] + prev[i] + prev[i - 1])
        rows.append(tuple(row))
    return BoundTable("delannoy", 0, None, tuple(rows))


def delannoy_coeff(n: int, i: int) -> int:
    n = require_int(n, "n", 0)
    i = require_int(i, "i", 0)
    return delannoy_table(n, i).value(n, i)


def _half(sys_length) -> int:
    if sys_length == INFINITY:
        return -1
    return require_int(sys_length, "systole", 3) // 2


def essential_vertex_lower_bound(n: int, sys_length):
    """The displayed closed form of the essential-complex vertex bound.

    C(n + floor(s/2) - 1, n-1) + 2 C(n + floor(s/2) - 1, n); inf input
    propagates to inf (no finite complex qualifies).

    This is one more than the bound the ball-growth recursion proves,
    ``essential_ball_bounds(n, r+1, r).value(n, r+1)`` with
    r = floor(s/2) - 1, so it is not a lower bound for every
    combinatorially n-essential complex: at n = 1 and even s it is s + 1,
    above the s vertices of the s-cycle, which is 1-essential with
    edge-path systole s and meets b(1, s/2) = s with equality.
    """
    n = require_int(n, "n", 1)
    half = _half(sys_length)
    if half < 0:
        return INFINITY
    m = n + half - 1
    return comb0(m, n - 1) + 2 * comb0(m, n)


def essential_vertex_bound_chain(n: int, sys_length):
    """The displayed closed form above plus its two weaker chained forms.

    Returns (the displayed form b(n, r+1) + 1 with r = floor(s/2) - 1,
    binomial form C(n + floor(s/2), n), and the exact rational
    ceil(s/2)^n / n!).  The first entry exceeds the vertex count of the
    even s-cycle at n = 1; the bound the recursion proves is
    ``essential_ball_bounds(n, r+1, r).value(n, r+1)``.
    """
    n = require_int(n, "n", 1)
    half = _half(sys_length)
    if half < 0:
        return (INFINITY, INFINITY, INFINITY)
    strongest = essential_vertex_lower_bound(n, sys_length)
    middle = comb0(n + half, n)
    ceil_half = -(-int(sys_length) // 2)
    weak = Fraction(ceil_half ** n, math.factorial(n))
    return (strongest, middle, weak)


def cup_vertex_lower_bound(n: int, sys_length):
    """Vertex lower bound 2^n C(floor(s/2), n) for n-cup-essential complexes."""
    n = require_int(n, "n", 1)
    half = _half(sys_length)
    if half < 0:
        return INFINITY
    return 2 ** n * comb0(half, n)


def cup_vertex_total(n: int, r: int) -> int:
    """Sum over k = 0..n of the cup ball bound b(k, r).

    The row-sum reading of the total vertex count under a cup-length
    assumption; verified against 2^n C(r+1, n) in the golden suite.
    """
    n = require_int(n, "n", 0)
    r = require_int(r, "r", 0)
    table = cup_ball_bounds(n, r)
    return sum(table.value(k, r) for k in range(n + 1))


@dataclass(frozen=True)
class FVectorBounds:
    """Face-count lower bounds for a centrally symmetric polytope boundary."""

    f0: int
    fk: dict
    f_codim1: int


def fvector_lower_bounds(n: int, s: int) -> FVectorBounds:
    """The three face-count bounds at parameters (n, s), evaluated verbatim.

    f0 >= 2^(n-1) C(floor(s/2), n); for 1 <= k <= n,
    fk >= C(n+1, k) (2^n C(floor(s/2), n) - 2n) + 2^(k+1) C(n+1, k+1);
    f_{n-1} >= 2^n n C(floor(s/2), n) + 2^(n+1) - 2n^2 + 2n + 4.
    s must be an integer of at least 3; an infinite s is refused, since no
    polytope has one.
    """
    n = require_int(n, "n", 1)
    half = require_int(s, "systole", 3) // 2
    core = comb0(half, n)
    f0 = 2 ** (n - 1) * core
    base = 2 ** n * core
    fk = {k: comb0(n + 1, k) * (base - 2 * n) + 2 ** (k + 1) * comb0(n + 1, k + 1)
          for k in range(1, n + 1)}
    f_codim1 = 2 ** n * n * core + 2 ** (n + 1) - 2 * n * n + 2 * n + 4
    return FVectorBounds(f0, fk, f_codim1)


# -- piecewise volume profile ----------------------------------------------

@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial on [0, inf), exact rational coefficients.

    Piece j is valid on (breakpoints[j-1], breakpoints[j]] (piece 0 from
    0, the last piece unbounded).  Coefficients are ascending powers.
    """

    breakpoints: tuple
    pieces: tuple

    def __post_init__(self):
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise ParameterError("need exactly one more piece than breakpoints")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise ParameterError("breakpoints must increase strictly")

    def _piece_at(self, r) -> int:
        for j, b in enumerate(self.breakpoints):
            if r <= b:
                return j
        return len(self.pieces) - 1

    def __call__(self, r) -> Fraction:
        r = _rational(r, "r")
        if r < 0:
            raise ParameterError("defined for r >= 0 only")
        coeffs = self.pieces[self._piece_at(r)]
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * r + c
        return acc

    def is_continuous(self) -> bool:
        for j, b in enumerate(self.breakpoints):
            left = self.pieces[j]
            right = self.pieces[j + 1]
            lv = sum(c * b ** i for i, c in enumerate(left))
            rv = sum(c * b ** i for i, c in enumerate(right))
            if lv != rv:
                return False
        return True

    def integral(self) -> "PiecewisePoly":
        """Cumulative integral from 0, again piecewise polynomial."""
        new_pieces = []
        acc = Fraction(0)
        prev_b = Fraction(0)
        for j, coeffs in enumerate(self.pieces):
            anti = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(coeffs)]
            at_prev = sum(c * prev_b ** i for i, c in enumerate(anti))
            anti[0] = acc - at_prev
            new_pieces.append(tuple(anti))
            if j < len(self.breakpoints):
                b = self.breakpoints[j]
                acc = sum(c * b ** i for i, c in enumerate(anti))
                prev_b = b
        return PiecewisePoly(self.breakpoints, tuple(new_pieces))


def _rational(value, name: str) -> Fraction:
    """``value`` as an exact Fraction: the one converter of rational arguments.

    Ints, Fractions, finite floats and strings such as "3/2" are read
    exactly; bools, NaN, infinities, None and malformed strings are refused
    with ``ParameterError``, never coerced.
    """
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ParameterError(f"{name} must be a rational number, got {value!r}")


def _validate_lengths(L) -> list[Fraction]:
    out = [_rational(x, "length") for x in L]
    if any(x < 0 for x in out):
        raise ParameterError("lengths must be nonnegative")
    if any(a > b for a, b in zip(out, out[1:])):
        raise ParameterError("lengths must be nondecreasing")
    return out


def volume_profile(L) -> PiecewisePoly:
    """The monotone piecewise profile V(r) attached to lengths L_1 <= ... <= L_n.

    (2r)^n / n! up to L_1/2, then L_1 (2r)^(n-1) / n! up to L_2/2, and so
    on until the constant L_1 ... L_n / n! beyond L_n/2.  With an empty
    L this degenerates to the constant 1.
    """
    L = _validate_lengths(L)
    n = len(L)
    fact = math.factorial(n)
    raw_breaks = [x / 2 for x in L]
    pieces = []
    for i in range(n + 1):
        prod = Fraction(1)
        for x in L[:i]:
            prod *= x
        power = n - i
        coeffs = [Fraction(0)] * power + [prod * 2 ** power / fact]
        pieces.append(tuple(coeffs))
    breaks = []
    kept = [pieces[0]]
    for b, piece in zip(raw_breaks, pieces[1:]):
        if breaks and b == breaks[-1]:
            kept[-1] = piece
            continue
        if not breaks and b == 0:
            kept[-1] = piece
            continue
        breaks.append(b)
        kept.append(piece)
    return PiecewisePoly(tuple(breaks), tuple(kept))


def ball_volume_lower_bound(r, L) -> Fraction:
    """Evaluate the volume profile at radius r, exactly."""
    return volume_profile(L)(r)


def volume_recursion_check(L, grid=()) -> bool:
    """Exact check that twice the integrated (n-1)-profile dominates the n-profile.

    Compared at every profile breakpoint, every piece midpoint, one point
    past the last breakpoint, and all supplied grid points; Fractions
    throughout, no tolerance.
    """
    L = _validate_lengths(L)
    if not L:
        raise ParameterError("need at least one length")
    lhs = volume_profile(L[:-1]).integral()
    rhs = volume_profile(L)
    points = {Fraction(0)}
    points.update(rhs.breakpoints)
    points.update(lhs.breakpoints)
    for g in grid:
        g = _rational(g, "grid point")
        if g < 0:
            raise ParameterError("grid points must be nonnegative")
        points.add(g)
    ordered = sorted(points)
    for a, b in zip(ordered, ordered[1:]):
        points.add((a + b) / 2)
    top = max(points)
    points.add(top + 1)
    return all(2 * lhs(p) >= rhs(p) for p in points)
