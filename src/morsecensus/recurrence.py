"""Two-parameter recurrence table behind the census of Morse classes.

Every command that needs only the counts g(n) (`census`, `table`,
`verify bounds|conjecture|elliptic` and `oracle`) takes them from the
one-variable route of :mod:`series`.  The table is built only where it is
the subject, in memory and for a small weight: `verify pde` needs T(x, y)
off the diagonal (weight 79 at order 80), and the tests hold the table to
the enumerated trees and the one-variable route to the table.

The table holds exact rationals T(x, y) for x + 2y <= W, filled in
increasing weight w = x + 2y:

    y = 0:           T(x, 0) = 2^-x
    x = 0, y > 0:    (2y+1) T(0,y) = T(1,y-1)
                         + (1/2) sum_{y1=0}^{y-1} T(0,y1) T(0,y-1-y1)
    x > 0, y > 0:    (x+2y+1) T(x,y) = (x+1) T(x+1,y-1) + ((x+1)/2) T(x-1,y)
                         + ((x+1)/2) sum_{0<=a<=x, 0<=b<=y-1} T(a,b) T(x-a,y-1-b)

with T(.,.) = 0 at any negative index.  Every right-hand entry has weight
< w, so the fill is well founded.  The number of Morse classes with 2n+2
critical points is g(n) = (2n+1)! * T(0,n).

Storage: the table keeps only the scaled integers
S'(x,y) = 2^(x+y) (x+2y+1)! T(x,y), one list per weight level, and derives
T when it is read.  Multiplying the recurrences by 2^(x+y) (x+2y)! turns
both into one formula with integer coefficients and no division:

    S'(x,y) = (x+1) [ S'(x+1,y-1) + S'(x-1,y)
                      + sum_{a,b} binom(x+2y, a+2b+1) S'(a,b) S'(x-a,y-1-b) ]

with S' = 0 at any negative index, which gives the x = 0 case.  At y = 0
the formula reads S'(x,0) = (x+1) S'(x-1,0), so the base row
S'(x,0) = (x+1)! follows from the seed S'(0,0) = 1.  By induction on the
weight, every S' is an integer: the seed is, and each later entry is an
integer combination of entries of smaller weight.  g(n) = S'(0,n) / 2^n is
not covered by that argument, so :meth:`CensusTable.morse_count` checks it.
The S' are also the Hurwitz coefficients of the generating series in
sqrt(2)-scaled variables, where the PDE residual's coefficient at
(x, x+2y) is S'(x,y) minus the right-hand side above (:mod:`series`).  So
`verify pde` holds the fill below, which never forms that convolution, to
the formula entry by entry.

Filling a level: read level k as the polynomial L_k(z) = sum_y S'(k-2y, y) z^y
of degree floor(k/2).  The binomial sums of level w, grouped by a + 2b = w1,
are the coefficients of

    V(z) = sum_{w1 + w2 = w - 2} binom(w, w1 + 1) L_{w1}(z) L_{w2}(z):

the sum for S'(w-2y, y) is the coefficient of z^(y-1).  V has integer
coefficients and degree at most floor(w1/2) + floor(w2/2) <= n - 1, where
n = floor(w/2), so its values at the n points 0..n-1 determine it.  The
fill to weight W evaluates each level once, when it reaches it, at each
point 0..W//2 - 1, by Horner's rule.  V at a point is then about w/2
products of those values: about w^2/4 products of big integers per level
against about w^3/48 for the convolution taken coefficient by coefficient.
The fill interpolates in integers with Newton's forward-difference form
V(x) = sum_k (D^k V(0) / k!) x(x-1)...(x-k+1).  The divisions are exact:
for an integer polynomial, D^k x^m at 0 is k! times a Stirling number of
the second kind, so every D^k V(0) is a multiple of k!.  A remainder means
the values are not those of an integer polynomial, which only a bug can
cause; it raises ConsistencyError.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial
from operator import mul, sub

from . import ConsistencyError

__all__ = ["CensusTable", "extend_table"]


def _scale(x: int, y: int) -> int:
    """S'(x,y) / T(x,y)."""
    return (1 << (x + y)) * factorial(x + 2 * y + 1)


class CensusTable(namedtuple("CensusTable", "weight_bound levels")):
    """Completed triangular table: `levels[w][y]` is S'(w - 2y, y) for every
    weight w <= `weight_bound`.  Never mutated once built, so safe to share.

    A tuple (weight_bound, levels): it compares equal to any tuple with the
    same fields.
    """

    __slots__ = ()

    def entry(self, x: int, y: int) -> Fraction:
        """T(x, y) = S'(x, y) / (2^(x+y) (x+2y+1)!); `normalized_count` and
        `items` read T through it."""
        if x < 0 or y < 0 or x + 2 * y > self.weight_bound:
            raise ValueError(
                f"entry ({x},{y}) outside table with weight bound {self.weight_bound}"
            )
        return Fraction(self.levels[x + 2 * y][y], _scale(x, y))

    def normalized_count(self, n: int) -> Fraction:
        """T(0, n): the class count divided by (2n+1)!."""
        return self.entry(0, n)

    def morse_count(self, n: int) -> int:
        """Number of equivalence classes with 2n+2 critical points."""
        if n < 0 or 2 * n > self.weight_bound:
            raise ValueError(
                f"n={n} needs weight bound >= {2 * n}, table has {self.weight_bound}"
            )
        count, rest = divmod(self.levels[2 * n][n], 1 << n)
        if rest:
            raise ConsistencyError(
                f"(2n+1)! * T(0,{n}) is not an integer: recurrence implementation bug"
            )
        return count

    def items(self):
        """Entries ((x, y), T(x, y)) sorted by (weight, x)."""
        for w, level in enumerate(self.levels):
            for y in reversed(range(len(level))):
                yield (w - 2 * y, y), self.entry(w - 2 * y, y)


# ---------------------------------------------------------------------------
# fill routines


def _interpolate(values: list[int]) -> list[int]:
    """Coefficients of the integer polynomial of degree < len(values) that
    takes `values` at 0, 1, 2, ...; ConsistencyError if there is none.

    Newton's forward-difference form f(x) = sum_k (D^k f(0) / k!) x(x-1)...(x-k+1),
    expanded by nested multiplication with (x - k).
    """
    newton = []
    diffs, fact = values, 1
    for k in range(len(values)):
        q, r = divmod(diffs[0], fact)
        if r:
            raise ConsistencyError(f"D^{k} f(0) = {diffs[0]} is not a multiple of {k}!: "
                                   "the values are not an integer polynomial's")
        newton.append(q)
        diffs = list(map(sub, diffs[1:], diffs))
        fact *= k + 1
    coeffs: list[int] = []
    for k in reversed(range(len(newton))):
        coeffs = list(map(sub, [0, *coeffs], [k * c for c in coeffs] + [0]))
        coeffs[0] += newton[k]
    return coeffs


def _fill(levels: list[list[int]], weight_bound: int) -> None:
    """Append the levels of S' from len(levels) up to `weight_bound`.

    Level w needs the coefficients of z^0..z^(n-1), n = w // 2, of the
    polynomial V of the module docstring.  Its sum runs over the pairs of
    levels w1 <= w2 = w - 2 - w1; swapping the two levels gives the same
    term, so an unequal pair is counted twice.  `cols[p]` holds L_0(p),
    L_1(p), ... at the points p = 0..weight_bound//2 - 1: the loop
    evaluates each level there once, by Horner's rule, when it reaches it.
    V's values at 0..n-1 give its coefficients by :func:`_interpolate`.
    """
    cols: list[list[int]] = [[] for _ in range(weight_bound // 2)]
    for w in range(weight_bound + 1):
        if w == len(levels):
            n = w // 2
            coeffs = [comb(w, w1 + 1) << (w1 != w - 2 - w1) for w1 in range(n)]
            sums = [sum(map(mul, map(mul, coeffs, col), reversed(col[w - 1 - n:w - 1])))
                    for col in cols[:n]]
            conv = [0, *_interpolate(sums)]
            below = [0, *levels[w - 1], 0]  # S'(x+1, -1) = S'(-1, y) = 0
            levels.append([(w - 2 * y + 1) * (below[y] + below[y + 1] + conv[y])
                           for y in range(n + 1)])
        for p, col in enumerate(cols):
            acc = 0
            for c in reversed(levels[w]):
                acc = acc * p + c
            col.append(acc)


def _fill_fractions(entries: dict[tuple[int, int], Fraction], w_start: int, w_stop: int) -> None:
    """Reference fill in plain Fractions for weights in (w_start, w_stop]."""
    for w in range(w_start + 1, w_stop + 1):
        for y in range(w // 2 + 1):
            x = w - 2 * y
            if y == 0:
                entries[(x, 0)] = Fraction(1, 1 << x)
            elif x == 0:
                s = sum(entries[(0, y1)] * entries[(0, y - 1 - y1)] for y1 in range(y))
                entries[(0, y)] = (entries[(1, y - 1)] + s / 2) / (2 * y + 1)
            else:
                conv = sum(
                    entries[(a, b)] * entries[(x - a, y - 1 - b)]
                    for a in range(x + 1)
                    for b in range(y)
                )
                entries[(x, y)] = (
                    (x + 1) * entries[(x + 1, y - 1)]
                    + Fraction(x + 1, 2) * (entries[(x - 1, y)] + conv)
                ) / (x + 2 * y + 1)


def _pack(entries: dict[tuple[int, int], Fraction], weight_bound: int) -> list[list[int]]:
    """Levels of S' from a dict of T."""
    levels = []
    for w in range(weight_bound + 1):
        level = []
        for y in range(w // 2 + 1):
            s = entries[(w - 2 * y, y)] * _scale(w - 2 * y, y)
            if s.denominator != 1:
                raise ConsistencyError(f"entry ({w - 2 * y},{y}) does not scale to an integer")
            level.append(s.numerator)
        levels.append(level)
    return levels


def extend_table(table: CensusTable | None, weight_bound: int,
                 use_fractions: bool = False) -> CensusTable:
    """Pure extension of `table` (or a fresh build from None) to `weight_bound`.

    Returns the input unchanged when it already covers the bound.
    `use_fractions` runs the plain-Fraction reference fill, the oracle the
    tests hold the integer fill to.
    """
    if weight_bound < 0:
        raise ValueError("weight_bound must be >= 0")
    if table is None:
        table = CensusTable(0, [[1]])
    if table.weight_bound >= weight_bound:
        return table
    if use_fractions:
        entries = dict(table.items())
        _fill_fractions(entries, table.weight_bound, weight_bound)
        return CensusTable(weight_bound, _pack(entries, weight_bound))
    levels = list(table.levels)
    _fill(levels, weight_bound)
    return CensusTable(weight_bound, levels)
