"""Exact integer arithmetic and the classical number sequences.

Every value here is a plain Python int (arbitrary precision): the module
imports neither `fractions` nor `decimal`.  A rational such as h(n) =
g(n)/(2n+1)! travels as its numerator and denominator, and
:func:`format_rational` prints the pair in lowest terms.
"""
from __future__ import annotations

import sys
from math import comb, factorial, gcd  # factorial re-exported; ValueError on n < 0
from operator import add

__all__ = [
    "factorial",
    "catalan",
    "binomial_rows",
    "format_rational",
]


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1) = binom(2n, n) - binom(2n, n + 1)."""
    if n < 0:
        raise ValueError("catalan requires n >= 0")
    return comb(2 * n, n) - comb(2 * n, n + 1)


def binomial_rows():
    """Every second row of Pascal's triangle from row 2 on: the lists
    [C(2, 0), C(2, 1), C(2, 2)], [C(4, 0), ..., C(4, 4)], ...

    Each row takes two steps of Pascal's rule, C(r+1, i) = C(r, i-1) + C(r, i),
    from the one before, so the row of index r costs 2r + 1 additions in
    place of r + 1 binomials.
    """
    row = [1]
    while True:
        row = list(map(add, row + [0], [0] + row))
        row = list(map(add, row + [0], [0] + row))
        yield row


def format_rational(num: int, den: int = 1) -> str:
    """Serialize num/den, den != 0, in lowest terms as "p/q", or "p" when q
    is 1; the sign leads and q > 0.

    Counts pass CPython's limit on the digits of an int<->str conversion
    (g(1000) has 5,622), so it is lifted for these conversions only: the
    limit still guards the parsing of codec input.
    """
    if den < 0:
        num, den = -num, -den
    d = gcd(num, den)
    num, den = num // d, den // d
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    finally:
        sys.set_int_max_str_digits(limit)
