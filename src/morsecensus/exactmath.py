"""Two helpers on plain Python ints: :func:`catalan` and :func:`format_rational`.

The module imports neither `fractions` nor `decimal`.  A rational such as
h(n) = g(n)/(2n+1)! travels as its numerator and denominator, and
:func:`format_rational` prints the pair in lowest terms.
"""
from __future__ import annotations

import sys
from math import comb, gcd

__all__ = ["catalan", "format_rational"]


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1) = binom(2n, n) - binom(2n, n + 1)."""
    return comb(2 * n, n) - comb(2 * n, n + 1)


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
