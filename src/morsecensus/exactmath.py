"""Exact integer/rational arithmetic and the classical number sequences.

Integers are plain Python ints (arbitrary precision); rationals are
``fractions.Fraction``, which keeps every value in canonical form
(positive denominator, gcd-reduced) after each operation.  High-precision
reals are ``decimal.Decimal`` values in :func:`decimal_context`, whose 64
guard bits beyond the requested precision keep later arithmetic in its bound.
"""
from __future__ import annotations

import sys
from math import ceil, comb, factorial, log10  # factorial re-exported; ValueError on n < 0
from operator import add

# `Fraction`, `Decimal` and `Context` in annotations name the types for readers
# only: fractions and decimal are imported inside the functions that use them,
# so typing.get_type_hints raises NameError on those functions, on purpose, and
# `verify conjecture`, which builds no fraction when it passes, loads neither.

__all__ = [
    "TableRangeError",
    "ConsistencyError",
    "factorial",
    "catalan",
    "normalized",
    "binomial_rows",
    "decimal_context",
    "log_rational",
    "format_rational",
]

GUARD_BITS = 64


# Shared by every layer; `recurrence` re-exports both, so a layer raises or
# catches them without loading the table code.
class TableRangeError(ValueError):
    """Requested index lies outside the table's weight bound."""


class ConsistencyError(RuntimeError):
    """A value the recurrence makes integral is not an integer: a recurrence bug."""


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1) = binom(2n, n) - binom(2n, n + 1)."""
    if n < 0:
        raise ValueError("catalan requires n >= 0")
    return comb(2 * n, n) - comb(2 * n, n + 1)


def normalized(n: int, g: int) -> Fraction:
    """h(n) = g(n) / (2n+1)!, the normalized count of index n."""
    from fractions import Fraction

    return Fraction(g, factorial(2 * n + 1))


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


def decimal_context(precision: int) -> Context:
    """The decimal context of `precision` + GUARD_BITS bits, plus 2 digits."""
    from decimal import Context

    return Context(prec=ceil((precision + GUARD_BITS) * log10(2)) + 2)


def log_rational(q: Fraction, precision: int = 128) -> Decimal:
    """Natural log of a positive rational to `precision` bits, computed as
    log(numerator) - log(denominator) of the exact integers in
    :func:`decimal_context`: huge terms lose no accuracy, log(1/q) is exactly
    -log(q), and arithmetic on the result outside that context rounds to 28 digits."""
    from decimal import Decimal, localcontext

    if q <= 0:
        raise ValueError("log_rational requires q > 0")
    with localcontext(decimal_context(precision)):
        return Decimal(q.numerator).ln() - Decimal(q.denominator).ln()


def format_rational(q: Fraction | int) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1; sign leads.

    Counts pass CPython's limit on the digits of an int<->str conversion
    (g(1000) has 5,622), so it is lifted for these conversions only: the
    limit still guards the parsing of codec input.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
