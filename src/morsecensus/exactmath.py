"""Exact integer/rational arithmetic and the classical number sequences.

Integers are plain Python ints (arbitrary precision); rationals are
``fractions.Fraction``, which keeps every value in canonical form
(positive denominator, gcd-reduced) after each operation.  The Bernoulli
numbers are the exception: one call returns them as ints over one common
denominator and keeps no state between calls.  High-precision reals
are ``decimal.Decimal`` values in :func:`decimal_context`, whose 64 guard
bits beyond the requested precision keep later arithmetic in its bound.
"""
from __future__ import annotations

import sys
from math import ceil, comb, factorial, gcd, log10  # factorial re-exported; ValueError on n < 0
from operator import add, mul

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
    "bernoulli",
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


def binomial_rows(m: int):
    """Every second row of Pascal's triangle from row m on: the lists
    [C(m, 0), ..., C(m, m)], [C(m+2, 0), ..., C(m+2, m+2)], ...

    Only the first row calls math.comb; each later one takes two steps of
    Pascal's rule, C(r+1, i) = C(r, i-1) + C(r, i), so the row of index r
    costs r additions in place of r+1 binomials.
    """
    row = [comb(m, i) for i in range(m + 1)]
    while True:
        yield row
        row = list(map(add, row + [0], [0] + row))
        row = list(map(add, row + [0], [0] + row))


def bernoulli(count: int) -> tuple[int, list[int]]:
    """The even-index Bernoulli numbers B_0, B_2, ..., B_(2 count - 2) over
    one common denominator: the pair (D, [D B_0, D B_2, ...]).

    B_m are the coefficients of t/(e^t - 1) = sum B_m t^m / m!, so B_1 is
    -1/2 and the odd ones vanish from B_3 on.  D is the lcm of the
    denominators and of B_1's 2; since B_0 = 1, the first entry is D.  One
    pass of the recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0, restricted to
    the even k and the lone odd term of B_1, gives each new B_n from those
    below it.
    """
    if count < 1:
        raise ValueError("bernoulli requires count >= 1")
    d, scaled = 2, [2]
    for n, row in zip(range(2, 2 * count, 2), binomial_rows(3)):  # row C(n+1, .)
        # D B_n = -s / (n+1), where s, the recurrence's other terms times D,
        # is an integer.  (n+1) / gcd(s, n+1) is the least factor that makes
        # it one, so D grows to its lcm with B_n's denominator.  By von
        # Staudt-Clausen that denominator is the product of the primes p
        # with (p - 1) | n, so D is squarefree with every prime factor at
        # most n + 1: through B_600 it has 822 bits against 4678 for 600!.
        s = sum(map(mul, row[0::2], scaled)) - (n + 1) * (d // 2)
        g = gcd(s, n + 1)
        grow = (n + 1) // g
        if grow > 1:
            scaled = [x * grow for x in scaled]
            d *= grow
        scaled.append(-s // g)
    return d, scaled


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
