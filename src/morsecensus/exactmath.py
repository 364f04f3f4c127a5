"""Exact integer/rational arithmetic and the classical number sequences.

Integers are plain Python ints (arbitrary precision); rationals are
``fractions.Fraction``, which keeps every value in canonical form
(positive denominator, gcd-reduced) after each operation.  High-precision
reals are ``mpmath.mpf`` values computed under an explicit working
precision; results carry 64 guard bits beyond the requested precision so
that downstream arithmetic stays within the stated error bound.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, factorial, gcd  # factorial re-exported; raises ValueError on n < 0

# `mpmath.mpf` in annotations names the result type for readers only: mpmath
# is imported inside the function that uses it, so the name is unbound here
# and typing.get_type_hints raises NameError on those functions, on purpose.

__all__ = [
    "TableRangeError",
    "ConsistencyError",
    "factorial",
    "catalan",
    "bernoulli",
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
    """The n-th Catalan number binom(2n, n) / (n + 1), exactly."""
    if n < 0:
        raise ValueError("catalan requires n >= 0")
    q, r = divmod(comb(2 * n, n), n + 1)
    assert r == 0
    return q


# D B_0, D B_2, D B_4, ...: the even-index Bernoulli numbers computed so far
# as integers over D, the lcm of their denominators and of the 2 of B_1.
# Since B_0 = 1, the first entry is D itself.
_bernoulli_even_scaled: list[int] = [2]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m under the convention with B_1 = -1/2.

    These are the coefficients of t/(e^t - 1) = sum B_m t^m / m!.
    Computed from the recurrence sum_{k=0}^{m} binom(m+1, k) B_k = 0,
    restricted to even indices (odd ones vanish from B_3 on).
    """
    if m < 0:
        raise ValueError("bernoulli requires m >= 0")
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2 == 1:
        return Fraction(0)
    half = m // 2
    scaled = _bernoulli_even_scaled
    while len(scaled) <= half:
        n = 2 * len(scaled)
        # D times the recurrence's sum, over the even indices below n plus
        # the lone odd term of B_1, is an integer, so only the new B_n is a
        # fraction.  By von Staudt-Clausen the denominator of B_k is the
        # product of the primes p with (p - 1) | k, so D is squarefree with
        # every prime factor below n: it divides n!, and at n = 600 it has
        # 813 bits against 4678 for n!.
        d = scaled[0]
        s = sum(comb(n + 1, 2 * i) * x for i, x in enumerate(scaled)) - (n + 1) * (d // 2)
        b = Fraction(-s, d * (n + 1))
        grow = b.denominator // gcd(d, b.denominator)
        if grow > 1:
            scaled[:] = [x * grow for x in scaled]
            d *= grow
        scaled.append(b.numerator * (d // b.denominator))
    return Fraction(scaled[half], scaled[0])


def log_rational(q: Fraction, precision: int = 128) -> mpmath.mpf:
    """Natural log of a positive rational, accurate to `precision` bits.

    Computed as log(numerator) - log(denominator) on the exact integers,
    so arbitrarily large terms (hundreds of digits) lose no accuracy.
    `mpmath` is imported here, so the exact counting path never loads it.
    """
    import mpmath

    if q <= 0:
        raise ValueError("log_rational requires q > 0")
    with mpmath.workprec(precision + GUARD_BITS):
        return mpmath.log(mpmath.mpf(q.numerator)) - mpmath.log(mpmath.mpf(q.denominator))


def format_rational(q: Fraction | int) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1; sign leads.

    Counts pass CPython's limit on the digits of an int<->str conversion
    (g(1000) has 5,622), so it is lifted for these conversions only: the
    limit still guards the parsing of cache files and codec input.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
