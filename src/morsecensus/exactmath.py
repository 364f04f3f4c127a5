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
from math import comb, factorial as _factorial

import mpmath

__all__ = [
    "factorial",
    "catalan",
    "bernoulli",
    "log_rational",
    "format_rational",
    "parse_rational",
]

# Entries near weight 400 have ~1000-digit numerators; keep int<->str
# conversions unrestricted well past that.
if sys.get_int_max_str_digits() < 50_000:
    sys.set_int_max_str_digits(50_000)

GUARD_BITS = 64


def factorial(n: int) -> int:
    """n! as an exact integer."""
    if n < 0:
        raise ValueError("factorial requires n >= 0")
    return _factorial(n)


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1), exactly."""
    if n < 0:
        raise ValueError("catalan requires n >= 0")
    q, r = divmod(comb(2 * n, n), n + 1)
    assert r == 0
    return q


_bernoulli_even_cache: list[Fraction] = [Fraction(1)]


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
    cache = _bernoulli_even_cache
    while len(cache) <= half:
        j = len(cache)
        n = 2 * j
        # sum over even indices below n, plus the lone odd contribution B_1
        s = sum(Fraction(comb(n + 1, 2 * i)) * cache[i] for i in range(j))
        s += Fraction(n + 1) * Fraction(-1, 2)
        cache.append(-s / (n + 1))
    return cache[half]


def log_rational(q: Fraction, precision: int = 128) -> mpmath.mpf:
    """Natural log of a positive rational, accurate to `precision` bits.

    Computed as log(numerator) - log(denominator) on the exact integers,
    so arbitrarily large terms (hundreds of digits) lose no accuracy.
    """
    if q <= 0:
        raise ValueError("log_rational requires q > 0")
    with mpmath.workprec(precision + GUARD_BITS):
        return mpmath.log(mpmath.mpf(q.numerator)) - mpmath.log(mpmath.mpf(q.denominator))


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1; sign leads."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`."""
    num, sep, den = text.partition("/")
    if sep:
        return Fraction(int(num), int(den))
    return Fraction(int(num))
