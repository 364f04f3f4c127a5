"""Truncated formal power series over exact rationals, in one and two variables.

A one-variable series (Series1) is a dense coefficient tuple with no
operators: the functions below build it, and callers read and compare its
coefficients.  A two-variable series (Series2) is likewise a coefficient
container: a sparse map keyed by (first-exponent, second-exponent) with an
optional truncation bound on the second exponent.

The census connects to series two ways:

* the tangent expansion written through Bernoulli numbers, against the
  coefficientwise solution of  du/dt = 1 + u^2/2, u(0) = 0  (the same
  function sqrt(2)*tan(t/sqrt(2)), derived by two independent routes),
  which bounds the normalized counts from below coefficient by coefficient.
  The ODE route runs on integers: scaling u_k by 2^k (2k+1)! clears every
  division from its recurrence;
* the two-variable generating series sum T(x,y) u^x v^(x+2y+1), which must
  annihilate the quasilinear PDE residual
      dv(s) - (1 + u s + u^2/2) du(s) - (s^2/2 + u s + 1).
  The residual is computed on integers over one common denominator, and
  only its nonzero coefficients become fractions.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .exactmath import TableRangeError, bernoulli, binomial_rows, factorial, format_rational

# CensusTable (from :mod:`recurrence`) appears only in annotations, which are
# never evaluated here, so `verify tan|bounds` do not load the table code.  The
# name is unbound on purpose: typing.get_type_hints raises NameError on them.

__all__ = [
    "Series1",
    "Series2",
    "tangent_series_bernoulli",
    "ode_comparison_series",
    "scaled_tangent_series",
    "bivariate_generating_series",
    "pde_residual",
]


class Series1:
    """Polynomial truncation of a one-variable series: coefficients 0..order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series1):
            return NotImplemented
        return self.coeffs == other.coeffs


class Series2:
    """Sparse two-variable series; second-variable exponents capped at `v_bound`.

    `v_bound=None` means untruncated.  Zero coefficients and coefficients
    above the bound are dropped on construction.
    """

    __slots__ = ("coeffs", "v_bound")

    def __init__(self, coeffs: dict[tuple[int, int], Fraction], v_bound: int | None = None):
        self.v_bound = v_bound
        self.coeffs = {
            key: Fraction(c)
            for key, c in coeffs.items()
            if c and (v_bound is None or key[1] <= v_bound)
        }

    def coefficient(self, u_exp: int, v_exp: int) -> Fraction:
        return self.coeffs.get((u_exp, v_exp), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series2):
            return NotImplemented
        return self.coeffs == other.coeffs and self.v_bound == other.v_bound

    def lines(self) -> list[str]:
        """Nonzero coefficients as sorted "a b: p/q" lines."""
        return [f"{a} {b}: {format_rational(c)}" for (a, b), c in sorted(self.coeffs.items())]


# ---------------------------------------------------------------------------
# the series the census cares about


def tangent_series_bernoulli(order_index: int) -> Series1:
    """tan's Taylor series through x^(2K+1), coefficients via Bernoulli numbers.

    The coefficient of x^(2k+1) is 2^(2k+2) (2^(2k+2) - 1) |B_(2k+2)| / (2k+2)!.
    """
    if order_index < 0:
        raise ValueError("order_index must be >= 0")
    coeffs = [Fraction(0)] * (2 * order_index + 2)
    for k in range(order_index + 1):
        m = 2 * k + 2
        coeffs[2 * k + 1] = (1 << m) * ((1 << m) - 1) * abs(bernoulli(m)) / factorial(m)
    return Series1(coeffs)


def ode_comparison_series(order_index: int) -> Series1:
    """Coefficientwise solution of du/dt = 1 + u^2/2, u(0) = 0, through t^(2K+1).

    The solution is odd; with u_k the coefficient of t^(2k+1),
    u_0 = 1 and (2k+1) u_k = (1/2) sum_{i+j=k-1} u_i u_j.  The integers
    a_k = 2^k (2k+1)! u_k satisfy a_0 = 1 and
    a_k = sum_{i+j=k-1} binom(2k, 2i+1) a_i a_j, a recurrence without a
    division; each coefficient is then one fraction a_k / (2^k (2k+1)!).
    """
    if order_index < 0:
        raise ValueError("order_index must be >= 0")
    scaled = [1]
    for _, row in zip(range(order_index), binomial_rows(2)):  # row C(2k, .) for k = 1..K
        scaled.append(sum(map(mul, map(mul, row[1::2], scaled), reversed(scaled))))
    coeffs = [Fraction(0)] * (2 * order_index + 2)
    for k, a in enumerate(scaled):
        coeffs[2 * k + 1] = Fraction(a, factorial(2 * k + 1) << k)
    return Series1(coeffs)


def scaled_tangent_series(order_index: int) -> Series1:
    """Series of sqrt(2) tan(t / sqrt(2)): coefficient of t^(2k+1) is T_k / 2^k.

    The square roots cancel on odd powers, so the result is exactly rational.
    """
    tan = tangent_series_bernoulli(order_index)
    coeffs = list(tan.coeffs)
    for k in range(order_index + 1):
        coeffs[2 * k + 1] /= 1 << k
    return Series1(coeffs)


def bivariate_generating_series(table: CensusTable, v_max: int) -> Series2:
    """Two-variable generating series: T(x,y) at exponents (x, x+2y+1).

    Complete for every monomial with second exponent <= v_max, which
    requires weight bound >= v_max - 1.
    """
    if v_max > table.weight_bound + 1:
        raise TableRangeError(
            f"second-exponent bound {v_max} needs weight bound {v_max - 1}"
        )
    coeffs = {}
    for y in range(table.weight_bound // 2 + 1):
        for x in range(table.weight_bound - 2 * y + 1):
            v = x + 2 * y + 1
            if v <= v_max:
                coeffs[(x, v)] = table.entry(x, y)
    return Series2(coeffs, v_bound=v_max)


def _truncated_product(x: dict, y: dict, bound: int | None) -> dict:
    """Product of two integer-coefficient series, second exponents <= bound."""
    rows: dict[int, list[tuple[int, int]]] = {}
    for (a, b), c in y.items():
        rows.setdefault(b, []).append((a, c))
    rows_by_b = sorted(rows.items())
    out: dict[tuple[int, int], int] = {}
    for (a1, b1), c1 in x.items():
        for b2, row in rows_by_b:
            b = b1 + b2
            if bound is not None and b > bound:
                break
            for a2, c2 in row:
                key = (a1 + a2, b)
                out[key] = out.get(key, 0) + c1 * c2
    return out


def pde_residual(series: Series2) -> Series2:
    """Residual of the quasilinear PDE the bivariate series must satisfy.

    Returns dv(s) - (1 + u s + u^2/2) du(s) - (s^2/2 + u s + 1).  Every
    coefficient retained under the resulting bound is computed exactly:
    the input is complete through its bound V, and each retained residual
    coefficient (second exponent <= V-1) only consumes input coefficients
    with second exponent <= V.

    With D the lcm of the input's denominators and s = N/D, N has integer
    coefficients and
        2 D^2 R = 2D dv(N) - (2D + 2uN + D u^2) du(N) - N^2 - 2D u N - 2D^2,
    so the residual takes two truncated products of integer series and one
    fraction per nonzero coefficient.
    """
    bound = None if series.v_bound is None else series.v_bound - 1
    d = lcm(*(c.denominator for c in series.coeffs.values()))
    n = {key: c.numerator * (d // c.denominator) for key, c in series.coeffs.items()}
    du = {(a - 1, b): a * c for (a, b), c in n.items() if a > 0}
    scaled: dict[tuple[int, int], int] = {}  # 2 D^2 times the residual

    def add(a: int, b: int, c: int) -> None:
        if bound is None or b <= bound:
            scaled[(a, b)] = scaled.get((a, b), 0) + c

    add(0, 0, -2 * d * d)
    for (a, b), c in n.items():
        if b > 0:
            add(a, b - 1, 2 * d * b * c)
        add(a + 1, b, -2 * d * c)
    for (a, b), c in du.items():
        add(a, b, -2 * d * c)
        add(a + 2, b, -d * c)
    for (a, b), c in _truncated_product(n, du, bound).items():
        add(a + 1, b, -2 * c)
    for (a, b), c in _truncated_product(n, n, bound).items():
        add(a, b, -c)
    denominator = 2 * d * d
    return Series2({key: Fraction(c, denominator) for key, c in scaled.items() if c}, bound)
