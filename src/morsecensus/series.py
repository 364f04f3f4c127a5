"""Truncated formal power series over exact rationals, in one and two variables.

A one-variable series (Series1) is a dense coefficient tuple with no
operators: the functions below build it, and callers read and compare its
coefficients.  A two-variable series (Series2) is a sparse map keyed by
(first-exponent, second-exponent) with an optional truncation bound on the
second exponent.  Its arithmetic is exact; binary operations truncate to
the smaller bound of the operands.

The census connects to series two ways:

* the tangent expansion written through Bernoulli numbers, against the
  coefficientwise solution of  du/dt = 1 + u^2/2, u(0) = 0  (the same
  function sqrt(2)*tan(t/sqrt(2)), derived by two independent routes),
  which bounds the normalized counts from below coefficient by coefficient;
* the two-variable generating series sum T(x,y) u^x v^(x+2y+1), which must
  annihilate the quasilinear PDE residual
      dv(s) - (1 + u s + u^2/2) du(s) - (s^2/2 + u s + 1).
"""
from __future__ import annotations

from fractions import Fraction

from .exactmath import bernoulli, factorial
from .recurrence import CensusTable, TableRangeError

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

    `v_bound=None` means untruncated (polynomials, monomials).  Binary
    operations keep the smaller bound; coefficients above it are discarded
    as truncation noise.
    """

    __slots__ = ("coeffs", "v_bound")

    def __init__(self, coeffs: dict[tuple[int, int], Fraction], v_bound: int | None = None):
        self.v_bound = v_bound
        self.coeffs = {
            key: Fraction(c)
            for key, c in coeffs.items()
            if c and (v_bound is None or key[1] <= v_bound)
        }

    @staticmethod
    def monomial(coeff, u_exp: int = 0, v_exp: int = 0) -> "Series2":
        return Series2({(u_exp, v_exp): Fraction(coeff)})

    @staticmethod
    def _merge_bound(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def coefficient(self, u_exp: int, v_exp: int) -> Fraction:
        return self.coeffs.get((u_exp, v_exp), Fraction(0))

    def __add__(self, other: "Series2") -> "Series2":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + c
        return Series2(out, self._merge_bound(self.v_bound, other.v_bound))

    def __sub__(self, other: "Series2") -> "Series2":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) - c
        return Series2(out, self._merge_bound(self.v_bound, other.v_bound))

    def __mul__(self, other: "Series2") -> "Series2":
        bound = self._merge_bound(self.v_bound, other.v_bound)
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                b = b1 + b2
                if bound is not None and b > bound:
                    continue
                key = (a1 + a2, b)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return Series2(out, bound)

    def derivative_u(self) -> "Series2":
        return Series2(
            {(a - 1, b): a * c for (a, b), c in self.coeffs.items() if a > 0},
            self.v_bound,
        )

    def derivative_v(self) -> "Series2":
        # coefficients at second-exponent b come from b+1, so the bound drops by one
        bound = None if self.v_bound is None else self.v_bound - 1
        return Series2(
            {(a, b - 1): b * c for (a, b), c in self.coeffs.items() if b > 0},
            bound,
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series2):
            return NotImplemented
        return self.coeffs == other.coeffs and self.v_bound == other.v_bound

    def lines(self) -> list[str]:
        """Nonzero coefficients as sorted "a b: p/q" lines."""
        from .exactmath import format_rational

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
    u_0 = 1 and (2k+1) u_k = (1/2) sum_{i+j=k-1} u_i u_j.
    """
    if order_index < 0:
        raise ValueError("order_index must be >= 0")
    odd = [Fraction(1)]
    for k in range(1, order_index + 1):
        s = sum(odd[i] * odd[k - 1 - i] for i in range(k))
        odd.append(s / (2 * (2 * k + 1)))
    coeffs = [Fraction(0)] * (2 * order_index + 2)
    for k, c in enumerate(odd):
        coeffs[2 * k + 1] = c
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


def pde_residual(series: Series2) -> Series2:
    """Residual of the quasilinear PDE the bivariate series must satisfy.

    Returns dv(s) - (1 + u s + u^2/2) du(s) - (s^2/2 + u s + 1).  Every
    coefficient retained under the resulting bound is computed exactly:
    the input is complete through its bound V, and each retained residual
    coefficient (second exponent <= V-1) only consumes input coefficients
    with second exponent <= V.
    """
    one = Series2.monomial(1)
    u = Series2.monomial(1, u_exp=1)
    half_u_sq = Series2.monomial(Fraction(1, 2), u_exp=2)
    half = Series2.monomial(Fraction(1, 2))
    transport = one + u * series + half_u_sq
    source = half * series * series + u * series + one
    return series.derivative_v() - transport * series.derivative_u() - source
