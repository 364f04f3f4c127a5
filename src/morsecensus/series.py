"""Exact series in one and two variables, as plain data.

The census connects to series two ways:

* the lower bound: the series of sqrt(2) tan(t/sqrt(2)), the solution of
  du/dt = 1 + u^2/2, u(0) = 0, bounds the normalized counts from below
  coefficient by coefficient.  With u_k the coefficient of t^(2k+1), the
  scaled coefficients a_k = 2^k (2k+1)! u_k are the tangent numbers
  2^(2k+2) (2^(2k+2) - 1) |B_(2k+2)| / (2k+2), which are integers.  Two
  independent routes compute them as lists of ints indexed by k, both by
  integer sums alone: Seidel's boustrophedon (the Euler-Bernoulli
  triangle), and the ODE's recurrence.  `verify tan` compares the two
  lists, and `verify bounds` tests h(n) >= u_n as g(n) 2^n >= a_n;
* the two-variable generating series s = sum T(x,y) u^x v^(x+2y+1), which
  must annihilate the quasilinear PDE residual
      dv(s) - (1 + u s + u^2/2) du(s) - (s^2/2 + u s + 1),
  the conservation law dv(s) = du(Phi) with flux
  Phi = u + s + (u/2) s^2 + (u^2/2) s.  With u = sqrt(2) U, v = sqrt(2) V
  and s = sqrt(2) sigma it is R = dV(sigma) - dU(Psi) = 0, with
  Psi = U + sigma + U sigma^2 + U^2 sigma.  Read as a Hurwitz series in V
  (Keigher, Comm. Algebra 25, 1997), sigma's coefficient of U^x V^k / k!
  at k = x+2y+1 is the table's integer S'(x,y) = 2^(x+y) k! T(x,y).  dV
  shifts a Hurwitz series and the Hurwitz square weights its term
  (b1, b2) by binom(b1+b2, b1), so R has no denominator.  R at
  (x, x+2y) is S'(x,y) minus the right-hand side of the S' recurrence of
  :mod:`recurrence` (1 at the seed S'(0,0)): `verify pde` holds the
  table's evaluate-and-interpolate fill to the direct convolution.

A two-variable series (Series2) is a sparse map keyed by (first-exponent,
second-exponent) with a truncation bound on the second exponent.  The
generating series holds sigma's integers, at keys (a, b) with a + b odd;
the residual holds R(a,b) / (b! 2^((a+b)/2)), its coefficient of u^a v^b.
"""
from __future__ import annotations

from collections import defaultdict, namedtuple
from itertools import accumulate
from math import comb
from operator import mul

from .exactmath import binomial_rows, factorial

# CensusTable (from :mod:`recurrence`) appears only in annotations, which are
# never evaluated here, so `verify tan|bounds` do not load the table code.  The
# name is unbound on purpose: typing.get_type_hints raises NameError on them.

__all__ = [
    "Series2",
    "ode_comparison_series",
    "scaled_tangent_series",
    "bivariate_generating_series",
    "pde_residual",
]


class Series2(namedtuple("Series2", "coeffs v_bound")):
    """Sparse two-variable series: a dict {(u_exp, v_exp): coefficient} and
    the int bound on second-variable exponents it is complete through.

    A tuple (coeffs, v_bound): it compares equal to any tuple with the same
    fields.  The functions below store only nonzero coefficients within the
    bound; a series built by hand may hold others.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# the series the census cares about


def ode_comparison_series(order_index: int) -> list[int]:
    """The integers a_0..a_K of the solution of du/dt = 1 + u^2/2, u(0) = 0.

    The solution is odd; with u_k the coefficient of t^(2k+1),
    u_0 = 1 and (2k+1) u_k = (1/2) sum_{i+j=k-1} u_i u_j.  The integers
    a_k = 2^k (2k+1)! u_k satisfy a_0 = 1 and
    a_k = sum_{i+j=k-1} binom(2k, 2i+1) a_i a_j, a recurrence without a
    division.
    """
    if order_index < 0:
        raise ValueError("order_index must be >= 0")
    scaled = [1]
    for _, row in zip(range(order_index), binomial_rows()):  # row C(2k, .) for k = 1..K
        scaled.append(sum(map(mul, map(mul, row[1::2], scaled), reversed(scaled))))
    return scaled


def scaled_tangent_series(order_index: int) -> list[int]:
    """The integers a_0..a_K of sqrt(2) tan(t / sqrt(2)), by Seidel's boustrophedon.

    tan's coefficient of t^(2k+1) is E_(2k+1) / (2k+1)!, with E_n the
    Euler up/down number, and sqrt(2) tan(t / sqrt(2)) has that over 2^k
    there: the square roots cancel on odd powers.  Scaled by 2^k (2k+1)!,
    a_k is E_(2k+1).  The boustrophedon builds the Euler-Bernoulli triangle
    by additions alone: row 0 is [1], and row n is 0 followed by the running
    sums of row n-1 read backwards.  Row n ends in E_n (Seidel 1877; Millar,
    Sloane and Young, J. Combin. Theory A 76, 1996), so the odd rows
    n = 1..2K+1 end in a_0..a_K; the even rows end in the secant numbers.
    """
    if order_index < 0:
        raise ValueError("order_index must be >= 0")
    row, scaled = [1], []
    for n in range(1, 2 * order_index + 2):
        row = [0, *accumulate(reversed(row))]
        if n % 2:
            scaled.append(row[-1])
    return scaled


def bivariate_generating_series(table: CensusTable) -> Series2:
    """sigma's Hurwitz coefficients: S'(x, y) at (x, x+2y+1), straight from the table.

    Complete for every monomial with second exponent <= weight bound + 1.
    """
    return Series2({(w - 2 * y, w + 1): c
                    for w, level in enumerate(table.levels)
                    for y, c in enumerate(level)}, table.weight_bound + 1)


def pde_residual(series: Series2) -> Series2:
    """Residual of the quasilinear PDE the bivariate series must satisfy.

    `series` holds sigma's integers (keys (a, b) with a + b odd).  Returns
    the coefficients of u^a v^b in dv(s) - (1 + u s + u^2/2) du(s) -
    (s^2/2 + u s + 1), from R = dV(sigma) - dU(Psi) on ints: one truncated
    Hurwitz square, and one fraction per nonzero coefficient.  Every
    coefficient retained under the resulting bound is exact: the input is
    complete through its bound V, and each retained residual coefficient
    (second exponent <= V-1) only consumes input coefficients with second
    exponent <= V.
    """
    from fractions import Fraction

    bound = series.v_bound - 1
    rows, residual = defaultdict(list), defaultdict(int)
    flux = defaultdict(int, {(1, 0): 1})  # Psi = U + sigma + U^2 sigma + U sigma^2
    for (a, b), c in series.coeffs.items():
        rows[b].append((a, c))
        flux[(a, b)] += c
        flux[(a + 2, b)] += c
        if b:
            residual[(a, b - 1)] += c  # dV shifts a Hurwitz series
    for b1, row1 in rows.items():
        for b2, row2 in rows.items():
            if b1 + b2 <= bound:
                weight = comb(b1 + b2, b1)  # the Hurwitz product's
                for a1, c1 in row1:
                    c1 *= weight
                    for a2, c2 in row2:
                        flux[(a1 + a2 + 1, b1 + b2)] += c1 * c2
    for (a, b), c in flux.items():
        residual[(a - 1, b)] -= a * c  # dU; a = 0 adds zeros, dropped below
    # the flux's terms linear in sigma reach second exponent V, past the bound
    return Series2({(a, b): Fraction(c, factorial(b) << ((a + b) // 2))
                    for (a, b), c in residual.items() if c and b <= bound}, bound)
