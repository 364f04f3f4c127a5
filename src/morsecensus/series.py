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
* the two-variable generating series sum T(x,y) u^x v^(x+2y+1), which must
  annihilate the quasilinear PDE residual
      dv(s) - (1 + u s + u^2/2) du(s) - (s^2/2 + u s + 1),
  the conservation law dv(s) = du(Phi) with flux
  Phi = u + s + (u/2) s^2 + (u^2/2) s.
  A two-variable series (Series2) is a sparse map keyed by
  (first-exponent, second-exponent) with a truncation bound on the second
  exponent.  With s = N/D over the lcm D of its denominators, the residual
  R is computed as the integer series
      2 D^2 R = 2D dv(N) - du(2D^2 u + 2D N + D u^2 N + u N^2),
  and only its nonzero coefficients become fractions.
"""
from __future__ import annotations

from collections import defaultdict, namedtuple
from itertools import accumulate
from math import lcm
from operator import mul

from .exactmath import TableRangeError, binomial_rows

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
    return Series2(coeffs, v_max)


def _truncated_product(x: dict, y: dict, bound: int) -> dict:
    """Product of two integer-coefficient series, second exponents <= bound."""
    rows: dict[int, list[tuple[int, int]]] = {}
    for (a, b), c in y.items():
        rows.setdefault(b, []).append((a, c))
    rows_by_b = sorted(rows.items())
    out: dict[tuple[int, int], int] = {}
    for (a1, b1), c1 in x.items():
        for b2, row in rows_by_b:
            b = b1 + b2
            if b > bound:
                break
            for a2, c2 in row:
                key = (a1 + a2, b)
                out[key] = out.get(key, 0) + c1 * c2
    return out


def pde_residual(series: Series2) -> Series2:
    """Residual of the quasilinear PDE the bivariate series must satisfy.

    Returns dv(s) - (1 + u s + u^2/2) du(s) - (s^2/2 + u s + 1), which is
    the conservation form dv(s) - du(Phi) with the flux
    Phi = u + s + (u/2) s^2 + (u^2/2) s.  Every coefficient retained under
    the resulting bound is computed exactly: the input is complete through
    its bound V, and each retained residual coefficient (second exponent
    <= V-1) only consumes input coefficients with second exponent <= V.

    With D the lcm of the input's denominators and s = N/D, N has integer
    coefficients and
        2 D^2 R = 2D dv(N) - du(2D^2 u + 2D N + D u^2 N + u N^2),
    so the residual takes one integer flux, one truncated product (N^2)
    and one fraction per nonzero coefficient.
    """
    from fractions import Fraction

    bound = series.v_bound - 1
    d = lcm(*(c.denominator for c in series.coeffs.values()))
    n = {key: c.numerator * (d // c.denominator) for key, c in series.coeffs.items()}
    flux = defaultdict(int, {(1, 0): 2 * d * d})  # 2 D^2 Phi
    for (a, b), c in n.items():
        flux[(a, b)] += 2 * d * c
        flux[(a + 2, b)] += d * c
    for (a, b), c in _truncated_product(n, n, bound).items():
        flux[(a + 1, b)] += c
    scaled = defaultdict(int, {(a - 1, b): -a * c for (a, b), c in flux.items() if a})  # 2 D^2 R
    for (a, b), c in n.items():
        if b:
            scaled[(a, b - 1)] += 2 * d * b * c
    # the flux's terms linear in N reach second exponent V, past the bound
    denominator = 2 * d * d
    return Series2({(a, b): Fraction(c, denominator)
                    for (a, b), c in scaled.items() if c and b <= bound}, bound)
