"""Exact series in one and two variables, as plain data.

The census connects to series three ways:

* the counts: the census series y(theta) = sum_n h(n) theta^(2n+1), with
  h(n) = g(n)/(2n+1)!, is the inverse function of an elliptic integral,
  and :func:`morse_counts` computes g(0..N) from it on integers (derived
  below, from "The counts.");
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

The counts.  The census series y(theta) is the inverse function of

    theta(y) = integral_0^y (t^4/4 - t^2 + 2yt + 1)^(-1/2) dt = y Phi(y^2),
    Phi(u)   = integral_0^1 (1 + u(2s - s^2) + u^2 s^4/4)^(-1/2) ds   (t = ys),

the inversion that `verify elliptic` checks in floating point.  Phi has
the hypergeometric coefficients

    Phi(u) = sum_k c_k u^k,   c_0 = 1,   c_{k+1}/c_k = -(3/8)(3k+2)(3k+4)/(2k+3)^2,

which the tests hold to the integral's Taylor coefficients for k <= 20 and,
through the counts, to the two-parameter table of :mod:`recurrence`.

F's ODE.  theta'(y) = F(y^2) with F(x) = sum_k f_k x^k, f_k = (2k+1) c_k, so

    (2k+1)(2k+3) f_{k+1} = -(3/8)(3k+2)(3k+4) f_k.

Multiply by 8 (8(k+1) would give the ODE below with D applied, of order 3).
With D = x d/dx, which multiplies f_k x^k by k, the sides are the
coefficients of x^(k+1) in 8 (2D-1)(2D+1) F and -3x (3D+2)(3D+4) F, and
at x^0 the left operator leaves -8 f_0 = -8.  With E_j = D^j F:

    32 E_2 - 8 E_0 + x (27 E_2 + 54 E_1 + 24 E_0) = -8.

The scheme.  Put x = y(theta)^2 and read E_j at it, as series in theta.
The inverse function and the chain rule (d/dtheta G(y^2) = 2 y y' G'(y^2),
and x G'(x) = DG) give y' E_0 = 1 and y E_j' = 2 y' E_(j+1).  The scheme
carries B_0 = A_0 = E_0, B_1 = 2 E_1 and B_2 = 4 E_2, for which

    y' B_0 = 1,    y B_j' = y' B_(j+1)   (j = 0, 1),

and 4 times the ODE above, 32 B_2 - 32 B_0 + x G~ = -32 with
G~ = 27 B_2 + 108 B_1 + 96 B_0, closes the system.  On integers:
Y_m = m! [theta^m] y, so Y_(2n+1) = g(n), and B_(j,m), X_m likewise for
B_j and x.  A product of series becomes the binomial convolution
(PQ)_m = sum_i C(m,i) P_i Q_(m-i), and a derivative the shift
(P')_m = P_(m+1).  y is odd and x and B_j are even, so only the even
m = 2k carry values, and only their steps run.  Step m reads everything
below m and yields, with Y_1 = 1, B_(0,0) = 1 and B_(j,0) = 0 for j >= 1:

    X_m = sum_i C(m,i) Y_i Y_(m-i)                          (x = y^2)
    r_j = sum_{0<i<m} Y_(m+1-i) (C(m,i) B_(j+1,i) - C(m,i-1) B_(j,i))
    r_2 = -sum_{0<i<=m} C(m,i) X_i G~_(m-i)

so that m B_(j,m) - B_(j+1,m) = r_j for j = 0, 1, and
32 B_(2,m) - 32 B_(0,m) = r_2 for m > 0 (at m = 0 the initial values
satisfy the -32).  Eliminating B_1 and B_2:

    B_(0,m) = (r_2 + 32 (m r_0 + r_1)) / (32 (m^2 - 1))
    B_(1,m) = m B_(0,m) - r_0,    B_(2,m) = m B_(1,m) - r_1

and then, from y' B_0 = 1 and with no division,

    Y_(m+1) = -sum_{i<m} C(m,i) Y_(i+1) B_(0,m-i).

Integrality.  The step's one division is exact.  Series whose
coefficients P_m = m! [theta^m] P are integers form a ring, the Hurwitz
ring: the binomial convolution and the shift keep integers.  A series P
of it with P_0 = 1 has an inverse Q in it, as Q_0 = 1 and
Q_m = -sum_{0<i<=m} C(m,i) P_i Q_(m-i).  Each g(n) counts classes, so y
is in the ring, and so is y', whose constant term is Y_1 = 1: B_0 = 1/y'
is integral, so the division that yields B_(0,m) is exact.  B_(1,m) and
B_(2,m) are integer combinations by construction.  The division is still checked, as
a guard against a bug, and a remainder raises ConsistencyError.

Cost.  X_m is the odd-binomial square that also gives the tangent
numbers a_k (:func:`_odd_square`): its terms i and m-i are equal, as
C(m, i) = C(m, m-i), so only half of them are summed, and the binomial
row C(m, .) comes from the row of m-2 by two steps of Pascal's rule.
Step m = 2k then sums about 4.5k products of big integers, so g(0..N)
takes about 2.25N^2 of them, against about W^3/12 for the table of
weight W = 2N.
"""
from __future__ import annotations

from collections import defaultdict, namedtuple
from itertools import accumulate
from math import comb, factorial
from operator import add, mul

from . import ConsistencyError

# CensusTable (from :mod:`recurrence`) appears only in annotations, which are
# never evaluated here, so the commands that count do not load the table code.
# The name is unbound on purpose: typing.get_type_hints raises NameError on them.

__all__ = [
    "Series2",
    "morse_counts",
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


def _binomial_rows():
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


def _odd_square(odd: list[int], s: list[int]) -> int:
    """sum_{i<k} C(2k, 2i+1) s_i s_(k-1-i), for odd = [C(2k, 1), C(2k, 3), ...]
    and s = [s_0, ..., s_(k-1)].

    The terms i and k-1-i are equal, so the half i < k//2 is summed and
    doubled, and the middle term i = k-1-i added when k is odd.
    """
    k = len(s)
    half = k // 2
    total = 2 * sum(map(mul, map(mul, odd[:half], s), reversed(s[k - half:])))
    if k % 2:
        total += odd[half] * s[half] ** 2
    return total


# ---------------------------------------------------------------------------
# the series the census cares about


def morse_counts(max_n: int) -> list[int]:
    """[g(0), ..., g(max_n)]: the number of Morse classes with 2n+2 critical points.

    Lists are indexed by k for the step m = 2k: g[k] = Y_(2k+1), x[k] = X_(2k),
    b[j][k] = B_(j,2k) and G[k] = G~_(2k), in the notation of the module docstring.
    Every n has a Morse function with 2n+2 critical points, so every g(n) is at
    least 1: a smaller count is a bug in the loop and raises ConsistencyError.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    g, x, G = [1], [0], [96]
    b = [[1], [0], [0]]
    for k, row in zip(range(1, max_n + 1), _binomial_rows()):
        m = 2 * k
        even, odd = row[0::2], row[1::2]  # C(m, 2i), C(m, 2i + 1)
        x.append(_odd_square(odd, g))  # X_m = sum_i C(m, 2i+1) g[i] g[k-1-i]
        back = g[k - 1:0:-1]  # Y_(m+1-2i) = g[k-i] for i = 1..k-1
        r0, r1 = (sum(map(mul, back, (c * hi - d * lo for c, d, hi, lo
                                      in zip(even[1:k], odd, b[j + 1][1:], b[j][1:]))))
                  for j in range(2))
        r2 = -sum(map(mul, map(mul, even[1:], x[1:]), reversed(G)))
        den = 32 * (m * m - 1)
        b0, rem = divmod(r2 + 32 * (m * r0 + r1), den)
        if rem:
            raise ConsistencyError(f"A_0 at step {m} leaves remainder {rem} on division by {den}")
        b1 = m * b0 - r0
        b2 = m * b1 - r1
        for col, value in zip(b, (b0, b1, b2)):
            col.append(value)
        G.append(27 * b2 + 108 * b1 + 96 * b0)
        g.append(-sum(map(mul, map(mul, even[:k], g), reversed(b[0][1:]))))
        if g[k] < 1:
            raise ConsistencyError(f"g({k}) = {g[k]}, but every count is at least 1")
    return g


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
    for _, row in zip(range(order_index), _binomial_rows()):  # row C(2k, .) for k = 1..K
        scaled.append(_odd_square(row[1::2], scaled))
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
