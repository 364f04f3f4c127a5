"""Class counts g(n) from the inverse of the elliptic integral, on integers.

The census series y(theta) = sum_n h(n) theta^(2n+1), h(n) = g(n)/(2n+1)!,
is the inverse function of

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

Cost.  The terms i and m-i of X_m are equal, as C(m, i) = C(m, m-i), so
only half of them are summed, and the binomial row C(m, .) comes from the
row of m-2 by two steps of Pascal's rule.  Step m = 2k then sums about
4.5k products of big integers, so g(0..N) takes about 2.25N^2 of them,
against about W^3/12 for the table of weight W = 2N.
"""
from __future__ import annotations

from operator import mul

from . import ConsistencyError
from .exactmath import binomial_rows

__all__ = ["morse_counts"]


def morse_counts(max_n: int) -> list[int]:
    """[g(0), ..., g(max_n)]: the number of Morse classes with 2n+2 critical points.

    Lists are indexed by k for the step m = 2k: g[k] = Y_(2k+1), x[k] = X_(2k),
    b[j][k] = B_(j,2k) and G[k] = G~_(2k), in the notation of the module docstring.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    g, x, G = [1], [0], [96]
    b = [[1], [0], [0]]
    for k, row in zip(range(1, max_n + 1), binomial_rows()):
        m = 2 * k
        even, odd = row[0::2], row[1::2]  # C(m, 2i), C(m, 2i + 1)
        # X_m = sum_i C(m, 2i+1) g[i] g[k-1-i], whose terms i and k-1-i are equal
        half = k // 2
        x_m = 2 * sum(map(mul, map(mul, odd[:half], g), reversed(g[k - half:])))
        if k % 2:  # the middle term, i = k-1-i
            x_m += odd[half] * g[half] ** 2
        x.append(x_m)
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
    return g
