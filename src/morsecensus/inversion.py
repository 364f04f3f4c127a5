"""Class counts g(n) from the inverse of the elliptic integral, on integers,
and the exact bounds they are checked against.

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

Multiply by 8(k+1).  With D = x d/dx, which multiplies f_k x^k by k, the
left side is the coefficient of x^(k+1) in 8 D(2D-1)(2D+1) F, and the
right side that of -3x (D+1)(3D+2)(3D+4) F; the left operator also kills
the constant term.  Expanding both, with E_j = D^j F:

    32 E_3 - 8 E_1 = -3x (9 E_3 + 27 E_2 + 26 E_1 + 8 E_0).

The scheme.  Put x = y(theta)^2 and read E_j at it, as series in theta.
The inverse function and the chain rule (d/dtheta G(y^2) = 2 y y' G'(y^2),
and x G'(x) = DG) give

    y' E_0 = 1,    y E_j' = 2 y' E_{j+1}   (j = 0, 1, 2),

and the ODE above closes the system.  On integers: Y_m = m! [theta^m] y,
so Y_(2n+1) = g(n), and A_(j,m), X_m likewise for E_j and x.  A product of
series becomes the binomial convolution (PQ)_m = sum_i C(m,i) P_i Q_(m-i),
and a derivative the shift (P')_m = P_(m+1).  y is odd and x and E_j are
even, so only the even m = 2k carry values, and only their steps run.
Step m reads everything below m and yields, with Y_1 = 1, A_(0,0) = 1 and
A_(j,0) = 0 for j >= 1:

    X_m     = sum_i C(m,i) Y_i Y_(m-i)                          (x = y^2)
    r_j     = sum_{0<i<m} Y_(m+1-i) (2 C(m,i) A_(j+1,i) - C(m,i-1) A_(j,i))
    r_3     = -sum_{0<i<=m} C(m,i) X_i B_(m-i),   B = 27 A_3 + 81 A_2 + 78 A_1 + 24 A_0

so that m A_(j,m) - 2 A_(j+1,m) = r_j for j = 0, 1, 2 and
32 A_(3,m) - 8 A_(1,m) = r_3.  Eliminating A_2 and A_3:

    A_(1,m) = (r_3 + 8m r_1 + 16 r_2) / (8(m^2 - 1))
    A_(0,m) = (r_0 + 2 A_(1,m)) / m
    A_(2,m) = (m A_(1,m) - r_1) / 2,    A_(3,m) = (m A_(2,m) - r_2) / 2

and then, from y' E_0 = 1 and with no division,

    Y_(m+1) = -sum_{i<m} C(m,i) Y_(i+1) A_(0,m-i).

That every A_(j,m) is an integer has been observed (to m = 2000), not
proven, so each division is checked and a remainder raises
ConsistencyError.  Step m = 2k costs about 6k products of big integers,
so g(0..N) takes about 3N^2 of them, against about W^3/12 for the table
of weight W = 2N.
"""
from __future__ import annotations

from math import comb
from operator import mul

from .exactmath import ConsistencyError, catalan, factorial

__all__ = ["morse_counts", "check_upper_bound", "check_conjecture"]


def _exact(num: int, den: int, what: str, m: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ConsistencyError(f"{what} at step {m} leaves remainder {r} on division by {den}")
    return q


def morse_counts(max_n: int) -> list[int]:
    """[g(0), ..., g(max_n)]: the number of Morse classes with 2n+2 critical points.

    Lists are indexed by k for the step m = 2k: g[k] = Y_(2k+1), x[k] = X_(2k),
    a[j][k] = A_(j,2k) and b[k] = B_(2k), in the notation of the module docstring.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    g, x, b = [1], [0], [24]
    a = [[1], [0], [0], [0]]
    for k in range(1, max_n + 1):
        m = 2 * k
        row = [comb(m, i) for i in range(m + 1)]
        even, odd = row[0::2], row[1::2]  # C(m, 2i), C(m, 2i + 1)
        x.append(sum(map(mul, map(mul, odd, g), reversed(g))))
        back = g[k - 1:0:-1]  # Y_(m+1-2i) = g[k-i] for i = 1..k-1
        r = [sum(map(mul, back, (2 * c * hi - d * lo for c, d, hi, lo
                                 in zip(even[1:k], odd, a[j + 1][1:], a[j][1:]))))
             for j in range(3)]
        r.append(-sum(map(mul, map(mul, even[1:], x[1:]), reversed(b))))
        a1 = _exact(r[3] + 8 * m * r[1] + 16 * r[2], 8 * (m * m - 1), "A_1", m)
        a0 = _exact(r[0] + 2 * a1, m, "A_0", m)
        a2 = _exact(m * a1 - r[1], 2, "A_2", m)
        a3 = _exact(m * a2 - r[2], 2, "A_3", m)
        for col, value in zip(a, (a0, a1, a2, a3)):
            col.append(value)
        b.append(27 * a3 + 81 * a2 + 78 * a1 + 24 * a0)
        g.append(-sum(map(mul, map(mul, even[:k], g), reversed(a[0][1:]))))
    return g


def check_upper_bound(n: int, g: int) -> bool:
    """h(n) <= Catalan(n) and the estimate g (n+1) <= 4^n (2n+1)!, for the
    count g = g(n), on integers.

    The second comparison is weaker, not sharper: it follows from the first,
    as Catalan(n) (n+1) = C(2n, n) <= 4^n.  The `verify bounds` output still
    names it the "sharper upper estimate".
    """
    scale = factorial(2 * n + 1)
    return g <= catalan(n) * scale and g * (n + 1) <= (scale << (2 * n))


def check_conjecture(n: int, g: int) -> bool:
    """The conjectured strict bound g(n) < (2n+1)!, i.e. h(n) < 1, for n >= 1."""
    if n < 1:
        raise ValueError("the conjecture is tested for n >= 1 (equality holds at n=0)")
    return g < factorial(2 * n + 1)
