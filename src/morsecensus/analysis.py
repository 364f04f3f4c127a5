"""Numerical asymptotics of the census.

The functions take the counts g(0), g(1), ... as a list of ints (see
:func:`series.morse_counts`) and read h(n) = g(n)/(2n+1)! from them.
All logarithms are natural.  High-precision values are `decimal.Decimal`s
at one working precision, ROW_DIGITS significant digits, with (1/2) ln 2 pi
a constant of 64 digits; exact comparisons stay in integers/rationals and
never pass through floating point.  This module is the package's only user
of `decimal`.

The functions return numbers; the one text they make is
:func:`format_real`'s, and the CLI writes the rows.  The CLI imports this
module for `table` and `verify elliptic` only.  `decimal` and `fractions`
are imported inside the functions that compute with them, so `verify
elliptic`, which runs the plain-float :func:`series_argument` and
:func:`series_value`, loads neither, and only :func:`fit_residual_model`
loads `fractions`.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

# `Decimal` and `Fraction` in annotations are unbound here (see the
# module docstring): they name the types for readers only, and get_type_hints fails.

__all__ = [
    "AsymptoticRow",
    "asymptotic_row",
    "series_argument",
    "series_value",
    "fit_residual_model",
    "format_real",
    "SUPPORTED_ARGUMENT_RANGE",
    "ARGUMENT_TOLERANCE",
    "ROW_DIGITS",
]

# the working precision of asymptotic_row, in digits (about 200 bits): the
# rows print 9, and those come out the same at every working precision from
# 64 to 2048 bits (checked for n <= 400)
ROW_DIGITS = 60

# (1/2) ln(2 pi) rounded to 64 significant digits, past ROW_DIGITS; a str, so
# that the module loads no `decimal` until asymptotic_row reads it
_HALF_LOG_TWO_PI = "0.9189385332046727417803297364056176398613974736377834128171515405"

# targets series_argument accepts; its radicand is positive for every target
# (see there), and up to here one Gauss-Kronrod rule suffices (error estimate
# 3.3e-17 at 0.3) and the argument stays inside the series' radius >= 1/2
SUPPORTED_ARGUMENT_RANGE = 0.3
# the Gauss-Kronrod error estimate series_argument accepts
ARGUMENT_TOLERANCE = 1e-12


class AsymptoticRow(namedtuple("AsymptoticRow", "n log_h delta delta_over_n")):
    """One row of the finite-size correction table: the int n and the
    Decimals log_h, delta and delta_over_n.

    A tuple of those four fields: it unpacks and indexes as one, and
    compares equal to any tuple with the same values.
    """

    __slots__ = ()


def asymptotic_row(counts: Sequence[int], n: int) -> AsymptoticRow:
    """Stirling residual of the normalized count at index n.

    delta = log h - 2n (1 + log(n/(2n+1))) + (3/2) log(2n+1) - 1
            + (1/2) log(2 pi),

    the finite-n remainder left after subtracting the Stirling-predicted
    main terms from log h; its /n column is the quantity tabulated by the
    asymptotic experiments.  log h is ln g(n) - ln (2n+1)! of the exact
    integers, so the huge terms of h lose no accuracy.  counts[n] must be
    at least 1, as every count that morse_counts returns is.
    """
    from decimal import Context, Decimal, localcontext

    if not 1 <= n < len(counts):
        raise ValueError(f"asymptotic rows need 1 <= n <= {len(counts) - 1}; got n={n}")
    with localcontext(Context(prec=ROW_DIGITS)):
        log_h = Decimal(counts[n]).ln() - Decimal(math.factorial(2 * n + 1)).ln()
        m = Decimal(2 * n + 1)
        delta = (log_h - 2 * n * (1 + (n / m).ln()) + Decimal(3) / 2 * m.ln() - 1
                 + Decimal(_HALF_LOG_TWO_PI))
        return AsymptoticRow(n, log_h, delta, delta / n)


# ---------------------------------------------------------------------------
# elliptic inversion of the one-variable generating series


# QUADPACK's dqk21 (Piessens et al., QUADPACK, Springer 1983): abscissae of
# the 21-point Kronrod rule on [-1, 1], largest first and the centre last;
# those at odd positions (1-based even) are the 10-point Gauss abscissae.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208645199836,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def series_argument(target: float) -> float:
    """Argument at which the generating series attains `target`, by quadrature.

    Inverts the series through the elliptic integral
        argument = integral_0^target dt / sqrt(t^4/4 - t^2 + 2*target*t + 1)
    with one 21-point Gauss-Kronrod rule on [0, target], summed in the order
    of QUADPACK's dqk21.  The integrand is smooth there, so one rule is
    enough: if the Gauss-Kronrod difference |resk - resg| * h exceeds
    ARGUMENT_TOLERANCE, ValueError is raised rather than subdividing.  The radicand needs no
    check: on [0, target], 2*target*t >= 2*t^2, so it is at least
    t^4/4 + t^2 + 1 > 0.
    """
    if not 0 <= target <= SUPPORTED_ARGUMENT_RANGE:
        raise ValueError(
            f"target {target} outside the supported range [0, {SUPPORTED_ARGUMENT_RANGE}]"
        )

    def f(t: float) -> float:
        return 1.0 / math.sqrt(t**4 / 4 - t**2 + 2 * target * t + 1)

    centre = 0.5 * target
    h = 0.5 * target
    resg = 0.0
    resk = _WGK[10] * f(centre)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # Gauss abscissae first, as dqk21
        offset = h * _XGK[j]
        pair_sum = f(centre - offset) + f(centre + offset)
        if j % 2:
            resg += _WG[j // 2] * pair_sum
        resk += _WGK[j] * pair_sum
    error = abs((resk - resg) * h)
    if error > ARGUMENT_TOLERANCE:
        raise ValueError(f"Gauss-Kronrod error estimate {error:.3e} exceeds tol "
                         f"{ARGUMENT_TOLERANCE:.3e} at target {target}")
    return resk * h


def series_value(counts: Sequence[int], argument: float) -> float:
    """Evaluate sum_n h(n) * argument^(2n+1) over the given counts, in double
    precision.  Each h(n) is an int true division, which CPython rounds
    correctly.
    """
    acc = 0.0
    sq = argument * argument
    for n in reversed(range(len(counts))):
        acc = acc * sq + counts[n] / math.factorial(2 * n + 1)
    return acc * argument


# ---------------------------------------------------------------------------
# heuristic residual fit


def fit_residual_model(rows: Sequence[AsymptoticRow]) -> tuple[float, float, float]:
    """Ordinary least squares of delta against a*n + b*log(n) + c on the
    double-precision data: the normal equations of the floats n, log(n), 1
    and delta, solved exactly in fractions by Cramer's rule.

    Heuristic only: the model is suggested by the data, no error bars are
    claimed.  Needs at least 4 rows with distinct n.
    """
    from fractions import Fraction

    ns = sorted({row.n for row in rows})
    if len(ns) < 4:
        raise ValueError(f"fit needs at least 4 distinct indices, got {len(ns)}")
    design = [(row.n, Fraction(math.log(row.n)), 1, Fraction(float(row.delta))) for row in rows]
    normal = [[sum(x[i] * x[j] for x in design) for j in range(4)] for i in range(3)]

    def det(*cols: int) -> Fraction:  # of 3 columns of `normal`; column 3 is the rhs
        (a, b, c), (d, e, f), (g, h, i) = ([row[j] for j in cols] for row in normal)
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return tuple(float(det(*cols) / det(0, 1, 2)) for cols in ((3, 1, 2), (0, 3, 2), (0, 1, 3)))


# ---------------------------------------------------------------------------
# formatting


def format_real(x: Decimal) -> str:
    """Real number at the 9 significant digits used by all CLI output, as
    mpmath.nstr writes it: rounded half away from zero, fixed notation for
    exponents -4..8, trailing zeros stripped to one digit after the point."""
    from decimal import ROUND_HALF_UP, Context

    x = Context(prec=9, rounding=ROUND_HALF_UP).plus(x)
    mantissa, e, exponent = format(x, "f" if -5 < x.adjusted() < 9 else "e").partition("e")
    whole, _, fraction = mantissa.partition(".")
    return f"{whole}.{fraction.rstrip('0') or '0'}{e}{exponent}"
