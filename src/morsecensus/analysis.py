"""Numerical asymptotics of the census.

The functions take the counts g(0), g(1), ... as a list of ints (see
:func:`inversion.morse_counts`) and read h(n) = g(n)/(2n+1)! from them.
All logarithms are natural.  High-precision values are mpmath floats
computed at an explicit precision (default 128 bits, guard bits included
by the exactmath helpers); exact comparisons stay in integers/rationals
and never pass through floating point.

The CLI imports this module for `table` and `verify elliptic` only.
mpmath is imported inside each function that computes with it, and `json`
inside :func:`rows_to_json`, so `verify elliptic`, which runs the
plain-float :func:`series_argument` and :func:`series_value`, never loads
mpmath: `table` is the one command that does.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .exactmath import (GUARD_BITS, TableRangeError, bernoulli, factorial, format_rational,
                        log_rational)

# `mpmath.mpf` in annotations is unbound here, like mpmath itself (see the
# module docstring), so typing.get_type_hints raises NameError on those
# functions: the annotations name the result type for readers only.

__all__ = [
    "AsymptoticRow",
    "asymptotic_row",
    "growth_ratio",
    "bernoulli_growth_ratio",
    "series_argument",
    "series_value",
    "fit_residual_model",
    "rows_to_csv",
    "rows_to_json",
    "format_real",
    "SUPPORTED_ARGUMENT_RANGE",
]

# targets series_argument accepts; its radicand is positive for every target
# (see there), and up to here one Gauss-Kronrod rule suffices (error estimate
# 3.3e-17 at 0.3) and the argument stays inside the series' radius >= 1/2
SUPPORTED_ARGUMENT_RANGE = 0.3


class AsymptoticRow(namedtuple("AsymptoticRow", "n h log_h delta delta_over_n")):
    """One row of the finite-size correction table: the int n, the Fraction h
    and the mpmath floats log_h, delta and delta_over_n.

    A tuple of those five fields: it unpacks and indexes as one, and
    compares equal to any tuple with the same values.
    """

    __slots__ = ()


def _normalized(counts: Sequence[int], n: int) -> Fraction:
    """h(n) = g(n) / (2n+1)!."""
    if not 0 <= n < len(counts):
        raise TableRangeError(f"n={n} outside the counts g(0..{len(counts) - 1})")
    return Fraction(counts[n], factorial(2 * n + 1))


def asymptotic_row(counts: Sequence[int], n: int, precision: int = 128) -> AsymptoticRow:
    """Stirling residual of the normalized count at index n.

    delta = log h - 2n (1 + log(n/(2n+1))) + (3/2) log(2n+1) - 1
            + (1/2) log(2 pi),

    the finite-n remainder left after subtracting the Stirling-predicted
    main terms from log h; its /n column is the quantity tabulated by the
    asymptotic experiments.
    """
    import mpmath

    if n < 1:
        raise TableRangeError("asymptotic rows are defined for n >= 1")
    h = _normalized(counts, n)
    log_h = log_rational(h, precision)
    with mpmath.workprec(precision + GUARD_BITS):
        nn = mpmath.mpf(n)
        delta = (
            log_h
            - 2 * n * (1 + mpmath.log(nn / (2 * n + 1)))
            + mpmath.mpf(3) / 2 * mpmath.log(2 * n + 1)
            - 1
            + mpmath.log(2 * mpmath.pi) / 2
        )
        return AsymptoticRow(n, h, log_h, delta, delta / n)


def growth_ratio(n: int, counts: Sequence[int], precision: int = 128) -> mpmath.mpf:
    """log g(n) / (n log n); tends to 2 from below on the computed range."""
    import mpmath

    if n < 2:
        raise TableRangeError("growth ratio needs n >= 2 (log n must exceed 0 cleanly)")
    log_h = log_rational(_normalized(counts, n), precision)
    with mpmath.workprec(precision + GUARD_BITS):
        log_fact = mpmath.log(mpmath.mpf(factorial(2 * n + 1)))
        return (log_h + log_fact) / (n * mpmath.log(n))


def bernoulli_growth_ratio(k: int, precision: int = 128) -> mpmath.mpf:
    """|B_2k| (4 pi^2)^k / (2 (2k)!), which decreases to 1 from above."""
    import mpmath

    if k < 1:
        raise ValueError("bernoulli_growth_ratio requires k >= 1")
    b = abs(bernoulli(2 * k))
    with mpmath.workprec(precision + GUARD_BITS):
        scale = (4 * mpmath.pi**2) ** k / (2 * mpmath.mpf(factorial(2 * k)))
        return mpmath.mpf(b.numerator) / b.denominator * scale


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


def series_argument(target: float, tol: float = 1e-12) -> float:
    """Argument at which the generating series attains `target`, by quadrature.

    Inverts the series through the elliptic integral
        argument = integral_0^target dt / sqrt(t^4/4 - t^2 + 2*target*t + 1)
    with one 21-point Gauss-Kronrod rule on [0, target], summed in the order
    of QUADPACK's dqk21.  The integrand is smooth there, so one rule is
    enough: if the Gauss-Kronrod difference |resk - resg| * h exceeds `tol`,
    ValueError is raised rather than subdividing.  The radicand needs no
    check: on [0, target], 2*target*t >= 2*t^2, so it is at least
    t^4/4 + t^2 + 1 > 0.
    """
    if not 0 <= target <= SUPPORTED_ARGUMENT_RANGE:
        raise ValueError(
            f"target {target} outside the supported range [0, {SUPPORTED_ARGUMENT_RANGE}]"
        )
    if target == 0:
        return 0.0

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
    if error > tol:
        raise ValueError(f"Gauss-Kronrod error estimate {error:.3e} exceeds tol {tol:.3e} "
                         f"at target {target}")
    return resk * h


def series_value(counts: Sequence[int], argument: float, terms: int = 50) -> float:
    """Evaluate sum_{n <= terms} h(n) * argument^(2n+1) in double precision.

    Convergence: h(n) <= Catalan(n) ~ 4^n gives radius >= 1/2, so 50 terms
    leave truncation error far below 1e-8 for arguments below 0.25.
    """
    if terms >= len(counts):
        raise TableRangeError(f"{terms} series terms need the counts to n={terms}")
    acc = 0.0
    sq = argument * argument
    for n in reversed(range(terms + 1)):
        acc = acc * sq + float(_normalized(counts, n))
    return acc * argument


# ---------------------------------------------------------------------------
# heuristic residual fit


def fit_residual_model(rows: Sequence[AsymptoticRow]) -> tuple[float, float, float]:
    """Ordinary least squares of delta against a*n + b*log(n) + c, solved by
    Householder QR (`mpmath.qr_solve`) in double precision.

    Heuristic only: the model is suggested by the data, no error bars are
    claimed.  Needs at least 4 rows with distinct n.
    """
    import mpmath

    ns = sorted({row.n for row in rows})
    if len(ns) < 4:
        raise ValueError(f"fit needs at least 4 distinct indices, got {len(ns)}")
    with mpmath.workprec(53):
        design = mpmath.matrix([[row.n, math.log(row.n), 1.0] for row in rows])
        target = mpmath.matrix([float(row.delta) for row in rows])
        coeffs, _residual = mpmath.qr_solve(design, target)
        return float(coeffs[0]), float(coeffs[1]), float(coeffs[2])


# ---------------------------------------------------------------------------
# row serialization (CSV and JSON share field names)


def format_real(x: mpmath.mpf) -> str:
    """Real number at the 9 significant digits used by all CLI output."""
    import mpmath

    return mpmath.nstr(x, 9)


def rows_to_csv(rows: Sequence[AsymptoticRow]) -> str:
    lines = ["n,h,log_h,delta,delta_over_n"]
    for row in rows:
        lines.append(
            f"{row.n},{format_rational(row.h)},{format_real(row.log_h)},"
            f"{format_real(row.delta)},{format_real(row.delta_over_n)}"
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[AsymptoticRow]) -> str:
    import json

    records = [
        {
            "n": row.n,
            "h": format_rational(row.h),
            "log_h": float(format_real(row.log_h)),
            "delta": float(format_real(row.delta)),
            "delta_over_n": float(format_real(row.delta_over_n)),
        }
        for row in rows
    ]
    return json.dumps(records, indent=2) + "\n"
