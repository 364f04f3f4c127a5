"""Acceptance suite: one test per criterion, exact tolerances pinned.

The counts come from the one-variable route (`series`), and criterion
11 holds them to the two-parameter table.  Runs at the reduced gate
(indices <= 100) by default; the full gate (indices <= 200) turns on via
MORSECENSUS_ACCEPT_FULL=1, see conftest.  A PASS/FAIL line per criterion is
printed in the terminal summary.
"""
import time

from fractions import Fraction
from math import factorial

import mpmath

from morsecensus import analysis
from morsecensus.analysis import asymptotic_row, series_argument, series_value
from morsecensus.exactmath import catalan
from morsecensus.recurrence import extend_table
from morsecensus.series import (
    bivariate_generating_series,
    ode_comparison_series,
    pde_residual,
    scaled_tangent_series,
)
from morsecensus.trees import decode, encode, enumerate_morse_trees, pair_from_text

REFERENCE_DELTA_OVER_N = {
    10: -0.634,
    20: -0.750,
    30: -0.790,
    40: -0.811,
    50: -0.824,
    100: -0.849,
    150: -0.858,
    200: -0.862,
}
TREND_POINTS = (10, 20, 30, 40, 50, 100, 150, 200)


def test_criterion_01_exact_counts_match_tree_oracle():
    """Recurrence counts equal brute-force enumeration for n <= 3, exactly."""
    start = time.monotonic()
    table = extend_table(None, 6)
    assert table.morse_count(0) == 1
    assert table.morse_count(1) == 2
    assert table.morse_count(2) == 19
    for n in range(4):
        assert len(enumerate_morse_trees(n)) == table.morse_count(n)
    assert time.monotonic() - start < 60


def test_criterion_02_reference_delta_rows(census_counts, acceptance_max_n):
    """delta_n / n reproduces every tabulated 3-decimal value within 1e-3."""
    checked = 0
    for n, expected in REFERENCE_DELTA_OVER_N.items():
        if n > acceptance_max_n:
            continue
        row = asymptotic_row(census_counts, n)
        assert abs(float(row.delta_over_n) - expected) <= 1e-3, f"row n={n}"
        checked += 1
    assert checked >= 4


def test_criterion_03_sandwich_bounds_exact(census_counts, acceptance_max_n):
    """ODE coefficients <= normalized counts <= Catalan numbers, exactly,
    plus the integer estimate g (n+1) <= 2^(2n) (2n+1)!, which the Catalan
    bound implies."""
    tangent = scaled_tangent_series(acceptance_max_n)
    for n in range(acceptance_max_n + 1):
        h = Fraction(census_counts[n], factorial(2 * n + 1))
        assert h >= Fraction(tangent[n], factorial(2 * n + 1) << n), f"lower bound at n={n}"
        assert h <= catalan(n), f"upper bound at n={n}"
        assert census_counts[n] * (n + 1) <= factorial(2 * n + 1) << (2 * n), \
            f"integer estimate at n={n}"


def test_criterion_04_strict_factorial_bound(census_counts, acceptance_max_n):
    """g(n) < (2n+1)!, i.e. h(n) < 1, for every 1 <= n in range, exactly."""
    for n in range(1, acceptance_max_n + 1):
        assert census_counts[n] < factorial(2 * n + 1), f"h(n) >= 1 at n={n}"


def test_criterion_05_integrality(census_table, acceptance_max_n):
    """The table's (2n+1)! * T(0, n) is an integer for every n in range:
    morse_count raises ConsistencyError on a remainder."""
    for n in range(acceptance_max_n + 1):
        assert census_table.morse_count(n) > 0, f"count at n={n}"


def test_criterion_06_two_route_tangent_series():
    """The tangent numbers of Seidel's boustrophedon (the Euler-Bernoulli
    triangle) equal the scaled ODE solution exactly through index 50."""
    start = time.monotonic()
    assert scaled_tangent_series(50) == ode_comparison_series(50)
    assert time.monotonic() - start < 10


def test_criterion_07_pde_residual_vanishes():
    """Every retained residual coefficient of the bivariate generating
    series is exactly zero at truncation 25."""
    start = time.monotonic()
    table = extend_table(None, 24)
    residual = pde_residual(bivariate_generating_series(table))
    assert residual.v_bound == 24
    assert not residual.coeffs, f"first nonzero: {min(residual.coeffs.items())}"
    assert time.monotonic() - start < 60


def test_criterion_08_elliptic_identity_round_trip(census_counts):
    """Series value at the quadrature-inverted argument recovers the input
    to 1e-8, quadrature tolerance 1e-12, 50 series terms."""
    assert analysis.ARGUMENT_TOLERANCE == 1e-12
    start = time.monotonic()
    for target in (0.05, 0.1, 0.2):
        theta = series_argument(target)
        recovered = series_value(census_counts[:51], theta)
        assert abs(recovered - target) <= 1e-8, f"target {target}"
    assert time.monotonic() - start < 10


def test_criterion_09_growth_ratio_trend(census_counts, acceptance_max_n):
    """log g(n) / (n log n) increases strictly across the sample points and
    stays below 2; the limit itself is exactly 2, approached from below.
    No command prints the ratio: mpmath takes it from the counts."""
    points = [n for n in TREND_POINTS if n <= acceptance_max_n]
    with mpmath.workprec(128):
        ratios = [mpmath.log(census_counts[n]) / (n * mpmath.log(n)) for n in points]
    for a, b in zip(ratios, ratios[1:]):
        assert a < b
    assert all(r < 2 for r in ratios)


def test_criterion_10_injection_and_catalan_shapes(planted_shapes):
    """Encoding is injective with decode-encode identity for n <= 3, and
    the planted shape counts equal the Catalan numbers for n <= 8, each
    shape one that decode reads: labeled in walk order, it decodes to a
    Morse tree that encodes back to it."""
    for n in range(4):
        trees = enumerate_morse_trees(n)
        pairs = {encode(t) for t in trees}
        assert len(pairs) == len(trees), f"collision at n={n}"
        for t in trees:
            assert decode(encode(t)) == t
    for n in range(9):
        shapes = planted_shapes(n)
        assert len(set(shapes)) == len(shapes) == catalan(n)
        word = " ".join(map(str, range(1, 2 * n + 2)))
        for stem in shapes:
            pair = pair_from_text(f"{stem}\nphi = {word}\n")
            assert encode(decode(pair)) == pair


def test_criterion_11_one_variable_route_matches_table(census_counts, census_table,
                                                      acceptance_max_n):
    """The counts of the one-variable route equal the two-parameter table's,
    exactly, for every n in range."""
    assert len(census_counts) == acceptance_max_n + 1
    for n in range(acceptance_max_n + 1):
        assert census_counts[n] == census_table.morse_count(n), f"n={n}"
