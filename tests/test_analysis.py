import math
from decimal import Context, Decimal, localcontext
from math import factorial

import mpmath
import pytest

from morsecensus import analysis
from morsecensus.analysis import (
    ROW_DIGITS,
    AsymptoticRow,
    asymptotic_row,
    fit_residual_model,
    format_real,
    series_argument,
    series_value,
)
from morsecensus.series import morse_counts


class TestAsymptoticRow:
    def test_delta_over_n_at_ten(self, small_counts):
        row = asymptotic_row(small_counts, 10)
        assert abs(float(row.delta_over_n) + 0.634) <= 1e-3

    def test_row_internal_consistency(self, small_counts):
        row = asymptotic_row(small_counts, 7)
        assert row._fields == ("n", "log_h", "delta", "delta_over_n")
        assert row.n == 7
        # the row's own context gives log h and divides delta by 7 to the same digits
        with localcontext(Context(prec=ROW_DIGITS)):
            assert row.log_h == Decimal(small_counts[7]).ln() - Decimal(factorial(15)).ln()
            assert row.delta_over_n == row.delta / 7

    def test_needs_positive_index(self, small_counts):
        with pytest.raises(ValueError, match="^asymptotic rows need 1 <= n <= 15; got n=0$"):
            asymptotic_row(small_counts, 0)

    def test_out_of_range(self, small_counts):
        with pytest.raises(ValueError, match="^asymptotic rows need 1 <= n <= 15; got n=16$"):
            asymptotic_row(small_counts, len(small_counts))


class TestGrowthRatio:
    def test_stirling_bookkeeping_identity(self, small_counts):
        # reassembling log g from the residual row must reproduce the ratio
        # log g(n) / (n log n), which no command prints
        n = 12
        row = asymptotic_row(small_counts, n)
        with mpmath.workprec(192):
            ratio = mpmath.log(small_counts[n]) / (n * mpmath.log(n))
            log_h = (
                mpmath.mpf(str(row.delta))
                + 2 * n * (1 + mpmath.log(mpmath.mpf(n) / (2 * n + 1)))
                - mpmath.mpf(3) / 2 * mpmath.log(2 * n + 1)
                + 1
                - mpmath.log(2 * mpmath.pi) / 2
            )
            reassembled = (log_h + mpmath.log(mpmath.mpf(factorial(2 * n + 1)))) / (
                n * mpmath.log(n)
            )
            assert abs(ratio - reassembled) < mpmath.mpf(2) ** -100


class TestEllipticInversion:
    def test_zero_maps_to_zero(self):
        assert series_argument(0.0) == 0.0

    def test_small_argument_near_identity(self):
        assert abs(series_argument(0.1) - 0.1) < 1e-2

    def test_round_trip_through_series(self, census_counts):
        for target in (0.05, 0.1, 0.2):
            theta = series_argument(target)
            assert abs(series_value(census_counts, theta) - target) <= 1e-8

    @pytest.mark.parametrize("target, bits", [
        (0.05, "0x1.9942554b3efe3p-5"),
        (0.1, "0x1.983de604ffec0p-4"),
        (0.2, "0x1.94402886366f8p-3"),
    ])
    def test_pinned_bits(self, target, bits):
        # the bits of the earlier adaptive scipy quadrature, which one
        # Gauss-Kronrod rule reproduces exactly
        assert series_argument(target).hex() == bits

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "ARGUMENT_TOLERANCE", 1e-30)
        with pytest.raises(ValueError, match="Gauss-Kronrod"):
            series_argument(0.2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            series_argument(0.31)
        with pytest.raises(ValueError):
            series_argument(-0.01)

    def test_series_sums_the_counts_it_is_given(self, small_counts):
        # h(0), h(1), h(2) = 1, 1/3, 19/120: x + x^3/3 + 19 x^5/120 at x = 1/2
        assert series_value(small_counts[:1], 0.5) == 0.5
        assert abs(series_value(small_counts[:3], 0.5) - 2099 / 3840) <= 1e-16


class TestResidualFit:
    @staticmethod
    def synthetic_rows(model, ns):
        rows = []
        for n in ns:
            delta = Decimal(model(n))
            rows.append(AsymptoticRow(n, Decimal(0), delta, delta / n))
        return rows

    def test_recovers_exact_linear_model(self):
        rows = self.synthetic_rows(lambda n: -0.5 * n + 2, [10, 20, 30, 40, 50])
        a, b, c = fit_residual_model(rows)
        assert abs(a + 0.5) < 1e-9
        assert abs(b) < 1e-7
        assert abs(c - 2) < 1e-6

    def test_recovers_exact_three_term_model(self):
        rows = self.synthetic_rows(
            lambda n: -0.8 * n + 1.5 * math.log(n) + 0.25, [10, 20, 30, 40, 50, 100]
        )
        a, b, c = fit_residual_model(rows)
        assert abs(a + 0.8) < 1e-9
        assert abs(b - 1.5) < 1e-7
        assert abs(c - 0.25) < 1e-7

    def test_too_few_distinct_points_refused(self):
        rows = self.synthetic_rows(lambda n: -n, [10, 20, 30])
        with pytest.raises(ValueError):
            fit_residual_model(rows)
        with pytest.raises(ValueError):
            fit_residual_model(rows * 2)  # duplicates don't help


class TestResidualFitOnComputedRows:
    # these need the counts to n = 200; they run only at the full gate

    @staticmethod
    def _full_counts_or_skip(census_counts):
        if len(census_counts) <= 200:
            pytest.skip("needs the full-gate counts (n <= 200)")
        return census_counts

    def test_eight_reference_rows_fit(self, census_counts):
        counts = self._full_counts_or_skip(census_counts)
        rows = [asymptotic_row(counts, n) for n in (10, 20, 30, 40, 50, 100, 150, 200)]
        a = fit_residual_model(rows)[0]
        # the decimal expansion of the suggested slope begins -0.8
        assert -0.9 < a < -0.8

    def test_fit_stable_across_row_subsets(self, census_counts):
        counts = self._full_counts_or_skip(census_counts)
        high = [asymptotic_row(counts, n) for n in range(50, 201, 10)]
        higher = [asymptotic_row(counts, n) for n in range(100, 201, 10)]
        assert abs(fit_residual_model(high)[0] - fit_residual_model(higher)[0]) <= 0.02


class TestRowOutput:
    def test_nine_significant_digits(self):
        assert format_real(Decimal(1) / 3) == "0.333333333"
        assert format_real(Decimal(-2) / 3) == "-0.666666667"

    @pytest.mark.parametrize("text", [
        "0", "-3", "-3.52230710", "0.000123456789", "-0.0000123456789", "1.5e-7",
        "123456789.4", "999999999.7", "-9.9999999996", "12345.678949", "2.5e10",
    ])
    def test_layout_of_mpmath_nstr(self, text):
        # fixed notation for exponents -4..8, trailing zeros stripped to one
        assert format_real(Decimal(text)) == mpmath.nstr(mpmath.mpf(text), 9)


class TestAgainstMpmath:
    """mpmath, computing the rows on its own, as the independent reference."""

    @staticmethod
    def reference_row(counts, n):
        # at the caller's working precision
        log_h = mpmath.log(counts[n]) - mpmath.log(factorial(2 * n + 1))
        delta = (log_h - 2 * n * (1 + mpmath.log(mpmath.mpf(n) / (2 * n + 1)))
                 + mpmath.mpf(3) / 2 * mpmath.log(2 * n + 1) - 1 + mpmath.log(2 * mpmath.pi) / 2)
        return log_h, delta, delta / n

    def test_half_log_two_pi(self):
        # the constant asymptotic_row adds, rounded to 64 significant digits
        with mpmath.workdps(90):
            text = mpmath.nstr(mpmath.log(2 * mpmath.pi) / 2, 80)
        assert analysis._HALF_LOG_TWO_PI == str(Context(prec=64).create_decimal(text))

    @pytest.mark.parametrize("precision", [64, 128, 512])
    def test_rows_to_n_100(self, precision):
        # the reference works at `precision` bits; the rows work at ROW_DIGITS
        # (about 199 bits), so the agreement is bounded by the coarser of the
        # two, capped at the bound the rows met when computed at 128 bits
        counts = morse_counts(100)
        bound = mpmath.mpf(2) ** (8 - min(precision, 128))
        with mpmath.workprec(precision):
            for n in range(1, 101):
                row = asymptotic_row(counts, n)
                expected = self.reference_row(counts, n)
                for value, reference in zip(row[1:], expected):
                    assert format_real(value) == mpmath.nstr(reference, 9), (n, precision)
                    error = abs(mpmath.mpf(str(value)) / reference - 1)
                    assert error <= bound, (n, precision)

    def test_fit_matches_householder_qr(self):
        counts = morse_counts(100)
        ns = (10, 20, 30, 40, 50, 100)
        rows = [asymptotic_row(counts, n) for n in ns]
        with mpmath.workprec(53):
            design = mpmath.matrix([[n, math.log(n), 1.0] for n in ns])
            target = mpmath.matrix([float(row.delta) for row in rows])
            expected = mpmath.qr_solve(design, target)[0]
        for value, reference in zip(fit_residual_model(rows), expected):
            assert abs(value - float(reference)) <= 1e-15 * max(1.0, abs(float(reference)))
