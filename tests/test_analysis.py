import math
from fractions import Fraction

import mpmath
import pytest

from morsecensus.analysis import (
    AsymptoticRow,
    asymptotic_row,
    bernoulli_growth_ratio,
    fit_residual_model,
    format_real,
    growth_ratio,
    rows_to_csv,
    rows_to_json,
    series_argument,
    series_value,
)
from morsecensus.exactmath import GUARD_BITS, factorial
from morsecensus.inversion import check_conjecture, check_upper_bound
from morsecensus.recurrence import TableRangeError


class TestAsymptoticRow:
    def test_delta_over_n_at_ten(self, small_counts):
        row = asymptotic_row(small_counts, 10)
        assert abs(float(row.delta_over_n) + 0.634) <= 1e-3

    def test_row_internal_consistency(self, small_counts):
        row = asymptotic_row(small_counts, 7)
        assert row.n == 7
        assert row.h == Fraction(small_counts[7], factorial(15))
        with mpmath.workprec(256):
            assert abs(row.delta_over_n - row.delta / 7) < mpmath.mpf(2) ** -120

    def test_needs_positive_index(self, small_counts):
        with pytest.raises(TableRangeError):
            asymptotic_row(small_counts, 0)

    def test_out_of_range(self, small_counts):
        with pytest.raises(TableRangeError):
            asymptotic_row(small_counts, len(small_counts))


class TestBoundChecks:
    def test_upper_bound_small_cases(self, small_counts):
        # 1 <= 1, 1/3 <= 1, 19/120 <= 2
        for n in range(3):
            assert check_upper_bound(n, small_counts[n])

    def test_conjecture_small_cases(self, small_counts):
        assert check_conjecture(1, small_counts[1])
        assert check_conjecture(2, small_counts[2])

    def test_conjecture_excludes_index_zero(self, small_counts):
        # h(0) = 1 exactly: the strict bound starts at n = 1
        with pytest.raises(ValueError):
            check_conjecture(0, small_counts[0])


class TestGrowthRatio:
    def test_increasing_and_below_two(self, small_counts):
        r10 = growth_ratio(10, small_counts)
        r15 = growth_ratio(15, small_counts)
        assert r10 < r15 < 2

    def test_stirling_bookkeeping_identity(self, small_counts):
        # reassembling log g from the residual row must reproduce the ratio
        n = 12
        row = asymptotic_row(small_counts, n)
        ratio = growth_ratio(n, small_counts)
        with mpmath.workprec(128 + GUARD_BITS):
            log_h = (
                row.delta
                + 2 * n * (1 + mpmath.log(mpmath.mpf(n) / (2 * n + 1)))
                - mpmath.mpf(3) / 2 * mpmath.log(2 * n + 1)
                + 1
                - mpmath.log(2 * mpmath.pi) / 2
            )
            reassembled = (log_h + mpmath.log(mpmath.mpf(factorial(2 * n + 1)))) / (
                n * mpmath.log(n)
            )
            assert abs(ratio - reassembled) < mpmath.mpf(2) ** -100

    def test_needs_n_at_least_two(self, small_counts):
        with pytest.raises(TableRangeError):
            growth_ratio(1, small_counts)


class TestBernoulliRatio:
    def test_first_value_is_pi_squared_over_six(self):
        assert abs(float(bernoulli_growth_ratio(1)) - math.pi**2 / 6) < 1e-12

    def test_approaches_one(self):
        assert abs(float(bernoulli_growth_ratio(5)) - 1) < 1e-3
        assert abs(float(bernoulli_growth_ratio(10)) - 1) < 1e-6

    def test_decreasing_and_at_least_one(self):
        values = [bernoulli_growth_ratio(k) for k in range(1, 26)]
        assert all(v >= 1 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bernoulli_growth_ratio(0)


class TestEllipticInversion:
    def test_zero_maps_to_zero(self):
        assert series_argument(0.0) == 0.0

    def test_small_argument_near_identity(self):
        assert abs(series_argument(0.1) - 0.1) < 1e-2

    def test_round_trip_through_series(self, census_counts):
        for target in (0.05, 0.1, 0.2):
            theta = series_argument(target, tol=1e-12)
            assert abs(series_value(census_counts, theta, terms=50) - target) <= 1e-8

    @pytest.mark.parametrize("target, bits", [
        (0.05, "0x1.9942554b3efe3p-5"),
        (0.1, "0x1.983de604ffec0p-4"),
        (0.2, "0x1.94402886366f8p-3"),
    ])
    def test_pinned_bits(self, target, bits):
        # the bits of the earlier adaptive scipy quadrature, which one
        # Gauss-Kronrod rule reproduces exactly
        assert series_argument(target).hex() == bits

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ValueError, match="Gauss-Kronrod"):
            series_argument(0.2, tol=1e-30)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            series_argument(0.31)
        with pytest.raises(ValueError):
            series_argument(-0.01)

    def test_series_needs_enough_table(self, small_counts):
        with pytest.raises(TableRangeError):
            series_value(small_counts, 0.1, terms=len(small_counts))


class TestResidualFit:
    @staticmethod
    def synthetic_rows(model, ns):
        rows = []
        for n in ns:
            delta = mpmath.mpf(model(n))
            rows.append(AsymptoticRow(n, Fraction(1), mpmath.mpf(0), delta, delta / n))
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
    def test_csv_format(self, small_counts):
        text = rows_to_csv([asymptotic_row(small_counts, 10)])
        lines = text.splitlines()
        assert lines[0] == "n,h,log_h,delta,delta_over_n"
        fields = lines[1].split(",")
        assert fields[0] == "10"
        assert "/" in fields[1]
        assert fields[4].startswith("-0.634")

    def test_json_field_names(self, small_counts):
        import json

        records = json.loads(rows_to_json([asymptotic_row(small_counts, 10)]))
        assert list(records[0].keys()) == ["n", "h", "log_h", "delta", "delta_over_n"]
        assert isinstance(records[0]["h"], str)
        assert abs(records[0]["delta_over_n"] + 0.634) <= 1e-3

    def test_nine_significant_digits(self):
        assert format_real(mpmath.mpf(1) / 3) == "0.333333333"
