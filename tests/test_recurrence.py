import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsecensus import ConsistencyError, recurrence
from morsecensus.recurrence import CensusTable, extend_table


@pytest.fixture(scope="module")
def table20():
    return extend_table(None, 20)


class TestFill:
    def test_base_row_is_inverse_powers_of_two(self, table20):
        for x in range(21):
            assert table20.entry(x, 0) == Fraction(1, 2**x)

    def test_hand_filled_entries(self, table20):
        # solved by hand from the two recurrences, weight <= 4
        assert table20.entry(0, 1) == Fraction(1, 3)
        assert table20.entry(1, 1) == Fraction(11, 24)
        assert table20.entry(0, 2) == Fraction(19, 120)

    def test_normalized_counts(self, table20):
        assert table20.normalized_count(0) == 1
        assert table20.normalized_count(1) == Fraction(1, 3)
        assert table20.normalized_count(2) == Fraction(19, 120)

    def test_class_counts(self, table20):
        assert table20.morse_count(0) == 1
        assert table20.morse_count(1) == 2
        assert table20.morse_count(2) == 19

    def test_every_entry_positive(self, table20):
        assert all(q > 0 for _, q in table20.items())

    def test_every_entry_canonical(self, table20):
        for _, q in table20.items():
            assert q.denominator > 0
            assert math.gcd(q.numerator, q.denominator) == 1

    def test_counts_are_integers(self, table20):
        for n in range(table20.weight_bound // 2 + 1):
            product = table20.normalized_count(n) * math.factorial(2 * n + 1)
            assert product.denominator == 1

    def test_trivial_table(self):
        table = extend_table(None, 0)
        assert table.weight_bound == 0
        assert list(table.items()) == [((0, 0), 1)]

    def test_range_errors(self, table20):
        with pytest.raises(ValueError, match=r"^entry \(0,11\) outside table with weight bound 20$"):
            table20.normalized_count(11)
        with pytest.raises(ValueError, match="^n=11 needs weight bound >= 22, table has 20$"):
            table20.morse_count(11)
        with pytest.raises(ValueError, match="^n=-1 needs weight bound >= -2, table has 20$"):
            table20.morse_count(-1)
        with pytest.raises(ValueError):
            extend_table(None, -1)
        with pytest.raises(ValueError, match=r"^entry \(19,1\) outside table with weight bound 20$"):
            table20.entry(19, 1)
        with pytest.raises(ValueError, match=r"^entry \(-1,0\) outside table with weight bound 20$"):
            table20.entry(-1, 0)


class TestDeterminismAndModes:
    def test_two_builds_identical(self):
        assert extend_table(None, 14) == extend_table(None, 14)

    def test_fast_fill_matches_fraction_reference(self, fraction_reference):
        assert extend_table(None, 16) == fraction_reference(16)

    def test_fill_matches_fraction_oracle_at_weight_40(self, fraction_reference):
        reference = fraction_reference(40)
        assert extend_table(None, 40) == reference
        assert extend_table(extend_table(None, 10), 40) == reference

    def test_extension_agrees_on_smaller_triangle(self):
        small = extend_table(None, 10)
        large = extend_table(None, 16)
        for (x, y), q in small.items():
            assert large.entry(x, y) == q

    def test_extend_table_from_existing(self):
        base = extend_table(None, 10)
        extended = extend_table(base, 16)
        assert extended == extend_table(None, 16)

    def test_extend_table_noop_when_covered(self):
        base = extend_table(None, 12)
        assert extend_table(base, 8) is base

    def test_weight_200_table_digest(self, census_table):
        # the sha256 of the weight-200 table, one line of S' per level, as the
        # schoolbook convolution computed it: any fill kernel must reproduce
        # the table bit for bit.  The session table has weight 200 or 400,
        # and its levels 0..200 are the weight-200 table.
        digest = hashlib.sha256()
        for level in census_table.levels[:201]:
            digest.update((" ".join(map(str, level)) + "\n").encode())
        assert digest.hexdigest() == (
            "f9a0681c0fcb4adf163065e9998280742a77ac052eae308648685613887cce7b"
        )

    def test_non_integral_values_raise_consistency_error(self):
        # S'(0,1) = 1 makes g(1) = 1/2; T(0,0) = 1/3 makes S'(0,0) = 1/3
        with pytest.raises(ConsistencyError):
            CensusTable(2, [[1], [2], [3, 1]]).morse_count(1)
        with pytest.raises(ConsistencyError):
            recurrence._pack({(0, 0): Fraction(1, 3)}, 0)

    def test_wrong_sums_raise_consistency_error(self, interpolation_off_at_level_10):
        with pytest.raises(ConsistencyError):
            extend_table(None, 12)


class TestInterpolate:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-(2**3000), 2**3000), min_size=1, max_size=61),
           st.integers(0, 3))
    def test_round_trip(self, coeffs, extra):
        # degree len(coeffs) - 1 <= 60; extra points give zero coefficients
        points = range(len(coeffs) + extra)
        values = [sum(c * p**i for i, c in enumerate(coeffs)) for p in points]
        assert recurrence._interpolate(values) == coeffs + [0] * extra

    def test_empty(self):
        assert recurrence._interpolate([]) == []

    @pytest.mark.parametrize("values", [[0, 0, 1], [1, 2, 4, 8], [0, 1, 0, 0, 0]])
    def test_values_of_no_integer_polynomial_raise(self, values):
        # x(x-1)/2 at 0, 1, 2; 2^x; a perturbed zero polynomial
        with pytest.raises(ConsistencyError):
            recurrence._interpolate(values)
