import math
from fractions import Fraction

import pytest

from morsecensus.recurrence import (
    CacheFormatError,
    CacheLockError,
    TableRangeError,
    build_table,
    extend_table,
    load_table,
    save_table,
)


V1_GOLDEN = (
    "morse-htable v1 W=2\n"
    "0 0 1\n"
    "1 0 1/2\n"
    "0 1 1/3\n"
    "2 0 1/4\n"
)


@pytest.fixture(scope="module")
def table20():
    return build_table(20)


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
        for n in range(table20.max_index + 1):
            product = table20.normalized_count(n) * math.factorial(2 * n + 1)
            assert product.denominator == 1

    def test_trivial_table(self):
        table = build_table(0)
        assert len(table) == 1
        assert table.entry(0, 0) == 1

    def test_range_errors(self, table20):
        with pytest.raises(TableRangeError):
            table20.normalized_count(11)
        with pytest.raises(TableRangeError):
            table20.entry(19, 1)
        with pytest.raises(TableRangeError):
            table20.entry(-1, 0)


class TestDeterminismAndModes:
    def test_two_builds_identical(self):
        assert build_table(14) == build_table(14)

    def test_fast_fill_matches_fraction_reference(self):
        fast = build_table(16)
        reference = extend_table(None, 16, use_fractions=True)
        assert fast == reference

    def test_fill_matches_fraction_oracle_at_weight_40(self, tmp_path):
        reference = extend_table(None, 40, use_fractions=True)
        assert build_table(40) == reference
        path = tmp_path / "t.txt"
        save_table(build_table(10), path)
        assert extend_table(load_table(path), 40) == reference

    def test_extension_agrees_on_smaller_triangle(self):
        small = build_table(10)
        large = build_table(16)
        for (x, y), q in small.items():
            assert large.entry(x, y) == q

    def test_extend_table_from_existing(self):
        base = build_table(10)
        extended = extend_table(base, 16)
        assert extended == build_table(16)

    def test_extend_table_noop_when_covered(self):
        base = build_table(12)
        assert extend_table(base, 8) is base


class TestCache:
    def test_golden_small_file(self, tmp_path):
        path = tmp_path / "t.txt"
        save_table(build_table(2), path)
        assert path.read_text() == (
            "morse-htable v2 W=2 sha256="
            "9df6420db87f5b2db58cac8225bbaa83ec881cdde7eca534556f7ddacebe5351\n"
            "1\n"
            "2\n"
            "6 4\n"
        )

    def test_v1_golden_file_still_loads(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(V1_GOLDEN)
        assert load_table(path) == build_table(2)

    def test_v1_entry_that_does_not_scale_names_line(self, tmp_path):
        # S'(0,1) = 2 * 3! * T(0,1) must be an integer; 1/5 gives 12/5
        path = tmp_path / "t.txt"
        path.write_text(V1_GOLDEN.replace("0 1 1/3", "0 1 1/5"))
        with pytest.raises(CacheFormatError) as err:
            load_table(path)
        assert err.value.line_no == 4

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "t.txt"
        table = build_table(18)
        save_table(table, path)
        assert load_table(path) == table
        # a second save of the loaded table is byte-identical
        first = path.read_bytes()
        save_table(load_table(path), path)
        assert path.read_bytes() == first

    def test_build_consults_and_extends_cache(self, tmp_path):
        path = tmp_path / "t.txt"
        build_table(10, cache_path=path)
        extended = build_table(16, cache_path=path)
        assert extended == build_table(16)
        assert load_table(path).weight_bound == 16

    def test_build_returns_larger_cached_table(self, tmp_path):
        path = tmp_path / "t.txt"
        build_table(16, cache_path=path)
        table = build_table(10, cache_path=path)
        assert table.weight_bound == 16

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("morse-htable v9 W=3\n")
        with pytest.raises(CacheFormatError) as err:
            load_table(path)
        assert err.value.line_no == 1

    def test_bad_entry_names_line(self, tmp_path):
        path = tmp_path / "t.txt"
        save_table(build_table(2), path)
        lines = path.read_text().splitlines()
        lines[2] = "1 0 garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheFormatError) as err:
            load_table(path)
        assert err.value.line_no == 3

    def test_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        save_table(build_table(2), path)
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheFormatError):
            load_table(path)

    def test_changed_digit_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        save_table(build_table(6), path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace("7", "8", 1)
        assert len(lines[-1].split()) == 4
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheFormatError, match="sha256"):
            load_table(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        save_table(build_table(4), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CacheFormatError):
            load_table(path)

    def test_lock_fail_fast(self, tmp_path):
        path = tmp_path / "t.txt"
        (tmp_path / "t.txt.lock").write_text("held")
        with pytest.raises(CacheLockError):
            save_table(build_table(2), path)

    def test_lock_released_after_save(self, tmp_path):
        path = tmp_path / "t.txt"
        save_table(build_table(2), path)
        save_table(build_table(2), path)  # would raise if the lock leaked
