import errno
import fcntl
import math
import os
import signal
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsecensus import recurrence
from morsecensus.recurrence import (
    CacheFormatError,
    CacheLockError,
    ConsistencyError,
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
        assert table.weight_bound == 0
        assert list(table.items()) == [((0, 0), 1)]

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

    def test_weight_200_table_digest(self, tmp_path):
        # the v2 digest of the weight-200 table as the schoolbook convolution
        # computed it: any fill kernel must reproduce the table bit for bit
        path = tmp_path / "t.txt"
        save_table(build_table(200), path)
        with open(path) as fh:
            assert fh.readline() == (
                "morse-htable v2 W=200 sha256="
                "f9a0681c0fcb4adf163065e9998280742a77ac052eae308648685613887cce7b\n"
            )

    def test_wrong_sums_raise_consistency_error(self, monkeypatch):
        sums = recurrence._sums

        def off_by_one_at_level_10(levels, values, w, points):
            result = sums(levels, values, w, points)
            return [v + (w == 10 and p == 3) for p, v in zip(points, result)]

        monkeypatch.setattr(recurrence, "_sums", off_by_one_at_level_10)
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

    def test_v1_file_is_refused_on_its_header(self, tmp_path):
        # v1 files carry no digest, so a changed entry would go unnoticed
        path = tmp_path / "t.txt"
        path.write_text(V1_GOLDEN)
        with pytest.raises(CacheFormatError, match="no digest; delete it") as err:
            load_table(path)
        assert err.value.line_no == 1

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

    def test_cache_never_shrinks(self, tmp_path, monkeypatch, capsys):
        # another command saves W=60 while this one extends its loaded W=20 to 40
        path = tmp_path / "t.txt"
        build_table(20, cache_path=path)
        extend = recurrence.extend_table

        def extend_while_another_saves(table, weight_bound):
            save_table(extend(None, 60), path)
            return extend(table, weight_bound)

        monkeypatch.setattr(recurrence, "extend_table", extend_while_another_saves)
        assert build_table(40, cache_path=path).weight_bound == 40
        assert load_table(path) == extend(None, 60)
        assert capsys.readouterr().err == ""

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
        with open(tmp_path / "t.txt.lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            with pytest.raises(CacheLockError):
                save_table(build_table(2), path)
        assert not path.exists()

    def test_killed_writer_leaves_no_lock(self, tmp_path):
        path = tmp_path / "t.txt"
        holder = (
            "import fcntl, sys, time\n"
            "fh = open(sys.argv[1], 'w')\n"
            "fcntl.flock(fh, fcntl.LOCK_EX)\n"
            "print('held', flush=True)\n"
            "time.sleep(120)\n"
        )
        child = subprocess.Popen([sys.executable, "-c", holder, str(tmp_path / "t.txt.lock")],
                                 stdout=subprocess.PIPE, text=True)
        try:
            assert child.stdout.readline() == "held\n"
            with pytest.raises(CacheLockError):
                save_table(build_table(2), path)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL
        save_table(build_table(2), path)
        assert load_table(path) == build_table(2)

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        def no_space(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", no_space)
        table = build_table(10, tmp_path / "d" / "c.txt")
        assert table == build_table(10)
        assert os.listdir(tmp_path / "d") == ["c.txt.lock"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: cache not written (")

    def test_lock_released_after_save(self, tmp_path):
        path = tmp_path / "t.txt"
        save_table(build_table(2), path)
        save_table(build_table(2), path)  # would raise if the lock leaked
