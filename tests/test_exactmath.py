import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morsecensus import exactmath
from morsecensus.exactmath import catalan, format_rational
from morsecensus.series import _binomial_rows


def catalan_by_convolution(n):
    seq = [1]
    for m in range(n):
        seq.append(sum(seq[k] * seq[m - k] for k in range(m + 1)))
    return seq[n]


def test_module_keeps_no_mutable_state():
    assert [name for name, value in vars(exactmath).items()
            if not name.startswith("__") and isinstance(value, (list, dict, set))] == []


def test_module_imports_neither_fractions_nor_decimal():
    imported = set()
    for node in ast.walk(ast.parse(Path(exactmath.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not {"fractions", "decimal"} & imported


class TestCatalan:
    def test_values(self):
        assert catalan(0) == 1
        assert catalan(3) == 5
        assert catalan(10) == catalan_by_convolution(10) == 16796

    def test_closed_form_matches_convolution_recurrence(self):
        for n in range(31):
            assert catalan(n) == catalan_by_convolution(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestBinomialRows:
    @pytest.mark.parametrize("drawn", [0, 1, 2, 7])
    def test_every_second_row(self, drawn):
        """Rows 2, 4, ..., 120 in order. Each generator keeps its own place:
        one that has yielded `drawn` rows goes on at row 2 + 2 drawn, and a
        fresh one still starts at row 2."""
        other = _binomial_rows()
        for _ in range(drawn):
            next(other)
        rows = _binomial_rows()
        for r in range(2, 121, 2):
            assert next(rows) == [math.comb(r, i) for i in range(r + 1)]
        r = 2 + 2 * drawn
        assert next(other) == [math.comb(r, i) for i in range(r + 1)]


class TestSerialization:
    def test_integer_form(self):
        assert format_rational(7) == "7"
        assert format_rational(-3) == "-3"
        assert format_rational(0) == "0"

    @pytest.mark.parametrize("num, den, text", [
        (6, 4, "3/2"), (5040, 5040, "1"), (-12, 3, "-4"), (0, 7, "0"), (19, 120, "19/120"),
    ])
    def test_lowest_terms(self, num, den, text):
        assert format_rational(num, den) == text

    def test_fraction_form_with_leading_sign(self):
        # the denominator printed is positive, whichever argument carries the sign
        for num, den in ((-19, 120), (19, -120), (-38, 240), (38, -240)):
            assert format_rational(num, den) == "-19/120"
            assert format_rational(-num, den) == "19/120"
        assert format_rational(1, 2) == "1/2"

    def test_past_the_default_int_digit_limit(self):
        # g(1000) has 5,622 digits, more than CPython's default limit of 4,300
        limit = sys.get_int_max_str_digits()
        big = 10**5999 + 7
        digits = "1" + "0" * 5998 + "7"
        assert format_rational(big, 3) == digits + "/3"
        assert format_rational(3 * big, 9) == digits + "/3"
        assert format_rational(7, big) == "7/" + digits
        assert format_rational(big) == digits
        assert sys.get_int_max_str_digits() == limit

    def test_restores_the_int_digit_limit(self):
        # a limit set just before the call, so that no earlier test decides it
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert format_rational(10**5999) == "1" + "0" * 5999
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)

    def test_import_leaves_the_int_digit_limit(self):
        child = (
            "import sys\n"
            "import morsecensus.cli\n"
            "print(sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(exactmath.__file__).resolve().parents[1])}
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr
