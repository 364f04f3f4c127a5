import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from morsecensus import exactmath
from morsecensus.exactmath import (
    bernoulli,
    catalan,
    factorial,
    format_rational,
    log_rational,
)


def iterated_factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def catalan_by_convolution(n):
    seq = [1]
    for m in range(n):
        seq.append(sum(seq[k] * seq[m - k] for k in range(m + 1)))
    return seq[n]


def bernoulli_by_series_inversion(m):
    """B_0, ..., B_m: invert (e^t - 1)/t = sum t^k/(k+1)! coefficientwise; B_k = k! * c_k."""
    denom = [Fraction(1, math.factorial(k + 1)) for k in range(m + 1)]
    inv = [Fraction(1)]
    for k in range(1, m + 1):
        inv.append(-sum(denom[j] * inv[k - j] for j in range(1, k + 1)))
    return [c * math.factorial(k) for k, c in enumerate(inv)]


class TestFactorial:
    def test_empty_product(self):
        assert factorial(0) == 1

    def test_small(self):
        assert factorial(5) == 120

    def test_against_iterated_multiplication(self):
        assert factorial(21) == iterated_factorial(21) == 51090942171709440000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestCatalan:
    def test_values(self):
        assert catalan(0) == 1
        assert catalan(3) == 5
        assert catalan(10) == catalan_by_convolution(10) == 16796

    def test_closed_form_matches_convolution_recurrence(self):
        for n in range(31):
            assert catalan(n) == catalan_by_convolution(n)


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0

    def test_against_series_inversion(self):
        for m, expected in enumerate(bernoulli_by_series_inversion(120)):
            assert bernoulli(m) == expected

    def test_odd_indices_vanish(self):
        for k in range(1, 26):
            assert bernoulli(2 * k + 1) == 0


class TestLogRational:
    def test_log_one_is_zero(self):
        assert log_rational(Fraction(1)) == 0

    def test_reciprocal_symmetry(self):
        # compare under enough precision that negation is exact
        with mpmath.workprec(300):
            assert log_rational(Fraction(1, 3)) == -log_rational(Fraction(3))

    def test_log_two_reference(self):
        value = log_rational(Fraction(2), precision=64)
        assert abs(float(value) - 0.6931471805599453) < 1e-15

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            log_rational(Fraction(0))
        with pytest.raises(ValueError):
            log_rational(Fraction(-2, 3))

    @pytest.mark.parametrize("precision", [128, 192])
    def test_exp_round_trip_on_huge_rationals(self, precision):
        rng = random.Random(20060420)
        for _ in range(12):
            num = rng.randrange(1, 10 ** rng.randrange(1, 501))
            den = rng.randrange(1, 10 ** rng.randrange(1, 501))
            q = Fraction(num, den)
            logged = log_rational(q, precision)
            with mpmath.workprec(precision + 80):
                recovered = mpmath.exp(logged)
                exact = mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)
                assert abs(recovered / exact - 1) <= mpmath.mpf(2) ** (8 - precision)


class TestSerialization:
    def test_integer_form(self):
        assert format_rational(Fraction(7)) == "7"
        assert format_rational(Fraction(-3)) == "-3"

    def test_fraction_form_with_leading_sign(self):
        assert format_rational(Fraction(-19, 120)) == "-19/120"
        assert format_rational(Fraction(1, 2)) == "1/2"

    def test_past_the_default_int_digit_limit(self):
        # g(1000) has 5,622 digits, more than CPython's default limit of 4,300
        limit = sys.get_int_max_str_digits()
        big = 10**5999 + 7
        digits = "1" + "0" * 5998 + "7"
        assert format_rational(Fraction(big, 3)) == digits + "/3"
        assert format_rational(big) == digits
        assert sys.get_int_max_str_digits() == limit

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
