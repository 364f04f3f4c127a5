from fractions import Fraction
from math import comb

import pytest

from morsecensus import inversion
from morsecensus.exactmath import factorial
from morsecensus.inversion import check_conjecture, check_upper_bound, morse_counts
from morsecensus.recurrence import ConsistencyError


def phi_closed_form(k_max):
    """c_0..c_k_max from c_{k+1}/c_k = -(3/8)(3k+2)(3k+4)/(2k+3)^2."""
    c = [Fraction(1)]
    for k in range(k_max):
        c.append(c[-1] * Fraction(-3 * (3 * k + 2) * (3 * k + 4), 8 * (2 * k + 3) ** 2))
    return c


def phi_from_integral(k_max):
    """Taylor coefficients in u of the integral over s in [0, 1] of
    (1 + u(2s - s^2) + u^2 s^4/4)^(-1/2), expanded in Fractions.

    f = (1 + w)^a with w = p1 u + p2 u^2 satisfies (1 + w) df/du = a (dw/du) f,
    so its coefficients f_i, polynomials in s, obey
    (i+1) f_{i+1} = (a - i) p1 f_i + (2a - i + 1) p2 f_{i-1}.
    """
    a = Fraction(-1, 2)
    p1 = {1: Fraction(2), 2: Fraction(-1)}
    p2 = {4: Fraction(1, 4)}

    def times(poly, other, scale):
        out = {}
        for i, x in poly.items():
            for j, y in other.items():
                out[i + j] = out.get(i + j, 0) + scale * x * y
        return out

    f = [{0: Fraction(1)}, {}]
    for i in range(k_max):
        term = times(f[i], p1, a - i)
        if i >= 1:
            for p, x in times(f[i - 1], p2, 2 * a - i + 1).items():
                term[p] = term.get(p, 0) + x
        f[i + 1] = {p: x / (i + 1) for p, x in term.items()}
        f.append({})
    return [sum(x / (p + 1) for p, x in poly.items()) for poly in f[:k_max + 1]]


class TestRoute:
    def test_phi_coefficients_match_the_integral(self):
        assert phi_from_integral(20) == phi_closed_form(20)

    def test_first_counts(self):
        assert morse_counts(0) == [1]
        assert morse_counts(6) == [1, 2, 19, 428, 17746, 1178792, 114892114]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            morse_counts(-1)

    def test_matches_the_table(self, census_table):
        counts = morse_counts(100)
        assert counts == [census_table.morse_count(n) for n in range(101)]

    @pytest.mark.parametrize("m, i", [(4, 1), (8, 2)])
    def test_perturbed_step_raises(self, monkeypatch, m, i):
        # one binomial coefficient of step m off by one
        monkeypatch.setattr(inversion, "comb", lambda a, b: comb(a, b) + ((a, b) == (m, i)))
        with pytest.raises(ConsistencyError, match=f"at step {m} "):
            morse_counts(10)


class TestBounds:
    def test_hold_on_the_counts(self):
        counts = morse_counts(30)
        assert all(check_upper_bound(n, g) for n, g in enumerate(counts))
        assert all(check_conjecture(n, g) for n, g in enumerate(counts) if n)

    def test_fail_on_wrong_counts(self):
        # h(3) = 428000/7! exceeds Catalan(3) = 5; g(3) = 7! makes h(3) = 1
        assert not check_upper_bound(3, 428000)
        assert not check_conjecture(3, factorial(7))
        assert check_conjecture(3, factorial(7) - 1)
