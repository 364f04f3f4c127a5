import hashlib
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from morsecensus import ConsistencyError
from morsecensus.exactmath import catalan
from morsecensus.series import morse_counts


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

    def test_counts_are_powers_of_two_mod_15(self, census_counts):
        # an observation, not a theorem proven here: g(n) = 2^n (mod 15) holds
        # for every n <= 400 (ROADMAP.md sketches a proof), so it fingerprints
        # every count; n <= 100 here, and n <= 200 at the full gate
        for n, g in enumerate(census_counts):
            assert g % 15 == pow(2, n, 15), f"n={n}"

    def test_matches_the_table(self, census_table):
        counts = morse_counts(100)
        assert counts == [census_table.morse_count(n) for n in range(101)]

    @pytest.mark.parametrize("max_n, full_gate_only, digest", [
        (200, False, "62a4ccbd7ded7dea375d929cee2df9496a00958fabc7ddcacd5fc2c7daea3287"),
        (400, True, "bd0858caaaebfb39aaffd13164c14817e82275f28e1880b21171fe948e64acf4"),
    ])
    def test_counts_past_the_table_are_pinned(self, acceptance_max_n, max_n, full_gate_only,
                                              digest):
        # sha256 of g(0..max_n), one decimal per line, taken from the third-order scheme
        if full_gate_only and acceptance_max_n < 200:
            pytest.skip("g(0..400) is pinned at the full gate only")
        text = "".join(f"{g}\n" for g in morse_counts(max_n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("m, i", [(4, 1), (8, 2)])
    def test_perturbed_step_raises(self, binomial_row_off_by_one, m, i):
        # one binomial coefficient of step m off by one
        binomial_row_off_by_one(m, i)
        with pytest.raises(ConsistencyError, match=f"at step {m} "):
            morse_counts(10)

    def test_count_below_one_raises(self, middle_term_dropped):
        # every n has a Morse function, so g(1) = 0 is a bug in the loop
        with pytest.raises(ConsistencyError, match=r"^g\(1\) = 0, but every count is at least 1$"):
            morse_counts(5)


def hurwitz_product(p, q):
    """(PQ)_m = sum_i C(m, i) P_i Q_(m-i), for every m both inputs reach."""
    return [sum(comb(m, i) * p[i] * q[m - i] for i in range(m + 1))
            for m in range(min(len(p), len(q)))]


def hurwitz_inverse(p):
    """Q with PQ = 1, for P_0 = 1: Q_m = -sum_{0<i<=m} C(m, i) P_i Q_(m-i)."""
    q = [1]
    for m in range(1, len(p)):
        q.append(-sum(comb(m, i) * p[i] * q[m - i] for i in range(1, m + 1)))
    return q


class TestIntegralityProof:
    """The Hurwitz series of the series module docstring, for m <= 60.

    E_0 = 1/y' is integral, the proof's one premise.  That y E_j' has even
    coefficients, so that E_1 and E_2 are integral too, is checked here as a
    fact: the scheme carries 2 E_1 and 4 E_2 and never halves them.
    """

    def test_hurwitz_series_are_integral_and_satisfy_the_ode(self):
        y = [0] * 65  # Y_0..Y_64
        for n, g in enumerate(morse_counts(31)):
            y[2 * n + 1] = g
        e = [hurwitz_inverse(y[1:])]  # E_0 = 1/y', to index 63
        for j in range(3):  # E_(j+1) = y E_j' / (2 y'), to index 62 - j
            product = hurwitz_product(y, e[j][1:])
            assert all(c % 2 == 0 for c in product), j
            e.append(hurwitz_product([Fraction(c, 2) for c in product], e[0]))
        assert len(e[3]) == 61
        assert all(c.denominator == 1 for series in e[1:] for c in series)
        x = hurwitz_product(y, y)
        # the second-order ODE 32 E_2 - 8 E_0 + x G = -8 that the scheme integrates
        g = [27 * e2 + 54 * e1 + 24 * e0 for e0, e1, e2 in zip(*e[:3])]
        assert [32 * e2 - 8 * e0 + c for e0, e2, c in zip(e[0], e[2], hurwitz_product(x, g))] == \
            [-8] + [0] * 61
        # and D applied to it, the third-order ODE
        rest = [9 * e3 + 27 * e2 + 26 * e1 + 8 * e0 for e0, e1, e2, e3 in zip(*e)]
        assert [32 * e3 - 8 * e1 for e1, e3 in zip(e[1], e[3])] == \
            [-3 * c for c in hurwitz_product(x, rest)]

    def test_ode_coefficient_form(self):
        # 8(2k-1)(2k+1) f_k + 3(3k-1)(3k+1) f_(k-1) = 0 for f_k = (2k+1) c_k
        f = [(2 * k + 1) * c for k, c in enumerate(phi_closed_form(20))]
        for k in range(1, 21):
            assert 8 * (2 * k - 1) * (2 * k + 1) * f[k] + 3 * (3 * k - 1) * (3 * k + 1) * f[k - 1] == 0


class TestBounds:
    def test_hold_on_the_counts(self):
        # h(n) <= Catalan(n) for every n, and h(n) < 1 for n >= 1
        for n, g in enumerate(morse_counts(30)):
            scale = factorial(2 * n + 1)
            assert g <= catalan(n) * scale
            assert g < scale or n == 0

    def test_catalan_bound_implies_the_estimate(self):
        # g <= Catalan(n) (2n+1)! gives g (n+1) <= 4^n (2n+1)!, so
        # `verify bounds` need not test the estimate
        for n in range(401):
            assert catalan(n) * (n + 1) == comb(2 * n, n) <= 4**n

    def test_trivalent_tree_bound(self, census_counts):
        # a Morse tree is a labelled tree on 0..2n+1 with n vertices of degree 3,
        # n + 2 of degree 1 and 0 a leaf, and there are C(2n+1, n) (2n)! / 2^n
        # such trees: so h(n) <= Catalan(n) / 2^n, with equality only at n = 0
        for n, g in enumerate(census_counts):
            bound = comb(2 * n + 1, n) * factorial(2 * n)
            assert g << n <= bound and (g << n < bound or n == 0), f"n={n}"

    def test_trivalent_tree_count_by_pruefer_codes(self):
        # a vertex of a labelled tree appears in its Pruefer code one time
        # fewer than its degree: count the codes of length 2n over 0..2n+1 in
        # which every label appears 0 or 2 times, and 0 never
        for n, count in enumerate((1, 3, 60, 3150)):
            codes = sum(1 for code in product(range(2 * n + 2), repeat=2 * n)
                        if 0 not in code and all(code.count(v) in (0, 2) for v in code))
            assert codes == count == comb(2 * n + 1, n) * factorial(2 * n) >> n
