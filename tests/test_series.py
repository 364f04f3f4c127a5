import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsecensus.recurrence import CensusTable, extend_table
from morsecensus.series import (
    Series2,
    bivariate_generating_series,
    ode_comparison_series,
    pde_residual,
    scaled_tangent_series,
)

# the tangent numbers a_k = 2^k (2k+1)! u_k for k = 0..5 (OEIS A000182)
TANGENT_NUMBERS = [1, 2, 16, 272, 7936, 353792]


def truncated(table, v_max):
    """`table` cut to weight bound v_max - 1, whose series is complete through v_max."""
    return CensusTable(v_max - 1, table.levels[:v_max])


def tan_coefficients(order_index):
    """tan x through x^(2K+1) as a dense Fraction list: a_k / (2k+1)! at 2k+1."""
    coeffs = [Fraction(0)] * (2 * order_index + 2)
    for k, a in enumerate(scaled_tangent_series(order_index)):
        coeffs[2 * k + 1] = Fraction(a, math.factorial(2 * k + 1))
    return coeffs


def bernoulli_by_series_inversion(m):
    """B_0, ..., B_m: invert (e^t - 1)/t = sum t^k/(k+1)! coefficientwise; B_k = k! * c_k."""
    denom = [Fraction(1, math.factorial(k + 1)) for k in range(m + 1)]
    inv = [Fraction(1)]
    for k in range(1, m + 1):
        inv.append(-sum(denom[j] * inv[k - j] for j in range(1, k + 1)))
    return [c * math.factorial(k) for k, c in enumerate(inv)]


def sin_cos_coefficients(order):
    """sin x and cos x through x^order as dense Fraction lists."""
    sin, cos = [Fraction(0)] * (order + 1), [Fraction(0)] * (order + 1)
    for k in range(order + 1):
        term = Fraction((-1) ** (k // 2), math.factorial(k))
        (sin if k % 2 else cos)[k] = term
    return sin, cos


class ReferenceSeries2:
    """Fraction-operator two-variable series, the reference for the integer residual.

    Binary operations keep the smaller second-exponent bound (None means
    untruncated) and drop coefficients above it.
    """

    def __init__(self, coeffs, v_bound=None):
        self.v_bound = v_bound
        self.coeffs = {key: Fraction(c) for key, c in coeffs.items()
                       if c and (v_bound is None or key[1] <= v_bound)}

    @staticmethod
    def monomial(coeff, u_exp=0, v_exp=0):
        return ReferenceSeries2({(u_exp, v_exp): Fraction(coeff)})

    def _bound(self, other):
        bounds = [b for b in (self.v_bound, other.v_bound) if b is not None]
        return min(bounds) if bounds else None

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return ReferenceSeries2(out, self._bound(other))

    def __sub__(self, other):
        return self + ReferenceSeries2({k: -c for k, c in other.coeffs.items()}, other.v_bound)

    def __mul__(self, other):
        bound = self._bound(other)
        out = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                if bound is None or b1 + b2 <= bound:
                    key = (a1 + a2, b1 + b2)
                    out[key] = out.get(key, 0) + c1 * c2
        return ReferenceSeries2(out, bound)

    def derivative_u(self):
        return ReferenceSeries2(
            {(a - 1, b): a * c for (a, b), c in self.coeffs.items() if a > 0}, self.v_bound)

    def derivative_v(self):
        # coefficients at second-exponent b come from b+1, so the bound drops by one
        bound = None if self.v_bound is None else self.v_bound - 1
        return ReferenceSeries2(
            {(a, b - 1): b * c for (a, b), c in self.coeffs.items() if b > 0}, bound)


def reference_pde_residual(series):
    """dv(s) - (1 + u s + u^2/2) du(s) - (s^2/2 + u s + 1), on Fraction operators."""
    s = ReferenceSeries2(series.coeffs, series.v_bound)
    one = ReferenceSeries2.monomial(1)
    u = ReferenceSeries2.monomial(1, u_exp=1)
    half_u_sq = ReferenceSeries2.monomial(Fraction(1, 2), u_exp=2)
    half = ReferenceSeries2.monomial(Fraction(1, 2))
    transport = one + u * s + half_u_sq
    source = half * s * s + u * s + one
    residual = s.derivative_v() - transport * s.derivative_u() - source
    return Series2(residual.coeffs, residual.v_bound)


def reference_ode_series(order_index):
    """u_0 = 1, (2k+1) u_k = (1/2) sum_{i+j=k-1} u_i u_j, on Fractions."""
    odd = [Fraction(1)]
    for k in range(1, order_index + 1):
        s = sum(odd[i] * odd[k - 1 - i] for i in range(k))
        odd.append(s / (2 * (2 * k + 1)))
    return odd


def hurwitz_to_fractions(series):
    """sigma's Hurwitz coefficients as s = sqrt(2) sigma(u/sqrt(2), v/sqrt(2)) in u, v.

    sigma(x, k) U^x V^k / k! is sigma(x, k) u^x v^k / (k! 2^((x+k)/2)), and
    s = sqrt(2) sigma, so s(x, k) = sigma(x, k) / (k! 2^((x+k-1)/2)) for x + k odd.
    """
    return Series2({(x, k): Fraction(c, math.factorial(k) << (x + k - 1) // 2)
                    for (x, k), c in series.coeffs.items()}, series.v_bound)


def odd_key(x, k):
    """(x, k), or (x, k + 1) when x + k is even: a key of sigma."""
    return (x, k + (x + k + 1) % 2)


sparse_series = st.builds(
    Series2,
    st.dictionaries(
        st.builds(odd_key, st.integers(0, 6), st.integers(0, 8)),
        st.integers(min_value=-2000, max_value=2000),
        max_size=12,
    ),
    st.integers(0, 8),
)


class TestTangentRoutes:
    def test_tan_times_cos_is_sin(self):
        sin, cos = sin_cos_coefficients(9)
        tan = tan_coefficients(4)  # order 9
        assert [sum(tan[i] * cos[k - i] for i in range(k + 1)) for k in range(10)] == sin

    def test_bernoulli_route_first_coefficients(self):
        assert scaled_tangent_series(5) == TANGENT_NUMBERS
        assert scaled_tangent_series(0) == [1]

    def test_bernoulli_identity(self):
        # a_k = 2^m (2^m - 1) |B_m| / m with m = 2k+2, for every m <= 120
        b = bernoulli_by_series_inversion(120)
        for k in range(60):
            m = 2 * k + 2
            assert scaled_tangent_series(k)[k] == (1 << m) * ((1 << m) - 1) * abs(b[m]) / m

    def test_ode_route_first_coefficients(self):
        assert ode_comparison_series(5) == TANGENT_NUMBERS

    def test_scaled_tangent_first_coefficients(self):
        # u_k = a_k / (2^k (2k+1)!): 1, 1/6, 1/30 for sqrt(2) tan(t / sqrt(2))
        u = [Fraction(a, math.factorial(2 * k + 1) << k)
             for k, a in enumerate(scaled_tangent_series(2))]
        assert u == [1, Fraction(1, 6), Fraction(1, 30)]

    def test_ode_route_matches_fraction_recurrence(self):
        u = [Fraction(a, math.factorial(2 * k + 1) << k)
             for k, a in enumerate(ode_comparison_series(60))]
        assert u == reference_ode_series(60)

    def test_two_routes_agree_exactly(self):
        # the same function derived independently via the Euler-Bernoulli
        # triangle and via the quadratic ODE; exact equality through t^601
        assert scaled_tangent_series(300) == ode_comparison_series(300)

    def test_routes_return_integers(self):
        for a in scaled_tangent_series(30) + ode_comparison_series(30):
            assert type(a) is int

    @pytest.mark.parametrize("route", [scaled_tangent_series, ode_comparison_series])
    def test_negative_order_rejected(self, route):
        with pytest.raises(ValueError):
            route(-1)


class TestGeneratingSeries:
    def test_bivariate_coefficients(self, small_table):
        s = bivariate_generating_series(truncated(small_table, 8))
        assert s.v_bound == 8
        assert s.coeffs[(0, 1)] == 1
        assert s.coeffs[(1, 2)] == 2  # S'(1, 0) = 2!
        assert (0, 2) not in s.coeffs
        # the table's own integers, only nonzero ones, none above the bound
        assert all(type(c) is int and c and b <= 8 for (_, b), c in s.coeffs.items())
        assert s.coeffs == {(x, x + 2 * y + 1): small_table.levels[x + 2 * y][y]
                            for x in range(8) for y in range(4) if x + 2 * y < 8}
        # support is exactly x + k odd with k = x + 2y + 1 > x
        assert all((a + b) % 2 == 1 and b > a for (a, b) in s.coeffs)
        # in u and v they are the T(x, y)
        assert hurwitz_to_fractions(s).coeffs == {
            (x, x + 2 * y + 1): small_table.entry(x, y)
            for x in range(8) for y in range(4) if x + 2 * y < 8}

    def test_bivariate_bound_read_off_the_table(self, small_table):
        # level w puts its entries at second exponent w + 1
        for weight_bound in (0, 1, 30):
            s = bivariate_generating_series(truncated(small_table, weight_bound + 1))
            assert s.v_bound == weight_bound + 1
            assert max(b for _, b in s.coeffs) == weight_bound + 1

    def test_coefficientwise_lower_bound(self, small_table):
        # h(n) >= u_n, that is g(n) 2^n >= a_n
        max_n = small_table.weight_bound // 2
        for n, a in enumerate(scaled_tangent_series(max_n)):
            assert small_table.morse_count(n) << n >= a


class TestPdeResidual:
    @pytest.mark.parametrize("order", [25, 80])  # 80: the order README times
    def test_residual_vanishes_at_order(self, order):
        table = extend_table(None, order - 1)
        residual = pde_residual(bivariate_generating_series(table))
        assert residual == ({}, order - 1)

    def test_residual_vanishes_for_all_smaller_truncations(self, small_table):
        for v_max in range(1, small_table.weight_bound + 2):
            residual = pde_residual(bivariate_generating_series(truncated(small_table, v_max)))
            assert residual == ({}, v_max - 1)

    def test_residual_vanishes_at_order_200(self, acceptance_max_n, request):
        if acceptance_max_n < 200:
            pytest.skip("the weight-400 table is built at the full gate only")
        table = request.getfixturevalue("census_table")
        # census_table has weight 400 here: order 200 reads its levels 0..199
        residual = pde_residual(bivariate_generating_series(truncated(table, 200)))
        assert residual == ({}, 199)

    def test_forced_constant_cancellation(self, small_table):
        # dV shifts sigma(0, 1) = S'(0, 0) = 1 to the constant, where the
        # flux's U contributes dU(U) = 1 and cancels it
        xi = bivariate_generating_series(truncated(small_table, 6))
        assert xi.coeffs[(0, 1)] == 1
        assert (0, 0) not in pde_residual(xi).coeffs
        no_constant = Series2({key: c for key, c in xi.coeffs.items() if key != (0, 1)}, 6)
        assert pde_residual(no_constant).coeffs[(0, 0)] == -1

    def test_residual_detects_a_perturbation(self, small_table):
        xi = bivariate_generating_series(truncated(small_table, 10))
        coeffs = dict(xi.coeffs)
        coeffs[(1, 4)] += 1  # S'(1, 1) = 44 becomes 45
        perturbed = Series2(coeffs, xi.v_bound)
        residual = pde_residual(perturbed)
        assert residual.coeffs
        assert residual == reference_pde_residual(hurwitz_to_fractions(perturbed))

    def test_every_single_perturbation_is_caught(self):
        # each S' of weight <= 14 in turn, plus one: the residual converts
        # R(a, b) / (b! 2^((a+b)/2)) at a > 0 too
        xi = bivariate_generating_series(extend_table(None, 14))
        for key in xi.coeffs:
            perturbed = Series2({**xi.coeffs, key: xi.coeffs[key] + 1}, xi.v_bound)
            residual = pde_residual(perturbed)
            assert residual.coeffs, key
            assert residual == reference_pde_residual(hurwitz_to_fractions(perturbed)), key

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(sparse_series)
    def test_matches_reference_on_sparse_series(self, series):
        assert pde_residual(series) == reference_pde_residual(hurwitz_to_fractions(series))


class TestSeries2Basics:
    def test_derivatives(self):
        s = ReferenceSeries2({(2, 3): Fraction(1, 2)})
        assert s.derivative_u().coeffs == {(1, 3): 1}
        assert s.derivative_v().coeffs == {(2, 2): Fraction(3, 2)}

    def test_mul_respects_bound(self):
        a = ReferenceSeries2({(0, 1): 1, (0, 3): 1}, v_bound=3)
        product = a * a
        assert product.v_bound == 3
        assert product.coeffs == {(0, 2): 1}  # (0, 4) and (0, 6) truncated away

    def test_derivative_v_drops_bound(self):
        s = ReferenceSeries2({(0, 3): 1}, v_bound=3)
        assert s.derivative_v().v_bound == 2
