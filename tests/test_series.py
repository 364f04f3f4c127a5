import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsecensus.recurrence import TableRangeError, extend_table
from morsecensus.series import (
    Series1,
    Series2,
    bivariate_generating_series,
    ode_comparison_series,
    pde_residual,
    scaled_tangent_series,
    tangent_series_bernoulli,
)


def sine_series(order):
    coeffs = [Fraction(0)] * (order + 1)
    for k in range(0, order + 1, 2):
        if k + 1 <= order:
            coeffs[k + 1] = Fraction((-1) ** (k // 2), math.factorial(k + 1))
    return Series1(coeffs)


def cosine_series(order):
    coeffs = [Fraction(0)] * (order + 1)
    for k in range(0, order + 1, 2):
        coeffs[k] = Fraction((-1) ** (k // 2), math.factorial(k))
    return Series1(coeffs)


def cauchy_product(a, b):
    """Product of two series truncated to the smaller order."""
    n = min(a.order, b.order)
    return Series1([sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1))
                    for k in range(n + 1)])


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
    coeffs = [Fraction(0)] * (2 * order_index + 2)
    for k, c in enumerate(odd):
        coeffs[2 * k + 1] = c
    return Series1(coeffs)


sparse_series = st.builds(
    Series2,
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 9)),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        max_size=12,
    ),
    st.one_of(st.none(), st.integers(0, 8)),
)


class TestSeries1Arithmetic:
    def test_tan_times_cos_is_sin(self):
        tan = tangent_series_bernoulli(4)  # order 9
        assert cauchy_product(tan, cosine_series(9)) == sine_series(9)


class TestTangentRoutes:
    def test_bernoulli_route_first_coefficients(self):
        tan = tangent_series_bernoulli(2)
        assert tan.coefficient(1) == 1
        assert tan.coefficient(3) == Fraction(1, 3)
        assert tan.coefficient(5) == Fraction(2, 15)
        assert tan.coefficient(2) == 0

    def test_ode_route_first_coefficients(self):
        ode = ode_comparison_series(2)
        assert ode.coefficient(1) == 1
        assert ode.coefficient(3) == Fraction(1, 6)
        assert ode.coefficient(5) == Fraction(1, 30)

    def test_scaled_tangent_first_coefficients(self):
        scaled = scaled_tangent_series(2)
        assert scaled.coefficient(1) == 1
        assert scaled.coefficient(3) == Fraction(1, 6)
        assert scaled.coefficient(5) == Fraction(1, 30)

    def test_ode_route_matches_fraction_recurrence(self):
        assert ode_comparison_series(60) == reference_ode_series(60)

    def test_two_routes_agree_exactly(self):
        # the same function derived independently via Bernoulli numbers
        # and via the quadratic ODE; exact equality through t^101
        assert scaled_tangent_series(50) == ode_comparison_series(50)


class TestGeneratingSeries:
    def test_bivariate_coefficients(self, small_table):
        s = bivariate_generating_series(small_table, 8)
        assert s.coefficient(0, 1) == 1
        assert s.coefficient(1, 2) == Fraction(1, 2)
        assert s.coefficient(0, 2) == 0
        # support is exactly the second exponents x + 2y + 1
        assert all((b - a) % 2 == 1 and b > a for (a, b) in s.coeffs)

    def test_bivariate_range_check(self, small_table):
        with pytest.raises(TableRangeError):
            bivariate_generating_series(small_table, small_table.weight_bound + 2)

    def test_coefficientwise_lower_bound(self, small_table):
        ode = scaled_tangent_series(small_table.max_index)
        for n in range(small_table.max_index + 1):
            assert small_table.normalized_count(n) >= ode.coefficient(2 * n + 1)


class TestPdeResidual:
    def test_residual_vanishes_at_order_25(self):
        table = extend_table(None, 24)
        residual = pde_residual(bivariate_generating_series(table, 25))
        assert residual.v_bound == 24
        assert residual.is_zero()

    def test_residual_vanishes_for_all_smaller_truncations(self, small_table):
        for v_max in range(1, small_table.weight_bound + 2):
            assert pde_residual(bivariate_generating_series(small_table, v_max)).is_zero()

    def test_forced_constant_cancellation(self, small_table):
        # d/dv contributes exactly 1 at the constant (from T(0,0) v), and the
        # source's 1 cancels it
        xi = bivariate_generating_series(small_table, 6)
        assert xi.coefficient(0, 1) == 1
        assert pde_residual(xi).coefficient(0, 0) == 0
        no_constant = Series2({key: c for key, c in xi.coeffs.items() if key != (0, 1)}, 6)
        assert pde_residual(no_constant).coefficient(0, 0) == -1

    def test_residual_detects_a_perturbation(self, small_table):
        xi = bivariate_generating_series(small_table, 10)
        coeffs = dict(xi.coeffs)
        coeffs[(1, 4)] = coeffs.get((1, 4), 0) + Fraction(1, 5)
        perturbed = Series2(coeffs, xi.v_bound)
        residual = pde_residual(perturbed)
        assert not residual.is_zero()
        assert residual == reference_pde_residual(perturbed)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(sparse_series)
    def test_matches_reference_on_sparse_series(self, series):
        assert pde_residual(series) == reference_pde_residual(series)


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

    def test_lines_golden(self):
        s = Series2({(1, 2): Fraction(1, 2), (0, 1): 1})
        assert s.lines() == ["0 1: 1", "1 2: 1/2"]

    def test_construction_drops_zeros_and_coefficients_above_the_bound(self):
        s = Series2({(0, 1): 1, (0, 2): 0, (1, 4): 3}, v_bound=3)
        assert s.coeffs == {(0, 1): 1}
        assert not s.is_zero() and Series2({}, 3).is_zero()
