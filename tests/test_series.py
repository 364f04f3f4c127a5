import math
from fractions import Fraction

import pytest

from morsecensus.recurrence import TableRangeError, build_table
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
        table = build_table(24)
        residual = pde_residual(bivariate_generating_series(table, 25))
        assert residual.v_bound == 24
        assert residual.is_zero()

    def test_residual_vanishes_for_all_smaller_truncations(self, small_table):
        for v_max in range(1, small_table.weight_bound + 2):
            assert pde_residual(bivariate_generating_series(small_table, v_max)).is_zero()

    def test_forced_constant_cancellation(self, small_table):
        # d/dv contributes exactly 1 at the constant, cancelled by the source's 1
        xi = bivariate_generating_series(small_table, 6)
        assert xi.derivative_v().coefficient(0, 0) == 1
        assert pde_residual(xi).coefficient(0, 0) == 0

    def test_residual_detects_a_perturbation(self, small_table):
        xi = bivariate_generating_series(small_table, 10)
        perturbed = xi + Series2.monomial(Fraction(1, 5), u_exp=1, v_exp=4)
        assert not pde_residual(perturbed).is_zero()


class TestSeries2Basics:
    def test_derivatives(self):
        s = Series2({(2, 3): Fraction(1, 2)})
        assert s.derivative_u() == Series2({(1, 3): 1})
        assert s.derivative_v() == Series2({(2, 2): Fraction(3, 2)})

    def test_mul_respects_bound(self):
        a = Series2({(0, 1): 1, (0, 3): 1}, v_bound=3)
        product = a * a
        assert product.v_bound == 3
        assert product.coefficient(0, 2) == 1
        assert product.coefficient(0, 4) == 0  # truncated away
        assert product.coefficient(0, 6) == 0

    def test_derivative_v_drops_bound(self):
        s = Series2({(0, 3): 1}, v_bound=3)
        assert s.derivative_v().v_bound == 2

    def test_lines_golden(self):
        s = Series2({(1, 2): Fraction(1, 2), (0, 1): 1})
        assert s.lines() == ["0 1: 1", "1 2: 1/2"]
