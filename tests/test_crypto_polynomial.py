"""Tests for polynomials and Lagrange coefficients."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.field import PrimeField
from repro.crypto.polynomial import Polynomial, lagrange_coefficients_at_zero
from repro.errors import InvalidParameterError, ShareError

F = PrimeField(101)

coeff_lists = st.lists(st.integers(min_value=0, max_value=100), max_size=6)


class TestPolynomialBasics:
    def test_zero_polynomial(self):
        zero = Polynomial.zero(F)
        assert zero.degree == -1
        assert zero(5).value == 0

    def test_trailing_zeros_stripped(self):
        poly = Polynomial(F, [1, 2, 0, 0])
        assert poly.degree == 1

    def test_constant(self):
        poly = Polynomial.constant(F, 42)
        assert poly.degree == 0
        assert poly(17) == F.element(42)

    def test_evaluation_horner(self):
        poly = Polynomial(F, [3, 2, 1])  # 3 + 2x + x^2
        assert poly(2) == F.element(3 + 4 + 4)

    def test_random_degree_and_constant_term(self):
        rng = random.Random(7)
        poly = Polynomial.random(F, 3, rng, constant_term=9)
        assert poly.degree <= 3
        assert poly(0) == F.element(9)

    def test_random_negative_degree_rejected(self):
        with pytest.raises(InvalidParameterError):
            Polynomial.random(F, -1, random.Random(0))

    def test_repr(self):
        assert "Polynomial" in repr(Polynomial(F, [1, 2]))
        assert repr(Polynomial.zero(F)) == "Polynomial(0)"


class TestPolynomialArithmetic:
    @given(coeff_lists, coeff_lists, st.integers(min_value=0, max_value=100))
    def test_addition_pointwise(self, a, b, x):
        pa, pb = Polynomial(F, a), Polynomial(F, b)
        assert (pa + pb)(x) == pa(x) + pb(x)

    @given(coeff_lists, coeff_lists, st.integers(min_value=0, max_value=100))
    def test_multiplication_pointwise(self, a, b, x):
        pa, pb = Polynomial(F, a), Polynomial(F, b)
        assert (pa * pb)(x) == pa(x) * pb(x)

    @given(coeff_lists, coeff_lists, st.integers(min_value=0, max_value=100))
    def test_subtraction_pointwise(self, a, b, x):
        pa, pb = Polynomial(F, a), Polynomial(F, b)
        assert (pa - pb)(x) == pa(x) - pb(x)

    @given(coeff_lists, st.integers(min_value=0, max_value=100))
    def test_scalar_multiplication(self, a, x):
        poly = Polynomial(F, a)
        assert (poly * 3)(x) == poly(x) * 3
        assert (3 * poly)(x) == poly(x) * 3

    def test_mul_by_zero_polynomial(self):
        poly = Polynomial(F, [1, 2, 3])
        assert poly * Polynomial.zero(F) == Polynomial.zero(F)

    def test_degree_of_product(self):
        pa = Polynomial(F, [1, 1])
        pb = Polynomial(F, [1, 0, 1])
        assert (pa * pb).degree == 3

    def test_mixed_fields_rejected(self):
        other = Polynomial(PrimeField(97), [1])
        with pytest.raises(InvalidParameterError):
            Polynomial(F, [1]) + other

    def test_equality_and_hash(self):
        assert Polynomial(F, [1, 2]) == Polynomial(F, [1, 2, 0])
        assert hash(Polynomial(F, [1, 2])) == hash(Polynomial(F, [1, 2, 0]))


class TestInterpolation:
    def test_coefficients_at_zero_match_interpolation(self):
        rng = random.Random(3)
        poly = Polynomial.random(F, 4, rng)
        xs = [1, 2, 3, 4, 5]
        lambdas = lagrange_coefficients_at_zero(F, xs)
        total = F.zero()
        for lam, x in zip(lambdas, xs, strict=True):
            total = total + lam * poly(x)
        assert total == poly(0)

    def test_coefficients_duplicate_x_rejected(self):
        with pytest.raises(ShareError):
            lagrange_coefficients_at_zero(F, [1, 1, 2])

    def test_coefficients_sum_to_one(self):
        # Interpolating the constant-1 polynomial must give exactly 1.
        lambdas = lagrange_coefficients_at_zero(F, [2, 4, 6])
        total = F.zero()
        for lam in lambdas:
            total = total + lam
        assert total == F.one()
