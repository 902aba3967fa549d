"""Tests for prime fields and primality utilities."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.field import PrimeField, is_probable_prime, next_prime
from repro.errors import InvalidParameterError

F97 = PrimeField(97)
F7 = PrimeField(7)

f97_ints = st.integers(min_value=-500, max_value=500)


class TestPrimality:
    @pytest.mark.parametrize("prime", [2, 3, 5, 7, 97, 101, 7919, 2**31 - 1])
    def test_known_primes(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize("composite", [0, 1, 4, 9, 91, 561, 1105, 2**32])
    def test_known_composites(self, composite):
        # 561 and 1105 are Carmichael numbers.
        assert not is_probable_prime(composite)

    def test_negative_not_prime(self):
        assert not is_probable_prime(-7)

    def test_next_prime(self):
        assert next_prime(90) == 97
        assert next_prime(97) == 97
        assert next_prime(2) == 2
        assert next_prime(0) == 2

    def test_next_prime_large(self):
        p = next_prime(10**12)
        assert is_probable_prime(p)
        assert p >= 10**12


class TestFieldConstruction:
    def test_rejects_composite_modulus(self):
        with pytest.raises(InvalidParameterError):
            PrimeField(15)

    def test_rejects_small_modulus(self):
        with pytest.raises(InvalidParameterError):
            PrimeField(1)

    def test_equality_by_modulus(self):
        assert PrimeField(97) == F97
        assert PrimeField(97) != F7

    def test_hashable(self):
        assert len({PrimeField(97), PrimeField(97), F7}) == 2

    def test_element_reduction(self):
        assert F7.element(10).value == 3
        assert F7.element(-1).value == 6

    def test_cross_field_coercion_rejected(self):
        with pytest.raises(InvalidParameterError):
            F97.element(F7.element(3))

    def test_contains(self):
        assert F7.element(1) in F7
        assert F97.element(1) not in F7


class TestFieldArithmetic:
    @given(f97_ints, f97_ints)
    def test_addition_commutes(self, a, b):
        assert F97.element(a) + F97.element(b) == F97.element(b) + F97.element(a)

    @given(f97_ints, f97_ints, f97_ints)
    def test_distributivity(self, a, b, c):
        x, y, z = F97.element(a), F97.element(b), F97.element(c)
        assert x * (y + z) == x * y + x * z

    @given(f97_ints)
    def test_additive_inverse(self, a):
        x = F97.element(a)
        assert (x + (-x)).value == 0

    @given(f97_ints.filter(lambda v: v % 97 != 0))
    def test_multiplicative_inverse(self, a):
        x = F97.element(a)
        assert (x * x.inverse()).value == 1

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            F97.zero().inverse()

    def test_division(self):
        assert F7.element(6) / F7.element(2) == F7.element(3)

    def test_right_operators_with_ints(self):
        assert 1 + F7.element(2) == F7.element(3)
        assert 1 - F7.element(2) == F7.element(6)
        assert 3 * F7.element(3) == F7.element(2)
        assert 6 / F7.element(2) == F7.element(3)

    @given(f97_ints, st.integers(min_value=0, max_value=200))
    def test_pow_matches_repeated_multiplication(self, a, e):
        x = F97.element(a)
        expected = F97.one()
        for _ in range(e % 12):
            expected = expected * x
        assert x ** (e % 12) == expected

    def test_negative_power_is_inverse_power(self):
        x = F97.element(5)
        assert x ** -2 == (x.inverse()) ** 2

    def test_fermat_little_theorem(self):
        for value in range(1, 7):
            assert F7.element(value) ** 6 == F7.one()

    def test_int_and_bool_conversion(self):
        assert int(F7.element(3)) == 3
        assert bool(F7.element(3))
        assert not bool(F7.zero())

    def test_random_elements_in_range(self):
        rng = random.Random(1)
        for _ in range(50):
            assert 0 <= F97.random(rng).value < 97

    def test_repr_mentions_modulus(self):
        assert "97" in repr(F97.element(5))
        assert "GF(97)" == repr(F97)

    def test_equality_against_int(self):
        assert F7.element(3) == 3
        assert F7.element(3) == 10  # reduced mod 7
        assert F7.element(3) != 4

    def test_elements_are_hashable_values(self):
        assert len({F7.element(3), F7.element(10)}) == 1
