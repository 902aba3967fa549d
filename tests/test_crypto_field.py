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


class TestFieldArithmetic:
    @given(f97_ints.filter(lambda v: v % 97 != 0))
    def test_multiplicative_inverse(self, a):
        inverse = F97.inverse(a)
        assert 0 <= inverse < 97
        assert a * inverse % 97 == 1

    def test_zero_inverse_raises(self):
        for zero in (0, 97, -194):
            with pytest.raises(ZeroDivisionError):
                F97.inverse(zero)

    def test_random_elements_in_range(self):
        rng, reference = random.Random(1), random.Random(1)
        for _ in range(50):
            value = F97.random(rng)
            assert type(value) is int and 0 <= value < 97
            assert value == reference.randrange(97)  # one draw per value

    def test_repr_mentions_modulus(self):
        assert "GF(97)" == repr(F97)
