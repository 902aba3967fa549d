"""Tests for Schnorr groups and deterministic parameter generation."""

import pytest

from repro.crypto.field import is_probable_prime
from repro.crypto.group import (
    MAX_SECURITY_BITS,
    MIN_SECURITY_BITS,
    SchnorrGroup,
    safe_prime_parameters,
)
from repro.errors import InvalidParameterError

GROUP = SchnorrGroup.for_security(24)


class TestParameterGeneration:
    @pytest.mark.parametrize("bits", [16, 24, 32])
    def test_safe_prime_shape(self, bits):
        p, q = safe_prime_parameters(bits)
        assert p == 2 * q + 1
        assert is_probable_prime(p)
        assert is_probable_prime(q)
        assert q.bit_length() == bits

    def test_deterministic(self):
        assert safe_prime_parameters(24) == safe_prime_parameters(24)

    def test_distinct_levels_distinct_groups(self):
        assert safe_prime_parameters(16) != safe_prime_parameters(24)

    @pytest.mark.parametrize("bits", [MIN_SECURITY_BITS - 1, MAX_SECURITY_BITS + 1])
    def test_out_of_range_rejected(self, bits):
        with pytest.raises(InvalidParameterError):
            safe_prime_parameters(bits)

    def test_group_constructor_validates(self):
        with pytest.raises(InvalidParameterError):
            SchnorrGroup(10, 4)  # not primes / not safe-prime shape
        with pytest.raises(InvalidParameterError):
            SchnorrGroup(23, 7)  # p != 2q+1


class TestGroupStructure:
    def test_generator_has_order_q(self):
        g = GROUP.generator
        assert int(g ** GROUP.q) == 1
        assert int(g) != 1

    def test_membership(self):
        assert GROUP.is_member(int(GROUP.generator))
        assert not GROUP.is_member(0)
        assert not GROUP.is_member(GROUP.p)

    def test_element_rejects_non_members(self):
        # p - 1 has order 2, not q, so it is not a subgroup member.
        with pytest.raises(InvalidParameterError):
            GROUP.element(GROUP.p - 1)

    def test_exponent_arithmetic(self):
        g = GROUP.generator
        assert (g ** 5) * (g ** 7) == g ** 12
        assert (g ** 5).inverse() == g ** (GROUP.q - 5)
        assert (g ** 5) / (g ** 3) == g ** 2

    def test_exponent_reduction_mod_q(self):
        g = GROUP.generator
        assert g ** (GROUP.q + 3) == g ** 3

    def test_power_of_identity_exponent(self):
        assert int(GROUP.power(0)) == 1

    def test_mixing_groups_rejected(self):
        other = SchnorrGroup.for_security(16)
        with pytest.raises(InvalidParameterError):
            GROUP.generator * other.generator

    def test_hash_to_element_member_and_deterministic(self):
        h1 = GROUP.hash_to_element(b"seed")
        h2 = GROUP.hash_to_element(b"seed")
        h3 = GROUP.hash_to_element(b"other")
        assert h1 == h2
        assert h1 != h3
        assert GROUP.is_member(int(h1))

    def test_equality_and_hash(self):
        same = SchnorrGroup.for_security(24)
        assert same == GROUP
        assert hash(same) == hash(GROUP)
        assert GROUP.generator == same.generator

    def test_exponent_field_modulus(self):
        assert GROUP.exponent_field.modulus == GROUP.q

    def test_repr(self):
        assert "SchnorrGroup" in repr(GROUP)
        assert "GroupElement" in repr(GROUP.generator)
