"""Tests for the random-oracle helpers."""

import pytest

from repro.crypto.prg import random_oracle, random_oracle_int
from repro.errors import InvalidParameterError


class TestRandomOracle:
    def test_deterministic(self):
        assert random_oracle("a", 1) == random_oracle("a", 1)

    def test_input_sensitivity(self):
        assert random_oracle("a", 1) != random_oracle("a", 2)
        assert random_oracle("a") != random_oracle("b")

    def test_length(self):
        assert len(random_oracle("x", length=100)) == 100
        assert len(random_oracle("x", length=1)) == 1

    def test_prefix_consistency(self):
        # Longer outputs extend shorter ones (counter-mode construction).
        short = random_oracle("x", length=16)
        long = random_oracle("x", length=64)
        assert long.startswith(short)

    def test_invalid_length(self):
        with pytest.raises(InvalidParameterError):
            random_oracle("x", length=0)

    def test_int_in_range(self):
        for modulus in (2, 3, 97, 2**61 - 1):
            value = random_oracle_int("y", modulus=modulus)
            assert 0 <= value < modulus

    def test_int_invalid_modulus(self):
        with pytest.raises(InvalidParameterError):
            random_oracle_int("y", modulus=0)

    def test_int_roughly_uniform_parity(self):
        bits = [random_oracle_int("z", i, modulus=2) for i in range(400)]
        ones = sum(bits)
        assert 140 < ones < 260
