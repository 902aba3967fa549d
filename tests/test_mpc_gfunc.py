"""Tests for the leaky function g (spec, functionality, circuit)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.mpc.gfunc import (
    GFunctionality,
    build_g_circuit,
    g_field,
    g_reference,
)

bits = st.integers(min_value=0, max_value=1)


class TestGReference:
    def test_no_raised_bits_is_identity(self):
        rng = random.Random(0)
        assert g_reference([(1, 0), (0, 0), (1, 0)], rng) == (1, 0, 1)

    def test_one_raised_bit_is_identity(self):
        rng = random.Random(0)
        assert g_reference([(1, 1), (0, 0), (1, 0)], rng) == (1, 0, 1)

    def test_three_raised_bits_is_identity(self):
        rng = random.Random(0)
        assert g_reference([(1, 1), (0, 1), (1, 1)], rng) == (1, 0, 1)

    @given(st.lists(st.tuples(bits, bits), min_size=2, max_size=7), st.integers())
    @settings(max_examples=100, deadline=None)
    def test_xor_invariant_with_two_raised(self, pairs, seed):
        """Claim 6.6: with exactly two raised bits, XOR of outputs is 0...
        and in every other case the outputs equal the inputs."""
        rng = random.Random(seed)
        w = g_reference(pairs, rng)
        raised = [i for i, (_, b) in enumerate(pairs) if b == 1]
        if len(raised) == 2:
            xor = 0
            for value in w:
                xor ^= value
            assert xor == 0
        else:
            assert w == tuple(x for x, _ in pairs)

    @given(st.lists(st.tuples(bits, bits), min_size=2, max_size=7), st.integers())
    @settings(max_examples=50, deadline=None)
    def test_untouched_coordinates_pass_through(self, pairs, seed):
        rng = random.Random(seed)
        w = g_reference(pairs, rng)
        raised = [i for i, (_, b) in enumerate(pairs) if b == 1]
        rigged = set(raised[:2]) if len(raised) == 2 else set()
        for i, (x, _) in enumerate(pairs):
            if i not in rigged:
                assert w[i] == x

    def test_rigged_coordinates_use_lowest_two_indices(self):
        # Parties 2 and 4 (1-based) raise bits; they become l1 < l2.
        pairs = [(1, 0), (0, 1), (1, 0), (0, 1), (1, 0)]
        # x = 1,0,1,0,1; y = x1^x3^x5 = 1.
        seen = set()
        for seed in range(20):
            w = g_reference(pairs, random.Random(seed))
            assert w[0] == 1 and w[2] == 1 and w[4] == 1
            assert w[1] ^ w[3] == 1  # r and r^y with y=1
            seen.add(w[1])
        assert seen == {0, 1}  # r is actually random

    def test_r_is_uniform(self):
        pairs = [(0, 1), (0, 1), (0, 0)]
        ones = sum(
            g_reference(pairs, random.Random(seed))[0] for seed in range(400)
        )
        assert 140 < ones < 260

    def test_malformed_inputs_coerced(self):
        rng = random.Random(1)
        assert g_reference([None, (1, 0), ("x", "y")], rng) == (0, 1, 0)
        assert g_reference([(5, 9), (1, 0)], rng) == (0, 1)


class TestGFunctionality:
    def test_everyone_gets_same_vector(self):
        functionality = GFunctionality(4)
        outputs = functionality.evaluate(
            {1: (1, 0), 2: (0, 0), 3: (1, 0), 4: (0, 0)}, random.Random(0)
        )
        assert len(outputs) == 4
        assert len({outputs[i] for i in outputs}) == 1
        assert outputs[1] == (1, 0, 1, 0)

    def test_missing_parties_default(self):
        functionality = GFunctionality(3)
        outputs = functionality.evaluate({2: (1, 0)}, random.Random(0))
        assert outputs[1] == (0, 1, 0)


class TestGCircuit:
    def test_field_choice(self):
        assert g_field(5).modulus > 10

    def test_too_few_parties_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_g_circuit(1)

    def test_small_field_rejected(self):
        from repro.crypto.field import PrimeField

        with pytest.raises(InvalidParameterError):
            build_g_circuit(5, PrimeField(5))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_circuit_matches_reference_exhaustively(self, n):
        """For every input combination and both coin values, the circuit
        equals the reference implementation of g."""
        circuit = build_g_circuit(n)
        for xs in itertools.product((0, 1), repeat=n):
            for b_mask in itertools.product((0, 1), repeat=n):
                for coin in (0, 1):
                    inputs = {}
                    for i in range(1, n + 1):
                        inputs[(i, "x")] = xs[i - 1]
                        inputs[(i, "b")] = b_mask[i - 1]
                        inputs[(i, "rho")] = coin if i == 1 else 0

                    class FixedCoin:
                        def __init__(self, bit):
                            self.bit = bit

                        def randrange(self, _):
                            return self.bit

                    expected = g_reference(
                        list(zip(xs, b_mask, strict=True)), FixedCoin(coin)
                    )
                    got = tuple(
                        int(v) for v in circuit.evaluate(inputs)
                    )
                    assert got == expected

    def test_coin_is_xor_of_contributions(self):
        n = 3
        circuit = build_g_circuit(n)
        # Parties 1 and 2 raise bits; all x = 0 so w1 = r, w2 = r.
        base = {(i, "x"): 0 for i in range(1, n + 1)}
        base.update({(1, "b"): 1, (2, "b"): 1, (3, "b"): 0})
        for rhos in itertools.product((0, 1), repeat=n):
            inputs = dict(base)
            for i in range(1, n + 1):
                inputs[(i, "rho")] = rhos[i - 1]
            got = [int(v) for v in circuit.evaluate(inputs)]
            r = rhos[0] ^ rhos[1] ^ rhos[2]
            assert got == [r, r, 0]
