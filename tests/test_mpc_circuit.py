"""Tests for the circuit IR and the boolean circuit builder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import PrimeField
from repro.errors import InvalidParameterError
from repro.mpc.builder import CircuitBuilder
from repro.mpc.circuit import Circuit

F = PrimeField(101)

bits = st.integers(min_value=0, max_value=1)


def evaluate_single(builder, inputs):
    return [int(v) for v in builder.build().evaluate(inputs)]


class TestCircuitCore:
    def test_input_reuse(self):
        circuit = Circuit(F)
        a = circuit.input(1, "x")
        b = circuit.input(1, "x")
        assert a == b
        assert circuit.input(2, "x") != a

    def test_arg_range_validated(self):
        circuit = Circuit(F)
        with pytest.raises(InvalidParameterError):
            circuit.add(0, 1)

    def test_output_range_validated(self):
        circuit = Circuit(F)
        with pytest.raises(InvalidParameterError):
            circuit.mark_output(0)

    def test_basic_arithmetic_evaluation(self):
        circuit = Circuit(F)
        x = circuit.input(1, "x")
        y = circuit.input(2, "y")
        s = circuit.add(x, y)
        d = circuit.sub(x, y)
        p = circuit.mul(x, y)
        k = circuit.scale(x, 7)
        c = circuit.const(9)
        for gate in (s, d, p, k, c):
            circuit.mark_output(gate)
        values = circuit.evaluate({(1, "x"): 5, (2, "y"): 3})
        assert [int(v) for v in values] == [8, 2, 15, 35, 9]

    def test_missing_inputs_default_zero(self):
        circuit = Circuit(F)
        x = circuit.input(1, "x")
        circuit.mark_output(x)
        assert int(circuit.evaluate({})[0]) == 0

    def test_inputs_of(self):
        circuit = Circuit(F)
        circuit.input(1, "x")
        circuit.input(1, "y")
        circuit.input(2, "x")
        assert [name for name, _ in circuit.inputs_of(1)] == ["x", "y"]
        assert len(circuit.inputs_of(3)) == 0


class TestBuilderBooleans:
    @given(bits, bits)
    @settings(max_examples=8, deadline=None)
    def test_xor_and_not(self, a, b):
        builder = CircuitBuilder(F)
        wa = builder.input(1, "a")
        wb = builder.input(2, "b")
        builder.output(builder.bit_xor(wa, wb))
        builder.output(builder.bit_not(wa))
        values = evaluate_single(builder, {(1, "a"): a, (2, "b"): b})
        assert values == [a ^ b, 1 - a]

    @given(st.lists(bits, min_size=1, max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_xor_all(self, values):
        builder = CircuitBuilder(F)
        wires = [builder.input(i + 1, "v") for i in range(len(values))]
        builder.output(builder.xor_all(wires))
        inputs = {(i + 1, "v"): v for i, v in enumerate(values)}
        expected = 0
        for v in values:
            expected ^= v
        assert evaluate_single(builder, inputs) == [expected]

    def test_xor_all_empty(self):
        builder = CircuitBuilder(F)
        builder.output(builder.xor_all([]))
        assert evaluate_single(builder, {}) == [0]

    def test_equals_const_full_range(self):
        for target in range(5):
            builder = CircuitBuilder(F)
            w = builder.input(1, "v")
            builder.output(builder.equals_const(w, target, 4))
            for value in range(5):
                got = evaluate_single(builder, {(1, "v"): value})
                assert got == [1 if value == target else 0]

    def test_equals_const_validation(self):
        builder = CircuitBuilder(F)
        w = builder.input(1, "v")
        with pytest.raises(InvalidParameterError):
            builder.equals_const(w, 6, 5000)  # range exceeds field
        with pytest.raises(InvalidParameterError):
            builder.equals_const(w, 7, 5)  # target outside range

    def test_equals_const_trivial_range(self):
        builder = CircuitBuilder(F)
        w = builder.input(1, "v")
        builder.output(builder.equals_const(w, 0, 0))
        assert evaluate_single(builder, {(1, "v"): 0}) == [1]

    def test_sum_empty(self):
        builder = CircuitBuilder(F)
        builder.output(builder.sum([]))
        assert evaluate_single(builder, {}) == [0]
