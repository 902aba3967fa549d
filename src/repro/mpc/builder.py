"""Boolean-over-field circuit builder.

Wraps :class:`repro.mpc.circuit.Circuit` with the boolean idioms needed to
compile the function ``g`` of Lemma 6.4: XOR, NOT and the Lagrange
equality indicator for small sums.  Bits are represented as
field residues in {0, 1}; the helpers assume their arguments are bits.
"""

from __future__ import annotations

from typing import Iterable

from ..crypto.field import PrimeField
from ..errors import InvalidParameterError
from .circuit import Circuit


class CircuitBuilder:
    """Fluent construction of boolean-ish circuits over GF(p)."""

    def __init__(self, field_: PrimeField):
        self.circuit = Circuit(field_)
        self._zero = None
        self._one = None

    # -- primitives -----------------------------------------------------------

    def input(self, owner: int, name: str) -> int:
        return self.circuit.input(owner, name)

    def const(self, value: int) -> int:
        return self.circuit.const(value)

    @property
    def zero(self) -> int:
        if self._zero is None:
            self._zero = self.const(0)
        return self._zero

    @property
    def one(self) -> int:
        if self._one is None:
            self._one = self.const(1)
        return self._one

    def add(self, a: int, b: int) -> int:
        return self.circuit.add(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.circuit.sub(a, b)

    def mul(self, a: int, b: int) -> int:
        return self.circuit.mul(a, b)

    def scale(self, a: int, scalar: int) -> int:
        return self.circuit.scale(a, scalar)

    def sum(self, wires: Iterable[int]) -> int:
        wires = list(wires)
        if not wires:
            return self.zero
        total = wires[0]
        for wire in wires[1:]:
            total = self.add(total, wire)
        return total

    # -- boolean helpers ---------------------------------------------------------

    def bit_not(self, a: int) -> int:
        return self.sub(self.one, a)

    def bit_xor(self, a: int, b: int) -> int:
        # a + b - 2ab
        return self.sub(self.add(a, b), self.scale(self.mul(a, b), 2))

    def xor_all(self, wires: Iterable[int]) -> int:
        wires = list(wires)
        if not wires:
            return self.zero
        result = wires[0]
        for wire in wires[1:]:
            result = self.bit_xor(result, wire)
        return result

    def equals_const(self, wire: int, target: int, max_value: int) -> int:
        """Indicator bit for ``wire == target`` given ``wire`` in [0, max_value].

        Uses the Lagrange indicator polynomial over the points 0..max_value,
        so the field modulus must exceed ``max_value``.  Its public
        denominator is computed on residues while the circuit is built, so
        building charges no counter.
        """
        field_ = self.circuit.field
        if max_value >= field_.modulus:
            raise InvalidParameterError(
                "field too small for equality indicator range"
            )
        if not 0 <= target <= max_value:
            raise InvalidParameterError("target outside declared range")
        # indicator(w) = prod_{v != target} (w - v) / (target - v)
        numerator = None
        denominator = 1
        for v in range(max_value + 1):
            if v == target:
                continue
            term = self.sub(wire, self.const(v))
            numerator = term if numerator is None else self.mul(numerator, term)
            denominator = denominator * (target - v) % field_.modulus
        if numerator is None:  # max_value == 0 and target == 0
            return self.one
        return self.scale(numerator, field_.inverse(denominator))

    def output(self, wire: int) -> None:
        self.circuit.mark_output(wire)

    def build(self) -> Circuit:
        return self.circuit
