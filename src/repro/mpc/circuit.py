"""Arithmetic circuit intermediate representation.

Circuits are the lingua franca between the function specifications (such
as the leaky function ``g`` of Lemma 6.4) and the evaluation backends
(plain evaluation, BGW secret-shared evaluation).  A circuit is a DAG of
gates over a prime field:

* ``INPUT``  — a named input wire owned by one party;
* ``CONST``  — a public constant;
* ``ADD`` / ``SUB`` / ``MUL`` — binary arithmetic;
* ``SCALE``  — multiplication by a public constant (linear, so free in BGW).

Outputs are an ordered list of wires.  Gates are identified by dense
integer ids in topological order (gates can only reference earlier gates),
so :mod:`repro.mpc.bgw` derives its round schedule in one pass over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..crypto.field import PrimeField
from ..errors import InvalidParameterError

INPUT = "input"
CONST = "const"
ADD = "add"
SUB = "sub"
MUL = "mul"
SCALE = "scale"

_OPS = (INPUT, CONST, ADD, SUB, MUL, SCALE)


@dataclass(frozen=True)
class Gate:
    """One circuit gate.

    Attributes:
        op: one of the module-level op constants.
        args: ids of argument gates (empty for INPUT/CONST).
        owner: owning party for INPUT gates.
        name: input wire name (unique per owner) for INPUT gates.
        constant: residue for CONST, or the scalar for SCALE.
    """

    op: str
    args: Tuple[int, ...] = ()
    owner: Optional[int] = None
    name: Optional[str] = None
    constant: Optional[int] = None


class Circuit:
    """A mutable arithmetic circuit over a fixed prime field."""

    def __init__(self, field_: PrimeField):
        self.field = field_
        self.gates: List[Gate] = []
        self.outputs: List[int] = []
        self._inputs_by_key: Dict[Tuple[int, str], int] = {}

    # -- construction ---------------------------------------------------------

    def _append(self, gate: Gate) -> int:
        for arg in gate.args:
            if not 0 <= arg < len(self.gates):
                raise InvalidParameterError(f"gate argument {arg} out of range")
        self.gates.append(gate)
        return len(self.gates) - 1

    def input(self, owner: int, name: str) -> int:
        """Declare (or reuse) the input wire ``name`` owned by ``owner``."""
        key = (owner, name)
        if key in self._inputs_by_key:
            return self._inputs_by_key[key]
        gate_id = self._append(Gate(op=INPUT, owner=owner, name=name))
        self._inputs_by_key[key] = gate_id
        return gate_id

    def const(self, value: int) -> int:
        return self._append(Gate(op=CONST, constant=value % self.field.modulus))

    def add(self, a: int, b: int) -> int:
        return self._append(Gate(op=ADD, args=(a, b)))

    def sub(self, a: int, b: int) -> int:
        return self._append(Gate(op=SUB, args=(a, b)))

    def mul(self, a: int, b: int) -> int:
        return self._append(Gate(op=MUL, args=(a, b)))

    def scale(self, a: int, scalar: int) -> int:
        return self._append(Gate(op=SCALE, args=(a,), constant=scalar % self.field.modulus))

    def mark_output(self, gate_id: int) -> None:
        if not 0 <= gate_id < len(self.gates):
            raise InvalidParameterError(f"output gate {gate_id} out of range")
        self.outputs.append(gate_id)

    # -- queries ----------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.gates)

    def input_wires(self) -> List[Tuple[int, str, int]]:
        """All input wires as (owner, name, gate_id), in declaration order."""
        return [
            (gate.owner, gate.name, gate_id)
            for gate_id, gate in enumerate(self.gates)
            if gate.op == INPUT
        ]

    def inputs_of(self, owner: int) -> List[Tuple[str, int]]:
        return [
            (name, gate_id)
            for gate_owner, name, gate_id in self.input_wires()
            if gate_owner == owner
        ]

    # -- reference evaluation ------------------------------------------------------

    def evaluate(self, inputs: Dict[Tuple[int, str], int]) -> List[int]:
        """Evaluate in the clear; ``inputs`` maps (owner, name) -> value.

        Returns one residue per output.  Missing inputs default to 0,
        matching the protocol convention for absent contributions.  This
        is the reference the BGW evaluation is checked against, not a
        protocol step, so it charges no counter.
        """
        modulus = self.field.modulus
        values: List[int] = []
        for gate in self.gates:
            if gate.op == INPUT:
                value = inputs.get((gate.owner, gate.name), 0)
            elif gate.op == CONST:
                value = gate.constant
            elif gate.op == ADD:
                value = values[gate.args[0]] + values[gate.args[1]]
            elif gate.op == SUB:
                value = values[gate.args[0]] - values[gate.args[1]]
            elif gate.op == MUL:
                value = values[gate.args[0]] * values[gate.args[1]]
            elif gate.op == SCALE:
                value = values[gate.args[0]] * gate.constant
            else:  # pragma: no cover - _OPS is closed
                raise InvalidParameterError(f"unknown op {gate.op}")
            values.append(value % modulus)
        return [values[o] for o in self.outputs]
