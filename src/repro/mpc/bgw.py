"""BGW-style secret-shared circuit evaluation (honest majority, 2t < n).

The classic Ben-Or--Goldwasser--Wigderson construction [2], in its
semi-honest form with the Gennaro--Rabin--Rabin resharing-based degree
reduction:

1. *Input round* — every party Shamir-shares each of its input wires.
2. *Multiplication rounds* — linear gates are local; each layer of
   multiplication gates costs one round in which parties locally multiply
   their shares (degree 2t) and reshare the products back down to degree t.
3. *Output round* — shares of output wires are exchanged and interpolated.

Security holds against t < n/2 passively corrupted parties.  That is all
Claim 6.5 needs for protocol Θ: the adversary used in Lemma 6.4 deviates
only by *choosing* its inputs (setting the auxiliary bit), which the ideal
model permits anyway.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from ..crypto.field import FieldElement, PrimeField
from ..crypto.polynomial import lagrange_coefficients_at_zero
from ..crypto.secret_sharing import ShamirSharing, Share
from ..errors import InvalidParameterError, ShareError
from ..net.message import send
from ..obs import runtime as _obs
from .circuit import ADD, CONST, INPUT, MUL, SCALE, SUB, Circuit


def recombine(
    field_: PrimeField, lagrange: Sequence[int], received: Mapping[int, int]
) -> FieldElement:
    """``sum_j lagrange[j-1] * received[j]`` over parties ``j = 1..n``.

    The degree-reduction step: party ``j`` reshared its degree-2t product
    share, and the Lagrange coefficients at zero for ``x = 1..n`` (as ints)
    recombine the subshares into a degree-t share of the product.  Summed
    on ints and charged at the boxed loop's cost, one multiplication per
    party.
    """
    n = len(lagrange)
    if _obs.metrics is not None:
        _obs.metrics.inc("crypto.field.mul", n)
    total = sum(lagrange[j - 1] * received[j] for j in range(1, n + 1))
    return FieldElement(field_, total % field_.modulus)


def _int_pairs(inbox, tag: str) -> Iterator[Tuple[int, int, int]]:
    """``(sender, key, value)`` for every well-formed entry of ``tag``'s messages.

    A BGW payload is a tuple of ``(key, value)`` int pairs (gate id or
    output index, then a share).  Anything else a corrupted party sends
    (a payload that is not a tuple or list, an entry that is not a pair,
    or a key or value that is not an ``int``) is skipped, so garbage
    reads as a missing share and never raises in an honest party.
    """
    for message in inbox.with_tag(tag):
        payload = message.payload
        if type(payload) is not tuple and type(payload) is not list:
            continue
        sender = message.sender
        for entry in payload:
            if (type(entry) is tuple or type(entry) is list) and len(entry) == 2:
                key, value = entry
                if type(key) is int and type(value) is int:
                    yield sender, key, value


def bgw_evaluate(
    ctx,
    circuit: Circuit,
    my_inputs: Mapping[str, int],
    t: int,
    instance: str = "bgw",
):
    """Sub-generator: jointly evaluate ``circuit``; returns the output values.

    Args:
        ctx: party context (``ctx.n`` parties participate).
        circuit: the arithmetic circuit; its INPUT gates name the owners.
        my_inputs: this party's input wires by name (missing wires -> 0).
        t: threshold, must satisfy 2t < ctx.n.
        instance: message-tag namespace.

    Returns:
        list of field values, one per circuit output (identical at every
        honest party).
    """
    n = ctx.n
    if 2 * t >= n:
        raise InvalidParameterError(f"BGW requires 2t < n (got t={t}, n={n})")
    field_ = circuit.field
    sharing = ShamirSharing(field_, t, n)
    me = ctx.party_id
    in_tag = f"bgw:{instance}:in"
    mul_tag = f"bgw:{instance}:mul"
    out_tag = f"bgw:{instance}:out"
    modulus = field_.modulus
    lagrange = [c.value for c in lagrange_coefficients_at_zero(field_, range(1, n + 1))]

    # ---- round 1: share inputs ---------------------------------------------------
    my_wires = circuit.inputs_of(me)
    per_recipient: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for name, gate_id in my_wires:
        _, points = sharing.deal(field_.residue(my_inputs.get(name, 0)), ctx.rng)
        for outgoing, point in zip(per_recipient, points, strict=True):
            outgoing.append((gate_id, point))
    if _obs.metrics is not None:
        _obs.metrics.inc("mpc.bgw.evaluations")
        _obs.metrics.inc("mpc.bgw.input_wires_shared", len(my_wires))
    inbox = yield [
        send(j, tuple(per_recipient[j - 1]), tag=in_tag) for j in range(1, n + 1)
    ]

    shares_by_gate: Dict[int, FieldElement] = {}
    for sender, gate_id, raw in _int_pairs(inbox, in_tag):
        gate = circuit.gates[gate_id] if 0 <= gate_id < circuit.size else None
        if gate is None or gate.op != INPUT or gate.owner != sender:
            continue
        if gate_id not in shares_by_gate:
            shares_by_gate[gate_id] = field_.element(raw)
    # Unshared inputs behave as the public constant 0 (constant zero poly).
    for _owner, _name, gate_id in circuit.input_wires():
        shares_by_gate.setdefault(gate_id, field_.zero())

    # ---- evaluation with batched multiplication rounds ----------------------------
    shares: Dict[int, FieldElement] = dict(shares_by_gate)
    cursor = 0
    while True:
        pending_muls: List[int] = []
        while cursor < circuit.size:
            gate = circuit.gates[cursor]
            if gate.op in (INPUT,):
                cursor += 1
                continue
            if gate.op == CONST:
                shares[cursor] = field_.element(gate.constant)
                cursor += 1
                continue
            if any(arg not in shares for arg in gate.args):
                break  # blocked on a multiplication still in flight
            if gate.op == ADD:
                shares[cursor] = shares[gate.args[0]] + shares[gate.args[1]]
            elif gate.op == SUB:
                shares[cursor] = shares[gate.args[0]] - shares[gate.args[1]]
            elif gate.op == SCALE:
                shares[cursor] = shares[gate.args[0]] * field_.element(gate.constant)
            elif gate.op == MUL:
                pending_muls.append(cursor)
                cursor += 1
                continue
            cursor += 1
        # Drop MULs that were registered but then found computable?  They are
        # exactly the pending ones: resolve them with one resharing round.
        pending_muls = [g for g in pending_muls if g not in shares]
        if not pending_muls and cursor >= circuit.size:
            break
        if not pending_muls:
            raise ShareError("circuit evaluation deadlocked (malformed circuit)")

        if _obs.metrics is not None:
            _obs.metrics.inc("mpc.bgw.mul_rounds")
            _obs.metrics.inc("mpc.bgw.mul_gates", len(pending_muls))
        # Local degree-2t products, then reshare each down to degree t.
        per_recipient = [[] for _ in range(n)]
        for gate_id in pending_muls:
            gate = circuit.gates[gate_id]
            product = shares[gate.args[0]] * shares[gate.args[1]]
            _, points = sharing.deal(product.value, ctx.rng)
            for outgoing, point in zip(per_recipient, points, strict=True):
                outgoing.append((gate_id, point))
        inbox = yield [
            send(j, tuple(per_recipient[j - 1]), tag=mul_tag) for j in range(1, n + 1)
        ]
        contributions: Dict[int, Dict[int, int]] = {g: {} for g in pending_muls}
        for sender, gate_id, raw in _int_pairs(inbox, mul_tag):
            received = contributions.get(gate_id)
            if received is not None and sender not in received:
                received[sender] = raw % modulus
        for gate_id in pending_muls:
            received = contributions[gate_id]
            if len(received) < n:
                missing = [j for j in range(1, n + 1) if j not in received]
                raise ShareError(
                    f"degree reduction missing contributions from {missing}"
                )
            shares[gate_id] = recombine(field_, lagrange, received)

    # ---- output round --------------------------------------------------------------
    my_output_shares = tuple(
        (index, shares[gate_id].value) for index, gate_id in enumerate(circuit.outputs)
    )
    inbox = yield [send(j, my_output_shares, tag=out_tag) for j in range(1, n + 1)]
    # The first share per sender and output counts, in inbox order.
    collected: Dict[int, Dict[int, int]] = {i: {} for i in range(len(circuit.outputs))}
    for sender, index, raw in _int_pairs(inbox, out_tag):
        by_sender = collected.get(index)
        if by_sender is not None and sender not in by_sender:
            by_sender[sender] = raw

    return [
        sharing.reconstruct(
            [Share(sender, field_.element(raw)) for sender, raw in by_sender.items()]
        )
        for by_sender in collected.values()
    ]


class BGWProtocol:
    """Runnable wrapper: every party's input is a dict of wire values."""

    def __init__(self, circuit: Circuit, n: int, t: int):
        if 2 * t >= n:
            raise InvalidParameterError(f"BGW requires 2t < n (got t={t}, n={n})")
        self.circuit = circuit
        self.n = n
        self.t = t

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        outputs = yield from bgw_evaluate(
            ctx, self.circuit, dict(value or {}), self.t
        )
        return tuple(int(v) for v in outputs)
