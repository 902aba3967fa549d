"""BGW-style secret-shared circuit evaluation (honest majority, 2t < n).

The classic Ben-Or--Goldwasser--Wigderson construction [2], in its
semi-honest form with the Gennaro--Rabin--Rabin resharing-based degree
reduction:

1. *Input round* — every party Shamir-shares each of its input wires.
2. *Multiplication rounds* — linear gates are local.  Rounds follow
   multiplicative depth: round k evaluates the linear gates of level k
   locally, and the multiplication gates of level k + 1 form one batch,
   whose shares the parties multiply locally (degree 2t) and reshare back
   down to degree t.  A circuit of depth d takes d resharing rounds: the
   g circuit at n = 5 has depth 12 and takes 12.
3. *Output round* — shares of output wires are exchanged and interpolated.

The rounds depend on the gates alone, so they are derived once per
circuit (:func:`schedule`) and every evaluation walks them on int
residues, one per wire.

Security holds against t < n/2 passively corrupted parties.  That is all
Claim 6.5 needs for protocol Θ: the adversary used in Lemma 6.4 deviates
only by *choosing* its inputs (setting the auxiliary bit), which the ideal
model permits anyway.
"""

from __future__ import annotations

import weakref
from operator import mul
from typing import Container, Dict, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

from ..crypto.secret_sharing import ShamirSharing, Share, lagrange_coefficients_at_zero
from ..errors import InvalidParameterError, ShareError
from ..net.message import send
from ..obs import runtime as _obs
from .circuit import ADD, CONST, INPUT, MUL, SCALE, SUB, Circuit

#: Operand count of each gate a round evaluates.
_ARITY = {ADD: 2, SUB: 2, SCALE: 1, MUL: 2}


class Round(NamedTuple):
    """One multiplication round of a schedule.

    Attributes:
        local: the round's ``ADD``/``SUB``/``SCALE`` gates in gate order,
            as ``(op, gate id, left operand, right operand or scalar)``.
        charge: the round's local ``crypto.field.mul``: one per ``SCALE``
            and one per product.
        muls: the batch's ``MUL`` gates in gate order, as ``(gate id, left
            operand, right operand)``; empty only in a final round of local
            gates, which a schedule lacks when its deepest gates are
            ``MUL``s.
    """

    local: Tuple[Tuple[str, int, int, int], ...]
    charge: int
    muls: Tuple[Tuple[int, int, int], ...]


class Schedule(NamedTuple):
    """What every BGW evaluation of one circuit does, derived from its gates.

    Attributes:
        size: the number of gates it was derived from.
        initial: a value per wire before the input round: each ``CONST``
            gate's constant (its own share), 0 elsewhere, so an input wire
            nobody shares reads as the public constant 0.
        owners: the owning party of each ``INPUT`` gate id.
        rounds: the multiplication rounds, in order.
    """

    size: int
    initial: Tuple[int, ...]
    owners: Dict[int, int]
    rounds: Tuple[Round, ...]


#: Each live circuit's schedule; an entry goes with its circuit.
_SCHEDULES: weakref.WeakKeyDictionary[Circuit, Schedule] = weakref.WeakKeyDictionary()


def schedule(circuit: Circuit) -> Schedule:
    """``circuit``'s schedule, derived again only once a gate was appended.

    Rounds follow multiplicative depth.  A gate's level is the largest
    level among its operands, plus one for a ``MUL``; ``INPUT`` and
    ``CONST`` gates are level 0.  Round k evaluates the level-k
    ``ADD``/``SUB``/``SCALE`` gates in gate order, then reshares every
    ``MUL`` of level k + 1 in one batch, in gate order.  The operands of a
    level-(k + 1) product have level at most k, so they are ready by then,
    and a circuit of depth d takes d resharing rounds.

    Raises:
        ShareError: for a gate a round cannot evaluate (an unknown op, a
            wrong operand count, or an operand that is not an earlier gate).
    """
    cached = _SCHEDULES.get(circuit)
    if cached is not None and cached.size == circuit.size:
        return cached
    modulus = circuit.field.modulus
    initial = [0] * circuit.size
    owners: Dict[int, int] = {}
    levels = [0] * circuit.size
    # Per level k: its local gates, and the MUL gates of level k + 1.
    local: List[List[Tuple[str, int, int, int]]] = [[]]
    muls: List[List[Tuple[int, int, int]]] = [[]]
    for gate_id, gate in enumerate(circuit.gates):
        op, args = gate.op, gate.args
        if op == INPUT:
            owners[gate_id] = gate.owner
            continue
        if op == CONST:
            initial[gate_id] = gate.constant % modulus
            continue
        if len(args) != _ARITY.get(op) or not all(0 <= arg < gate_id for arg in args):
            raise ShareError(f"gate {gate_id} ({op}) cannot be evaluated (malformed circuit)")
        level = levels[gate_id] = max(levels[arg] for arg in args) + (op == MUL)
        if level == len(local):
            local.append([])
            muls.append([])
        if op == MUL:
            muls[level - 1].append((gate_id, *args))
        elif op == SCALE:
            local[level].append((op, gate_id, args[0], gate.constant % modulus))
        else:
            local[level].append((op, gate_id, *args))
    if not local[-1]:  # the deepest gates are MULs: no final local round
        local.pop()
    rounds = tuple(_round(gates, batch) for gates, batch in zip(local, muls))
    plan = _SCHEDULES[circuit] = Schedule(circuit.size, tuple(initial), owners, rounds)
    return plan


def _round(local: List[Tuple[str, int, int, int]], muls: List[Tuple[int, int, int]]) -> Round:
    scales = sum(1 for op, *_ in local if op == SCALE)
    return Round(tuple(local), scales + len(muls), tuple(muls))


def recombine(field_, lagrange: Sequence[int], received: Sequence[int]) -> int:
    """``sum_j lagrange[j-1] * received[j-1] mod p`` over parties ``j = 1..n``.

    The degree-reduction step: party ``j`` reshared its degree-2t product
    share, and the Lagrange coefficients at zero for ``x = 1..n`` (as ints)
    recombine the subshares (party ``j``'s at index ``j - 1``) into a
    degree-t share of the product, returned as its residue.  Charges one
    ``crypto.field.mul`` per party.
    """
    if _obs.metrics is not None:
        _obs.metrics.inc("crypto.field.mul", len(lagrange))
    return sum(map(mul, lagrange, received)) % field_.modulus


def _int_pairs(inbox, tag: str, keys: Container[int]) -> Iterator[Tuple[int, int, int]]:
    """``(sender, key, value)`` for each well-formed entry of ``tag``'s messages keyed in ``keys``.

    A BGW payload is a tuple of ``(key, value)`` int pairs (gate id or
    output index, then a share).  Anything else a corrupted party sends
    (a payload that is not a tuple or list, an entry that is not a pair,
    or a key or value that is not an ``int``) is skipped, so garbage
    reads as a missing share and never raises in an honest party.  So is
    an entry whose key the round does not expect, such as an earlier
    round's gate in the cumulative inbox a corrupted party's program reads.
    """
    for message in inbox.with_tag(tag):
        payload = message.payload
        if type(payload) is not tuple and type(payload) is not list:
            continue
        sender = message.sender
        for entry in payload:
            if (type(entry) is tuple or type(entry) is list) and len(entry) == 2:
                key, value = entry
                if type(key) is int and key in keys and type(value) is int:
                    yield sender, key, value


def _deliveries(tag: str, gate_ids: Sequence[int], dealt: Sequence[List[int]], n: int) -> list:
    """A message to each party ``j``: its share of every dealing, ``((gate_id, share), ...)``."""
    per_recipient: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for gate_id, points in zip(gate_ids, dealt, strict=True):
        for outgoing, point in zip(per_recipient, points, strict=True):
            outgoing.append((gate_id, point))
    return [send(j, tuple(per_recipient[j - 1]), tag=tag) for j in range(1, n + 1)]


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
        list of residues, one per circuit output (identical at every
        honest party).
    """
    n = ctx.n
    if 2 * t >= n:
        raise InvalidParameterError(f"BGW requires 2t < n (got t={t}, n={n})")
    plan = schedule(circuit)
    field_ = circuit.field
    sharing = ShamirSharing(field_, t, n)
    rng = ctx.rng
    in_tag = f"bgw:{instance}:in"
    mul_tag = f"bgw:{instance}:mul"
    out_tag = f"bgw:{instance}:out"
    modulus = field_.modulus
    lagrange = lagrange_coefficients_at_zero(field_, range(1, n + 1))

    # ---- round 1: share inputs ---------------------------------------------------
    my_wires = circuit.inputs_of(ctx.party_id)
    dealt = [sharing.deal(my_inputs.get(name, 0) % modulus, rng)[1] for name, _ in my_wires]
    if _obs.metrics is not None:
        _obs.metrics.inc("mpc.bgw.evaluations")
        _obs.metrics.inc("mpc.bgw.input_wires_shared", len(my_wires))
    inbox = yield _deliveries(in_tag, [gate_id for _, gate_id in my_wires], dealt, n)

    values = list(plan.initial)
    owners = plan.owners
    shared = set()  # the first share of each input wire counts, in inbox order
    for sender, gate_id, raw in _int_pairs(inbox, in_tag, owners):
        if owners[gate_id] == sender and gate_id not in shared:
            shared.add(gate_id)
            values[gate_id] = raw % modulus

    # ---- multiplication rounds, as scheduled ----------------------------------------
    for local, charge, muls in plan.rounds:
        for op, gate_id, a, b in local:
            if op == ADD:
                values[gate_id] = (values[a] + values[b]) % modulus
            elif op == SUB:
                values[gate_id] = (values[a] - values[b]) % modulus
            else:  # SCALE by the public constant b
                values[gate_id] = values[a] * b % modulus
        metrics = _obs.metrics
        if metrics is not None:
            if charge:
                metrics.inc("crypto.field.mul", charge)
            if muls:
                metrics.inc("mpc.bgw.mul_rounds")
                metrics.inc("mpc.bgw.mul_gates", len(muls))
        if not muls:
            break
        # Local degree-2t products, then reshare each down to degree t.
        dealt = [sharing.deal(values[a] * values[b] % modulus, rng)[1] for _, a, b in muls]
        gate_ids = [g for g, _, _ in muls]
        inbox = yield _deliveries(mul_tag, gate_ids, dealt, n)
        # Party j's first subshare of each product counts, in inbox order.
        contributions: Dict[int, List] = {g: [None] * n for g in gate_ids}
        for sender, gate_id, raw in _int_pairs(inbox, mul_tag, contributions):
            received = contributions[gate_id]
            if received[sender - 1] is None:
                received[sender - 1] = raw % modulus
        for gate_id, received in contributions.items():
            if None in received:
                missing = [j for j, share in enumerate(received, 1) if share is None]
                raise ShareError(
                    f"degree reduction missing contributions from {missing}"
                )
            values[gate_id] = recombine(field_, lagrange, received)

    # ---- output round --------------------------------------------------------------
    my_output_shares = tuple(
        (index, values[gate_id]) for index, gate_id in enumerate(circuit.outputs)
    )
    inbox = yield [send(j, my_output_shares, tag=out_tag) for j in range(1, n + 1)]
    # The first share per sender and output counts, in inbox order.
    collected: Dict[int, Dict[int, int]] = {i: {} for i in range(len(circuit.outputs))}
    for sender, index, raw in _int_pairs(inbox, out_tag, collected):
        by_sender = collected[index]
        if sender not in by_sender:
            by_sender[sender] = raw

    return [
        sharing.reconstruct([Share(sender, raw % modulus) for sender, raw in by_sender.items()])
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
        return tuple(outputs)
