"""Bracha reliable broadcast (tolerates t < n/3, no signatures).

The classic three-phase echo protocol: the sender INITs its value; every
party ECHOes the first INIT it accepts; a quorum of ⌈(n+t)/2⌉+1 echoes
(or t+1 READYs — the amplification rule) triggers a READY; 2t+1 READYs
deliver.  Quorum intersection gives agreement without any PKI, at the
price of the optimal-resilience bound n > 3t (Dolev--Strong tolerates
t < n with signatures; this is the information-theoretic counterpart).

Unlike the round-counting members of the zoo, Bracha is *asynchronous*:
parties react to whatever lands in their inbox and loop until the
delivery quorum is met, with no built-in round bound.  That makes it the
natural conformance workload for non-default timing
(``delay_model="uniform:0.5,1.5"``), where delay models reorder arrivals —
the protocol must deliver the same value under any schedule.  A run in
which delivery is impossible (e.g. the sender's traffic is omitted)
terminates through ``timeout_rounds``, finalizing undelivered parties
with the timeout output (``None`` by default).
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from ..net.message import send
from .base import SingleSenderBroadcast

_INIT = "INIT"
_ECHO = "ECHO"
_READY = "READY"


def bracha_rbc(ctx, sender: int, value: Any, t: int, instance: str = "rbc"):
    """Sub-generator running one Bracha RBC instance; returns the delivery.

    Args:
        ctx: party context.
        sender: broadcasting party.
        value: sender's input (ignored for non-senders).
        t: corruption bound; requires ``n > 3t`` for agreement.
        instance: tag namespace.
    """
    tag = f"bracha:{instance}"
    n = ctx.n
    me = ctx.party_id
    echo_quorum = (n + t) // 2 + 1
    ready_amplify = t + 1
    deliver_quorum = 2 * t + 1

    # Cumulative quorum state: Bracha thresholds count *distinct* parties
    # over the whole execution, so partial inboxes (event batches, delayed
    # or reordered arrivals) accumulate instead of resetting.
    echoes: Dict[Any, Set[int]] = {}
    readies: Dict[Any, Set[int]] = {}
    echoed = False
    ready_sent = False

    def to_all(kind: str, v: Any) -> List[Any]:
        return [send(j, (kind, v), tag=tag) for j in range(1, n + 1) if j != me]

    def decide():
        for v, voters in readies.items():
            if len(voters) >= deliver_quorum:
                return v
        return None

    drafts: List[Any] = []
    if me == sender:
        drafts = to_all(_INIT, value)
        # The sender's own INIT is accepted locally: echo in the same step.
        echoed = True
        echoes.setdefault(value, set()).add(me)
        drafts += to_all(_ECHO, value)

    while True:
        inbox = yield drafts
        drafts = []
        for message in inbox.with_tag(tag):
            payload = message.payload
            if not isinstance(payload, tuple) or len(payload) != 2:
                continue
            kind, v = payload
            if kind == _INIT:
                # Only the designated sender's first INIT is echoed; a
                # Byzantine sender equivocating across parties is resolved
                # by the echo quorum, not here.
                if message.sender != sender or echoed:
                    continue
                echoed = True
                echoes.setdefault(v, set()).add(me)
                drafts += to_all(_ECHO, v)
            elif kind == _ECHO:
                echoes.setdefault(v, set()).add(message.sender)
            elif kind == _READY:
                readies.setdefault(v, set()).add(message.sender)
        if not ready_sent:
            for v in list(echoes):
                if len(echoes[v]) >= echo_quorum:
                    ready_sent = True
                    readies.setdefault(v, set()).add(me)
                    drafts += to_all(_READY, v)
                    break
            else:
                # Amplification: t+1 READYs prove an honest party saw an
                # echo quorum, so joining is safe even without one locally.
                for v in list(readies):
                    if len(readies[v]) >= ready_amplify:
                        ready_sent = True
                        readies.setdefault(v, set()).add(me)
                        drafts += to_all(_READY, v)
                        break
        delivered = decide()
        if delivered is not None:
            if drafts:
                # Flush this step's READY before returning so late peers
                # still reach their own delivery quorum.
                yield drafts
            return delivered


class BrachaBroadcast(SingleSenderBroadcast):
    """Runnable Bracha reliable broadcast (setup-free, needs n > 3t)."""

    def __init__(self, n: int, t: int, sender: int):
        super().__init__(n=n, t=t, sender=sender)
        if n <= 3 * t:
            raise ValueError(
                f"Bracha RBC requires n > 3t; got n={n}, t={t}"
            )

    def program(self, ctx, value):
        decision = yield from bracha_rbc(ctx, self.sender, value, self.t)
        return decision
