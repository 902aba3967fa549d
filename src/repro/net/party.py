"""Party programs and their runtime context.

A *party program* is a Python generator function::

    def program(ctx: PartyContext):
        inbox = yield [broadcast(my_commitment, tag="commit")]
        ...
        return my_output

Each ``yield`` sends the listed draft messages and suspends until the next
round's inbox arrives.  Returning ends the party's participation; its return
value becomes the party's protocol output.  This style keeps multi-phase
protocol code linear and readable instead of a hand-rolled state machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Generator, Iterable, List, Optional

from ..errors import ProtocolError
from .message import Draft, Inbox, Message

PartyProgram = Generator[Iterable[Draft], Inbox, Any]


@dataclass
class PartyContext:
    """Per-party runtime information handed to a program.

    Attributes:
        party_id: this party's 1-based index.
        n: total number of parties.
        rng: this party's private randomness source.
        config: protocol-level public setup (CRS, PKI, parameters, ...).
        session: a session identifier bound into signatures/proofs.
    """

    party_id: int
    n: int
    rng: random.Random
    config: Any = None
    session: str = ""

    def others(self) -> List[int]:
        return [i for i in range(1, self.n + 1) if i != self.party_id]


@dataclass
class PartyState:
    """Bookkeeping for one party inside the scheduler."""

    party_id: int
    generator: Optional[PartyProgram]
    finished: bool = False
    output: Any = None
    pending_inbox: List[Message] = field(default_factory=list)

    def start(self) -> List[Draft]:
        """Prime the generator, collecting its first outbox."""
        if self.generator is None:
            self.finished = True
            return []
        try:
            drafts = next(self.generator)
        except StopIteration as stop:
            self.finished = True
            self.output = stop.value
            return []
        return _validate_drafts(self.party_id, drafts)

    def resume(self, inbox: Inbox) -> List[Draft]:
        """Deliver an inbox and collect the next outbox."""
        if self.finished or self.generator is None:
            return []
        try:
            drafts = self.generator.send(inbox)
        except StopIteration as stop:
            self.finished = True
            self.output = stop.value
            return []
        return _validate_drafts(self.party_id, drafts)


def _validate_drafts(party_id: int, drafts: Any) -> List[Draft]:
    if drafts is None:
        return []
    result = []
    for draft in drafts:
        if not isinstance(draft, Draft):
            raise ProtocolError(
                f"party {party_id} yielded {type(draft).__name__}; "
                "programs must yield Draft messages (use send()/broadcast())"
            )
        result.append(draft)
    return result
