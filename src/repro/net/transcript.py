"""Execution transcripts and the Exec output vectors of Definition 4.1/4.2.

An :class:`Execution` records everything about one protocol run: the full
per-round traffic, each honest party's output, the adversary's output, and
how many rounds were used.  The ``exec_vector`` property is the
(n+1)-dimensional vector Exec^Π_A(k, z, x) from the paper: the adversary's
output followed by the parties' outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConsistencyError
from .message import Message, RoundRecord


@dataclass
class Execution:
    """The result of running a protocol once under a given adversary."""

    n: int
    corrupted: frozenset
    inputs: Tuple[Any, ...]
    outputs: Dict[int, Any]
    adversary_output: Any
    rounds: List[RoundRecord] = field(default_factory=list)
    config: Any = None
    seed: Optional[int] = None
    """The effective integer seed the run was derived from, when known.

    Recorded by :func:`repro.net.network.run_protocol` so every execution
    artifact states how to reproduce itself; ``None`` means the caller
    supplied an externally seeded ``random.Random`` whose seed the
    framework cannot recover.
    """
    faults: List[Any] = field(default_factory=list)
    """Every fault injected during the run, in injection order.

    A list of :class:`repro.faults.injector.FaultRecord`; empty when the
    run had no fault injector.  Together with ``seed`` and the fault
    plan's own seed this makes faulty runs replayable: the same
    (protocol, seed, plan, fault salt) tuple reproduces the same records.
    """
    timed_out: bool = False
    """True when the run hit the graceful ``timeout_rounds`` deadline.

    Parties still running at the deadline were finalized with the
    protocol's default output instead of raising :class:`NetworkError`.
    """
    runtime: str = "lockstep"
    """The run's timing class (:attr:`repro.net.runtime.RuntimeConfig.kind`).

    ``"lockstep"`` for the paper's synchronous rounds; ``"event"`` when a
    delay model or omission policy was given, in which case each
    :class:`RoundRecord` is one *event batch* (all messages sent at one
    clock instant) rather than a synchronous round.
    """

    @property
    def honest(self) -> List[int]:
        return [i for i in range(1, self.n + 1) if i not in self.corrupted]

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def communication_rounds(self) -> int:
        """Rounds up to the last one carrying any message.

        The scheduler always spends one trailing silent round observing that
        every honest party has returned; this property is the natural
        "round complexity" metric that excludes such padding.
        """
        last = 0
        for record in self.rounds:
            if record.messages:
                last = record.round
        return last

    @property
    def exec_vector(self) -> Tuple[Any, ...]:
        """The (n+1)-vector (adversary output, party 1 output, ..., party n)."""
        parties = tuple(self.outputs.get(i) for i in range(1, self.n + 1))
        return (self.adversary_output,) + parties

    def all_messages(self) -> List[Message]:
        return [m for record in self.rounds for m in record.messages]

    # -- parallel-broadcast helpers (Definition 3.1) -------------------------------

    def announced_vector(self, default: int = 0) -> Tuple[Any, ...]:
        """The vector W "announced" by the parties (Definition 3.1).

        Takes any honest party's output vector B_k and reads W_i = B_{k,i}.
        By convention a missing or invalid entry becomes ``default`` (the
        paper assigns the default value 0 to corrupted parties that
        contribute no valid value).

        Raises:
            ConsistencyError: if honest parties disagree (consistency broken)
                or no honest party produced an output vector.
        """
        vectors = []
        for party in self.honest:
            output = self.outputs.get(party)
            if output is None:
                continue
            vectors.append(tuple(output))
        if not vectors:
            raise ConsistencyError("no honest party produced an output vector")
        first = vectors[0]
        for other in vectors[1:]:
            if other != first:
                # Honest disagreement is a conformance failure: snapshot the
                # flight recorder (if one is on) before raising, so the last
                # rounds of traffic that produced the split are preserved.
                from ..obs import flightrec

                flightrec.dump_if_active(
                    "consistency-violation",
                    n=self.n,
                    corrupted=sorted(self.corrupted),
                    seed=self.seed,
                    first=list(first),
                    other=list(other),
                )
                raise ConsistencyError(
                    f"honest parties disagree on announced vector: {first} vs {other}"
                )
        return tuple(default if entry is None else entry for entry in first)
