"""The runtime half of fault injection: applying a plan to live traffic.

A :class:`FaultInjector` is created per execution (one seeded RNG, one
delayed-message queue, one fault log) and hooked into the
:class:`repro.net.scheduler.Scheduler`, which calls :meth:`apply` on each
batch's honest traffic (a round, under the lockstep preset) *before* the
rushing adversary sees it.  Faults
therefore degrade what the adversary can observe exactly as they degrade
what honest parties receive — a delayed message leaves the rushed view
until its release round, a dropped one never appears.

Every injected fault is recorded three ways:

* a :class:`FaultRecord` appended to :attr:`records` (and, via the
  scheduler, to ``Execution.faults`` — the replayable transcript);
* a ``faults.*`` metrics counter (``faults.dropped``, ``faults.delayed``,
  ``faults.duplicated``, ``faults.corrupted``, ``faults.crashed``, plus
  ``faults.delayed.released`` on delivery);
* a ``fault.inject`` tracer event when tracing is enabled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Sequence

from ..net.message import Message
from ..obs import runtime as _obs
from .plan import FaultPlan, FaultRule


@dataclass(frozen=True, slots=True)
class FaultRecord:
    """One injected fault, as recorded in the execution transcript."""

    round: int
    kind: str
    sender: int
    recipient: int
    tag: str
    detail: str = ""


def corrupt_payload(payload: Any, rng: random.Random, mode: str = "garbage") -> Any:
    """Deterministically mangle a payload.

    ``flip`` inverts bit payloads (falling back to garbage for anything
    else); ``garbage`` replaces the payload with a tagged junk tuple that
    no protocol parser accepts — downstream validation then announces the
    paper's default value, exactly as for a malformed adversarial message.
    """
    if mode == "flip" and payload in (0, 1, True, False):
        return 1 - int(payload)
    return ("faults:corrupted", rng.getrandbits(32))


#: Metrics counter per fault kind (issue-specified names).
_COUNTERS = {
    "drop": "faults.dropped",
    "delay": "faults.delayed",
    "duplicate": "faults.duplicated",
    "corrupt": "faults.corrupted",
    "crash": "faults.crashed",
}


class FaultInjector:
    """Applies one :class:`FaultPlan` to one execution's honest traffic."""

    def __init__(self, plan: FaultPlan, salt: int = 0):
        self.plan = plan
        self.salt = salt
        self.rng = random.Random(plan.injector_seed(salt))
        self.records: List[FaultRecord] = []
        self._delayed: Dict[int, List[Message]] = {}

    # -- bookkeeping -------------------------------------------------------------

    def _record(self, round_number: int, kind: str, message: Message, detail: str = ""):
        record = FaultRecord(
            round=round_number,
            kind=kind,
            sender=message.sender,
            recipient=message.recipient,
            tag=message.tag,
            detail=detail,
        )
        self.records.append(record)
        if _obs.flightrec is not None:
            _obs.flightrec.record_fault(record)
        metrics = _obs.metrics
        if metrics is not None:
            metrics.inc("faults.injected")
            metrics.inc(_COUNTERS[kind])
        tracer = _obs.tracer
        if tracer.enabled:
            tracer.event(
                "fault.inject",
                kind=kind,
                round=round_number,
                sender=message.sender,
                recipient=message.recipient,
                tag=message.tag,
                detail=detail,
            )

    def _fires(self, rule: FaultRule) -> bool:
        if rule.probability >= 1.0:
            return True
        return self.rng.random() < rule.probability

    @property
    def undelivered(self) -> int:
        """Delayed messages still queued (the run ended before release)."""
        return sum(len(batch) for batch in self._delayed.values())

    # -- the hook ----------------------------------------------------------------

    def apply(self, round_number: int, traffic: Sequence[Message]) -> List[Message]:
        """Transform one round's honest traffic according to the plan.

        Returns the messages that actually hit the wire this round: the
        survivors of drop/crash filtering, corrupted payload replacements,
        injected duplicates, and previously delayed messages now due.
        """
        plan = self.plan
        if not plan.rules and not plan.crashes and not self._delayed:
            return list(traffic)

        released = self._delayed.pop(round_number, [])
        if released:
            metrics = _obs.metrics
            if metrics is not None:
                metrics.inc("faults.delayed.released", len(released))
        out: List[Message] = list(released)

        for message in traffic:
            crashed = any(
                crash.party == message.sender and crash.active(round_number)
                for crash in plan.crashes
            )
            if crashed:
                self._record(round_number, "crash", message)
                continue
            current = message
            fate = "deliver"
            duplicates = 0
            for rule in plan.rules:
                if not rule.matches(round_number, current) or not self._fires(rule):
                    continue
                if rule.kind == "drop":
                    fate = "drop"
                    self._record(round_number, "drop", current)
                    break
                if rule.kind == "delay":
                    fate = "delay"
                    release = round_number + rule.delay
                    self._record(
                        round_number, "delay", current, detail=f"release={release}"
                    )
                    self._delayed.setdefault(release, []).append(current)
                    break
                if rule.kind == "corrupt":
                    current = replace(
                        current,
                        payload=corrupt_payload(current.payload, self.rng, rule.mode),
                    )
                    self._record(round_number, "corrupt", current, detail=rule.mode)
                elif rule.kind == "duplicate":
                    duplicates += rule.copies
                    self._record(
                        round_number, "duplicate", current, detail=f"copies={rule.copies}"
                    )
            if fate == "deliver":
                out.append(current)
                out.extend(current for _ in range(duplicates))
        return out
