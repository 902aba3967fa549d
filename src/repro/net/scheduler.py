"""The execution engine: one deterministic discrete-event loop.

Every run advances a seeded :class:`~repro.net.runtime.EventClock`, the
delivery calendar.  Each *batch* (a round, at the default timing):

1. pops the deliveries of the next occupied instant (a silent tick when
   nothing is in flight), and every unfinished honest party is resumed
   with whatever arrived for it — possibly nothing, so round-counting
   programs keep their cadence;
2. the ``fault_injector`` (see :mod:`repro.faults`) rewrites the batch's
   honest traffic — dropping, delaying, duplicating, or corrupting
   messages and suppressing crashed senders — *before* the adversary
   observes it, so faults degrade the adversary's view exactly as they
   degrade honest deliveries;
3. the adversary acts on what the delay model lets it see: deliveries
   that just landed for corrupted parties plus, on rushed edges
   (:meth:`~repro.net.runtime.DelayModel.rushes`), this very batch's
   honest traffic to them — the paper's rushing advantage;
4. every other delivery is scheduled on the calendar at ``now + delay``,
   unless the omission policy loses it.

At the default timing, ``RushDelay(ConstantDelay(1))`` and no omission,
this is Section 3.1 of the paper: synchronous rounds, a rushing
adversary, one round of latency on every other edge.

Determinism: no wall time is ever read, delay and omission draws come
from per-edge streams derived from the execution seed, and simultaneous
deliveries reach each recipient in schedule order — so the full
transcript is a pure function of ``(seed, delay model, omission
policy)`` and replays are bit-identical.

Progress guards: the run ends when every honest party's program has
returned.  ``timeout_rounds`` bounds the batch count gracefully — parties
still running past the deadline are finalized with ``timeout_output``
(protocols pass the paper's default bit vector) and the execution is
marked ``timed_out``.  ``max_rounds`` (batches) and
:data:`DEFAULT_MAX_EVENTS` (deliveries) abort with :class:`NetworkError`.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import (
    Any,
    Callable,
    DefaultDict,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
)

from ..errors import NetworkError, ProtocolError
from ..obs import flightrec as _flightrec
from ..obs import runtime as _obs
from ..obs.metrics import payload_size
from .adversary import Adversary
from .message import BROADCAST, Draft, Inbox, Message, RoundRecord
from .party import PartyContext, PartyState
from .runtime import EventClock, RuntimeConfig
from .transcript import Execution

DEFAULT_MAX_ROUNDS = 10_000

#: Hard ceiling on delivered events; generous — the largest run in the
#: repository (chor-rabin at n=64) delivers under 100,000.
DEFAULT_MAX_EVENTS = 1_000_000

ProgramFactory = Callable[[PartyContext, Any], Any]


def bucket_by_recipient(
    messages: Sequence[Message], recipients: Iterable[int]
) -> Dict[int, List[Message]]:
    """One-pass routing index: recipient -> messages addressed to it.

    Equivalent to ``{i: [m for m in messages if m.addressed_to(i)]}`` (the
    per-party scan it replaces, including message order within each
    bucket), but walks the traffic once instead of once per recipient —
    the scan was quadratic in round size for the rushing instant-view
    construction.
    """
    buckets: Dict[int, List[Message]] = {i: [] for i in recipients}
    for message in messages:
        if message.recipient == -1:  # BROADCAST: addressed to everyone
            for bucket in buckets.values():
                bucket.append(message)
        else:
            bucket = buckets.get(message.recipient)
            if bucket is not None:
                bucket.append(message)
    return buckets


class Scheduler:
    """Drives one protocol execution to completion.

    ``runtime`` is the run's :class:`~repro.net.runtime.RuntimeConfig`
    (default: the paper's timing).  The RNG-derivation order in
    ``__init__`` is part of the determinism contract and must not change.
    """

    def __init__(
        self,
        n: int,
        program_factory: ProgramFactory,
        inputs: Sequence[Any],
        adversary: Adversary,
        rng: random.Random,
        config: Any = None,
        session: str = "",
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        seed: Any = None,
        fault_injector: Any = None,
        timeout_rounds: Optional[int] = None,
        timeout_output: Any = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> None:
        if len(inputs) != n:
            raise ProtocolError(f"expected {n} inputs, got {len(inputs)}")
        if len(adversary.corrupted) >= n and n > 0:
            raise ProtocolError("at least one party must remain honest")
        if not all(1 <= i <= n for i in adversary.corrupted):
            raise ProtocolError(
                f"corrupted set {set(adversary.corrupted)} out of range for n={n}"
            )
        self.n = n
        self.inputs = tuple(inputs)
        self.adversary = adversary
        self.rng = rng
        self.config = config
        self.session = session
        self.max_rounds = max_rounds
        self.seed = seed
        self.fault_injector = fault_injector
        self.timeout_rounds = timeout_rounds
        self.timeout_output = timeout_output
        self.runtime = runtime if runtime is not None else RuntimeConfig()
        self.delay_model = self.runtime.resolved_delay_model()
        self.omission = self.runtime.omission

        self.honest_ids = [i for i in range(1, n + 1) if i not in adversary.corrupted]
        self._honest: Dict[int, PartyState] = {}
        for i in self.honest_ids:
            ctx = PartyContext(
                party_id=i,
                n=n,
                rng=random.Random(rng.getrandbits(64)),
                config=config,
                session=session,
            )
            self._honest[i] = PartyState(
                party_id=i, generator=program_factory(ctx, self.inputs[i - 1])
            )

        corrupted_inputs = {
            i: self.inputs[i - 1] for i in adversary.corrupted
        }
        # Give PassiveAdversary-style adversaries the honest program.
        installer = getattr(adversary, "set_program_factory", None)
        if installer is not None:
            installer(program_factory)
        adversary.setup(
            n=n,
            config=config,
            corrupted_inputs=corrupted_inputs,
            rng=random.Random(rng.getrandbits(64)),
            session=session,
        )
        # The clock seed comes last, so it perturbs no draw above.  The
        # paper's timing never draws from an edge stream and takes no
        # seed, so a lockstep run reads the caller's RNG only for the
        # parties and the adversary.
        self._lockstep = self.runtime.kind == "lockstep"
        self._clock_seed = 0 if self._lockstep else rng.getrandbits(64)

    # -- main loop -------------------------------------------------------------

    def run(self) -> Execution:
        tracer = _obs.tracer
        if not tracer.enabled:
            return self._run()
        with tracer.span(
            "scheduler.run",
            n=self.n,
            session=self.session,
            corrupted=sorted(self.adversary.corrupted),
            seed=self.seed,
        ) as span:
            execution = self._run()
            span.set(rounds=execution.round_count)
            return execution

    def _rush_targets(self) -> Dict[int, FrozenSet[int]]:
        """Honest sender -> the corrupted parties its traffic rushes to."""
        corrupted = self.adversary.corrupted
        targets = {}
        for sender in self.honest_ids:
            hit = frozenset(
                i for i in corrupted if self.delay_model.rushes(sender, i, corrupted)
            )
            if hit:
                targets[sender] = hit
        return targets

    def _run(self) -> Execution:
        metrics = _obs.metrics
        n = self.n
        corrupted = self.adversary.corrupted
        model = self.delay_model
        omission = self.omission
        clock = EventClock(self._clock_seed)
        edge_rng = clock.edge_rng
        # One fixed latency: every delivery of a batch lands in one slot.
        fixed_delay = model.fixed_delay()
        rush = self._rush_targets()
        everyone = range(1, n + 1)
        # A rushing sender's broadcast is scheduled for everyone else.
        fanout = {s: tuple(r for r in everyone if r not in hit) for s, hit in rush.items()}
        rounds: List[RoundRecord] = []
        inboxes: DefaultDict[int, List[Message]] = defaultdict(list)

        batch = 0
        events = 0
        timed_out = False
        while True:
            batch += 1
            if self.timeout_rounds is not None and batch > self.timeout_rounds:
                timed_out = True
                self._note_timeout(batch)
                break
            if batch > self.max_rounds:
                raise NetworkError(
                    f"protocol did not terminate within {self.max_rounds} rounds"
                )

            # 1. Deliveries land; honest parties speak.
            if batch > 1:
                inboxes = clock.advance()
                events += sum(map(len, inboxes.values()))
                if events > DEFAULT_MAX_EVENTS:
                    self._dump_event_budget(batch, events)
                    raise NetworkError(
                        f"runtime delivered more than {DEFAULT_MAX_EVENTS}"
                        " messages without terminating"
                    )
            honest_traffic: List[Message] = []
            for i, state in self._honest.items():
                if state.finished:
                    continue
                if batch == 1:
                    drafts = state.start()
                else:
                    drafts = state.resume(Inbox(inboxes[i]))
                honest_traffic.extend(draft.stamped(i) for draft in drafts)

            # 2. Faults strike honest traffic before the adversary sees it:
            #    crashes and drops remove messages, delays shift them to a
            #    later batch, corruption rewrites payloads in place.
            if self.fault_injector is not None:
                honest_traffic = self.fault_injector.apply(batch, honest_traffic)

            # 3. The adversary acts on what just landed for corrupted
            #    parties plus, rushing, this batch's honest traffic to them.
            delivered = 0
            instant = bucket_by_recipient(honest_traffic, corrupted) if rush else {}
            rushed: Dict[int, Inbox] = {}
            for i in corrupted:
                heard = [m for m in instant.get(i, ()) if i in rush.get(m.sender, ())]
                if omission is not None:
                    heard = [m for m in heard if not self._omitted(batch, m, i, edge_rng)]
                delivered += len(heard)
                rushed[i] = Inbox(inboxes[i] + heard)

            corrupted_outboxes = self.adversary.act(batch, rushed)
            corrupted_traffic = self._collect_corrupted_traffic(corrupted_outboxes)

            traffic = honest_traffic + corrupted_traffic
            self.adversary.observe(batch, traffic)
            rounds.append(RoundRecord(round=batch, messages=traffic))
            # Lockstep round summaries keep the paper's shape: the batch
            # time is the round number minus one there.
            extra = {} if self._lockstep else {"time": clock.now, "events": events}
            self._observe_round(batch, traffic, honest_traffic, corrupted_traffic, **extra)

            # 4. Schedule every delivery not already rushed to the adversary.
            slot = clock.slot(fixed_delay) if fixed_delay is not None else None
            direct = slot is not None and omission is None
            for message in traffic:
                sender = message.sender
                recipient = message.recipient
                if recipient == BROADCAST:
                    recipients: Sequence[int] = fanout.get(sender, everyone)
                elif not 1 <= recipient <= n:
                    raise ProtocolError(f"message to unknown party {recipient}")
                elif rush and recipient in rush.get(sender, ()):
                    continue
                elif direct:
                    slot[recipient].append(message)
                    delivered += 1
                    continue
                else:
                    recipients = (recipient,)
                if direct:
                    for r in recipients:
                        slot[r].append(message)
                    delivered += len(recipients)
                    continue
                for r in recipients:
                    if omission is not None and self._omitted(batch, message, r, edge_rng):
                        continue
                    if slot is not None:
                        slot[r].append(message)
                    else:
                        clock.schedule(model.edge_delay(sender, r, edge_rng(sender, r)), r, message)
                    delivered += 1
            if metrics is not None:
                metrics.inc("net.messages.delivered", delivered)

            if all(state.finished for state in self._honest.values()):
                break

        return self._finalize(rounds, timed_out)

    # -- bookkeeping -----------------------------------------------------------

    def _note_timeout(self, round_number: int) -> None:
        """Record a graceful deadline hit (metrics, trace, flight recorder)."""
        metrics = _obs.metrics
        tracer = _obs.tracer
        flight = _obs.flightrec
        unfinished = [i for i, s in self._honest.items() if not s.finished]
        if metrics is not None:
            metrics.inc("net.timeouts")
        if tracer.enabled:
            tracer.event("scheduler.timeout", round=round_number, unfinished=unfinished)
        if flight is not None:
            flight.push(
                "scheduler.timeout",
                round=round_number,
                session=self.session,
                unfinished=unfinished,
            )
            _flightrec.dump_if_active(
                "timeout",
                session=self.session,
                round=round_number,
                timeout_rounds=self.timeout_rounds,
                unfinished=unfinished,
            )

    def _collect_corrupted_traffic(
        self, corrupted_outboxes: Dict[int, Any]
    ) -> List[Message]:
        """Validate and stamp the adversary's outboxes for one round."""
        corrupted_traffic: List[Message] = []
        for i, drafts in corrupted_outboxes.items():
            if i not in self.adversary.corrupted:
                raise ProtocolError(
                    f"adversary produced messages for uncorrupted party {i}"
                )
            for draft in drafts or []:
                if isinstance(draft, Message):
                    # Allow adversaries to forge sender fields only among
                    # corrupted identities (channels are authenticated).
                    if draft.sender not in self.adversary.corrupted:
                        raise ProtocolError(
                            "adversary tried to forge an honest sender"
                        )
                    corrupted_traffic.append(draft)
                elif isinstance(draft, Draft):
                    corrupted_traffic.append(draft.stamped(i))
                else:
                    raise ProtocolError(
                        f"adversary yielded {type(draft).__name__}"
                    )
        return corrupted_traffic

    def _observe_round(
        self,
        round_number: int,
        traffic: Sequence[Message],
        honest_traffic: Sequence[Message],
        corrupted_traffic: Sequence[Message],
        **extra: Any,
    ) -> None:
        """Fold one batch into metrics/trace/flight records.

        ``extra`` fields travel with the trace and flight-recorder summary
        — for event-tagged runs, the batch time and delivery count,
        without changing the record kind tooling keys on.
        """
        metrics = _obs.metrics
        tracer = _obs.tracer
        flight = _obs.flightrec
        if metrics is not None:
            metrics.inc("net.rounds")
            metrics.inc("net.messages.sent", len(traffic))
            metrics.inc("net.messages.honest", len(honest_traffic))
            metrics.inc("net.messages.corrupted", len(corrupted_traffic))
            # Per-sender totals are folded over the batch, then charged once.
            sent: Dict[int, int] = {}
            sent_bytes: Dict[int, int] = {}
            broadcasts = 0
            for message in traffic:
                sender = message.sender
                sent[sender] = sent.get(sender, 0) + 1
                sent_bytes[sender] = sent_bytes.get(sender, 0) + payload_size(message.payload)
                if message.recipient == BROADCAST:
                    broadcasts += 1
            for sender, count in sent.items():
                metrics.inc(f"net.messages.sent.party.{sender}", count)
                metrics.inc(f"net.bytes.sent.party.{sender}", sent_bytes[sender])
            if broadcasts:
                metrics.inc("net.messages.broadcast", broadcasts)
            round_bytes = sum(sent_bytes.values())
            metrics.inc("net.bytes.sent", round_bytes)
            metrics.observe("net.round.messages", len(traffic))
            metrics.observe("net.round.bytes", round_bytes)
        if tracer.enabled:
            tracer.event(
                "scheduler.round",
                round=round_number,
                messages=len(traffic),
                honest=len(honest_traffic),
                corrupted=len(corrupted_traffic),
                **extra,
            )
        if flight is not None:
            for message in traffic:
                flight.record_message(round_number, message)
            flight.push(
                "round",
                round=round_number,
                session=self.session,
                messages=len(traffic),
                honest=len(honest_traffic),
                corrupted=len(corrupted_traffic),
                **extra,
            )

    def _omitted(
        self, batch: int, message: Message, recipient: int, edge_rng: Callable
    ) -> bool:
        """Whether the omission policy loses this delivery; a loss is recorded."""
        sender = message.sender
        rng = edge_rng(sender, recipient) if self.omission.draws else None
        if not self.omission.omits(sender, recipient, message, rng):
            return False
        metrics = _obs.metrics
        if metrics is not None:
            metrics.inc("net.messages.omitted")
        tracer = _obs.tracer
        if tracer.enabled:
            tracer.event(
                "net.omission", batch=batch, sender=sender, recipient=recipient, tag=message.tag
            )
        flight = _obs.flightrec
        if flight is not None:
            flight.push(
                "omission",
                batch=batch,
                session=self.session,
                sender=sender,
                recipient=recipient,
                tag=message.tag,
            )
        return True

    def _dump_event_budget(self, batch: int, events: int) -> None:
        """Snapshot the flight recorder before an over-budget run raises."""
        unfinished = [i for i, s in self._honest.items() if not s.finished]
        flight = _obs.flightrec
        if flight is not None:
            flight.push(
                "scheduler.stall",
                reason="event-budget",
                batch=batch,
                events=events,
                session=self.session,
                unfinished=unfinished,
            )
        _flightrec.dump_if_active(
            "event-budget",
            session=self.session,
            batch=batch,
            events=events,
            delay_model=self.delay_model.spec(),
            unfinished=unfinished,
        )

    def _finalize(self, rounds: List[RoundRecord], timed_out: bool) -> Execution:
        """Collect outputs (applying the timeout fallback) into an Execution."""
        metrics = _obs.metrics
        outputs = {}
        for i, state in self._honest.items():
            if state.finished or not timed_out:
                outputs[i] = state.output
            elif callable(self.timeout_output):
                outputs[i] = self.timeout_output(i)
            else:
                outputs[i] = self.timeout_output
        faults = (
            list(self.fault_injector.records)
            if self.fault_injector is not None
            else []
        )
        if self.fault_injector is not None and metrics is not None:
            undelivered = self.fault_injector.undelivered
            if undelivered:
                metrics.inc("faults.delayed.undelivered", undelivered)
        return Execution(
            n=self.n,
            corrupted=frozenset(self.adversary.corrupted),
            inputs=self.inputs,
            outputs=outputs,
            adversary_output=self.adversary.finish(),
            rounds=rounds,
            config=self.config,
            seed=self.seed,
            faults=faults,
            timed_out=timed_out,
            runtime=self.runtime.kind,
        )
