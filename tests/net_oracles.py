"""The textbook Section 3.1 round loop: the oracle the engine is tested against.

Production runs go through :class:`repro.net.scheduler.Scheduler`, one
discrete-event loop whose default timing (``rush:constant:1``, given or
not) is the paper's synchronous model.  :func:`run_lockstep` writes that
model out the plain way, one round at a time:

1. every unfinished honest party reads last round's messages and speaks;
2. the fault hook rewrites the honest traffic;
3. the rushing view: each corrupted party gets this round's honest
   traffic addressed to it, after last round's corrupted traffic to it,
   and the adversary acts;
4. everything sent is buffered for delivery next round.

No calendar, no delay model, no validation, and no metrics, traces or
flight records.  It draws from the execution RNG in the order
:func:`repro.net.run_protocol` does, so the same seed gives the same run.
``tests/test_net_runtime.py`` and ``tests/test_net_runtime_properties.py``
compare the engine with it at both spellings of that timing.

:func:`observe_round` is the other oracle here: the scheduler's per-round
byte and message accounting written as one ``Metrics.inc`` per counter
per message, sizing each payload by encoding it.
``tests/test_net_scheduler.py`` compares the engine's folded accounting
with it.
"""

import random
from typing import Any, Optional, Sequence

from repro.errors import NetworkError
from repro.faults.injector import FaultInjector
from repro.net.adversary import Adversary
from repro.net.message import Inbox, Message, RoundRecord
from repro.net.party import PartyContext, PartyState
from repro.net.scheduler import DEFAULT_MAX_ROUNDS
from repro.net.transcript import Execution
from repro.obs import Metrics
from repro.serialization import encode


def run_lockstep(
    protocol: Any,
    inputs: Sequence[Any],
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    fault_plan: Any = None,
    fault_seed: Optional[int] = None,
    timeout_rounds: Optional[int] = None,
    timeout_output: Any = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> Execution:
    """One execution of ``protocol`` in the paper's synchronous rushing model."""
    n = protocol.n
    rng = random.Random(seed)
    adversary = adversary if adversary is not None else Adversary(corrupted=())
    corrupted = adversary.corrupted
    injector = None
    if fault_plan is not None:
        salt = fault_seed if fault_seed is not None else rng.getrandbits(64)
        injector = FaultInjector(fault_plan, salt=salt)
    config = protocol.setup(rng)
    session = type(protocol).__name__
    honest = {}
    for i in range(1, n + 1):
        if i not in corrupted:
            ctx = PartyContext(
                party_id=i,
                n=n,
                rng=random.Random(rng.getrandbits(64)),
                config=config,
                session=session,
            )
            honest[i] = PartyState(party_id=i, generator=protocol.program(ctx, inputs[i - 1]))
    installer = getattr(adversary, "set_program_factory", None)
    if installer is not None:
        installer(protocol.program)
    adversary.setup(
        n=n,
        config=config,
        corrupted_inputs={i: inputs[i - 1] for i in corrupted},
        rng=random.Random(rng.getrandbits(64)),
        session=session,
    )

    rounds = []
    delivered = {i: [] for i in range(1, n + 1)}  # last round's traffic, by recipient
    timed_out = False
    round_number = 0
    while True:
        round_number += 1
        if timeout_rounds is not None and round_number > timeout_rounds:
            timed_out = True
            break
        if round_number > max_rounds:
            raise NetworkError(f"protocol did not terminate within {max_rounds} rounds")
        honest_traffic = []
        for i, state in honest.items():
            if state.finished:
                continue
            if round_number == 1:
                drafts = state.start()
            else:
                drafts = state.resume(Inbox(delivered[i]))
            honest_traffic += [draft.stamped(i) for draft in drafts]
        if injector is not None:
            honest_traffic = injector.apply(round_number, honest_traffic)
        rushed = {
            i: Inbox(
                [m for m in delivered[i] if m.sender in corrupted]
                + [m for m in honest_traffic if m.addressed_to(i)]
            )
            for i in corrupted
        }
        corrupted_traffic = []
        for i, drafts in adversary.act(round_number, rushed).items():
            for draft in drafts or []:
                corrupted_traffic.append(
                    draft if isinstance(draft, Message) else draft.stamped(i)
                )
        traffic = honest_traffic + corrupted_traffic
        adversary.observe(round_number, traffic)
        rounds.append(RoundRecord(round=round_number, messages=traffic))
        delivered = {
            i: [m for m in traffic if m.addressed_to(i)] for i in range(1, n + 1)
        }
        if all(state.finished for state in honest.values()):
            break

    outputs = {}
    for i, state in honest.items():
        if state.finished or not timed_out:
            outputs[i] = state.output
        elif callable(timeout_output):
            outputs[i] = timeout_output(i)
        else:
            outputs[i] = timeout_output
    return Execution(
        n=n,
        corrupted=frozenset(corrupted),
        inputs=tuple(inputs),
        outputs=outputs,
        adversary_output=adversary.finish(),
        rounds=rounds,
        config=config,
        seed=seed,
        faults=list(injector.records) if injector is not None else [],
        timed_out=timed_out,
    )


def same_run(execution: Execution, oracle: Execution) -> bool:
    """Whether an engine run reproduces the oracle's, message for message."""
    return (
        execution.outputs == oracle.outputs
        and execution.rounds == oracle.rounds
        and execution.adversary_output == oracle.adversary_output
        and execution.timed_out == oracle.timed_out
        and execution.faults == oracle.faults
    )


def observe_round(
    metrics: Metrics,
    traffic: Sequence[Message],
    honest_traffic: Sequence[Message],
    corrupted_traffic: Sequence[Message],
) -> None:
    """Charge one round's network counters and histograms message by message."""
    metrics.inc("net.rounds")
    metrics.inc("net.messages.sent", len(traffic))
    metrics.inc("net.messages.honest", len(honest_traffic))
    metrics.inc("net.messages.corrupted", len(corrupted_traffic))
    round_bytes = 0
    for message in traffic:
        try:
            size = len(encode(message.payload))
        except TypeError:
            size = len(repr(message.payload).encode("utf-8"))
        round_bytes += size
        metrics.inc(f"net.messages.sent.party.{message.sender}")
        metrics.inc(f"net.bytes.sent.party.{message.sender}", size)
        if message.is_broadcast:
            metrics.inc("net.messages.broadcast")
    metrics.inc("net.bytes.sent", round_bytes)
    metrics.observe("net.round.messages", len(traffic))
    metrics.observe("net.round.bytes", round_bytes)
