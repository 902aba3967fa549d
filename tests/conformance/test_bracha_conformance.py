"""Conformance for Bracha reliable broadcast under crash and omission faults.

Bracha RBC (n > 3t, no signatures) is the protocol zoo's asynchronous
member, so its conformance matrix covers both fault mechanisms:

* **crash faults** through the lockstep :class:`FaultInjector` plan
  library (send omission from a given round), exactly like the other
  single-sender broadcast protocols;
* **omission** through the run's
  :class:`~repro.net.runtime.OmissionPolicy` timing, with delays drawn
  from non-degenerate models so arrivals are genuinely reordered.

The RBC contract differs from the synchronous broadcasts in one place:
reliable broadcast guarantees *totality* (everyone delivers, or no one
does), not termination.  A run in which delivery is impossible — the
sender's traffic was omitted from the start — ends via ``timeout_rounds``
with every honest party at the timeout output ``None``.
"""

from __future__ import annotations

import pytest

from repro.broadcast.bracha import BrachaBroadcast
from repro.faults import CrashFault, FaultPlan
from repro.net.adversary import Adversary, ProgramAdversary
from repro.net.message import send
from repro.net.network import run_protocol

N = 4
T = 1
SENDER = 1
VALUE = 1
TIMEOUT = 12 * N


def crash_plan(parties, at_round=1, name="crash"):
    return FaultPlan(
        name=name,
        crashes=tuple(CrashFault(party=p, at_round=at_round) for p in parties),
    )


def run_bracha(
    plan=None,
    seed=11,
    adversary=None,
    sender=SENDER,
    delay_model=None,
    omission=None,
):
    protocol = BrachaBroadcast(N, T, sender=sender)
    inputs = [VALUE if i == sender else None for i in range(1, N + 1)]
    return run_protocol(
        protocol,
        inputs,
        adversary=adversary,
        seed=seed,
        fault_plan=plan,
        timeout_rounds=TIMEOUT,
        delay_model=delay_model,
        omission=omission,
    )


def check_agreement(execution, excluded=(), expect=None):
    running = [i for i in range(1, N + 1) if i not in excluded]
    outputs = [execution.outputs[i] for i in running]
    assert all(o == outputs[0] for o in outputs), (
        f"honest parties disagree: { {i: execution.outputs[i] for i in running} }"
    )
    if expect is not None:
        assert outputs[0] == expect
    return outputs[0]


class TestValidity:
    def test_all_honest_deliver_sender_value(self, conformance_log):
        execution = run_bracha()
        assert not execution.timed_out
        check_agreement(execution, expect=VALUE)
        conformance_log(
            protocol="bracha", plan="baseline", check="validity", ok=True
        )

    def test_every_sender_position(self):
        for sender in range(1, N + 1):
            execution = run_bracha(sender=sender, seed=sender)
            check_agreement(execution, expect=VALUE)

    def test_resilience_bound_enforced(self):
        with pytest.raises(ValueError):
            BrachaBroadcast(3, 1, sender=1)


class TestCrashFaults:
    def test_one_crashed_relay_is_tolerated(self, conformance_log):
        crashed = (2,)
        execution = run_bracha(plan=crash_plan(crashed, name="crash-one"))
        assert not execution.timed_out
        check_agreement(execution, excluded=crashed, expect=VALUE)
        conformance_log(
            protocol="bracha", plan="crash-one", check="crash-agreement", ok=True
        )

    def test_sender_crash_immediate_delivers_nothing(self, conformance_log):
        # Nothing was ever INITed: totality holds in the empty sense, every
        # party times out undelivered.
        execution = run_bracha(plan=crash_plan((SENDER,), name="sender-crash"))
        assert execution.timed_out
        assert all(execution.outputs[i] is None for i in range(1, N + 1))
        conformance_log(
            protocol="bracha", plan="sender-crash", check="totality-empty", ok=True
        )

    def test_sender_crash_after_init_still_delivers(self, conformance_log):
        # The INIT+ECHO round already went out; echoes from the other
        # three parties form a quorum without the sender's later traffic.
        execution = run_bracha(plan=crash_plan((SENDER,), at_round=2, name="late"))
        assert not execution.timed_out
        check_agreement(execution, excluded=(SENDER,), expect=VALUE)
        conformance_log(
            protocol="bracha", plan="sender-crash-late", check="crash-validity", ok=True
        )


class TestEventRuntimeOmission:
    def test_delivers_under_reordered_arrivals(self, conformance_log):
        for spec in ("uniform:0.5,1.5", "exponential:1.0"):
            execution = run_bracha(delay_model=spec, seed=5)
            assert not execution.timed_out
            check_agreement(execution, expect=VALUE)
        conformance_log(
            protocol="bracha", plan="delay-reorder", check="async-validity", ok=True
        )

    def test_sender_omission_delivers_nowhere(self, conformance_log):
        execution = run_bracha(omission="drop-all:1", seed=5)
        assert execution.timed_out
        assert all(execution.outputs[i] is None for i in range(1, N + 1))
        conformance_log(
            protocol="bracha", plan="omit-sender", check="totality-empty", ok=True
        )

    def test_non_sender_omission_is_tolerated(self, conformance_log):
        # Party 3's sends are all lost; n - 1 = 3 parties still reach the
        # echo quorum (n+t)//2+1 = 3 and the delivery quorum 2t+1 = 3.
        execution = run_bracha(omission="drop-all:3", seed=5)
        assert not execution.timed_out
        check_agreement(execution, excluded=(3,), expect=VALUE)
        conformance_log(
            protocol="bracha", plan="omit-relay", check="omission-agreement", ok=True
        )

    def test_lossy_edges_with_jitter_still_agree(self, conformance_log):
        execution = run_bracha(
            delay_model="uniform:0.5,1.5",
            omission="drop-edges:2-3,3-2",
            seed=9,
        )
        assert not execution.timed_out
        check_agreement(execution, expect=VALUE)
        conformance_log(
            protocol="bracha", plan="lossy-edges", check="omission-agreement", ok=True
        )


class TestByzantineSender:
    def test_equivocating_sender_cannot_split_honest_parties(self, conformance_log):
        # The corrupted sender INITs 0 to parties 2,3 and 1 to party 4.
        # The echo quorum (n+t)//2+1 = 3 intersects every pair of quorums
        # in an honest party, so at most one value can ever be delivered —
        # either everyone agrees on one value, or everyone times out.
        def equivocate(ctx, value):
            yield [
                send(2, ("INIT", 0), tag="bracha:rbc"),
                send(3, ("INIT", 0), tag="bracha:rbc"),
                send(4, ("INIT", 1), tag="bracha:rbc"),
            ]
            return None

        for delay_model in (None, "uniform:0.5,1.5"):
            execution = run_bracha(
                adversary=ProgramAdversary({SENDER: equivocate}),
                delay_model=delay_model,
                seed=13,
            )
            honest_outputs = [execution.outputs[i] for i in (2, 3, 4)]
            delivered = [o for o in honest_outputs if o is not None]
            assert len(set(delivered)) <= 1, (
                f"honest parties delivered different values: {honest_outputs}"
            )
        conformance_log(
            protocol="bracha", plan="equivocate", check="byzantine-agreement", ok=True
        )

    def test_silent_byzantine_relay_is_tolerated(self, conformance_log):
        execution = run_bracha(adversary=Adversary(corrupted=[4]), seed=3)
        assert not execution.timed_out
        check_agreement(execution, excluded=(4,), expect=VALUE)
        conformance_log(
            protocol="bracha", plan="silent-byzantine", check="agreement", ok=True
        )
