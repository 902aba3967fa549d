"""Tests for repro.faults: plans, the injector, and the scheduler hooks."""

import random

import pytest

from repro.errors import InvalidParameterError, NetworkError
from repro.faults import (
    STANDARD_PLANS,
    CrashFault,
    FaultInjector,
    FaultPlan,
    FaultRule,
    corrupt_payload,
    get_plan,
    with_faults,
)
from repro.net.adversary import Adversary, NO_ADVERSARY
from repro.net.message import BROADCAST, Message, broadcast, send
from repro.net.network import run_protocol
from repro.obs import Metrics, Tracer, runtime as obs_runtime
from repro.protocols.naive_commit_reveal import NaiveCommitReveal
from repro.protocols.sequential import SequentialBroadcast


def msg(sender=1, recipient=2, payload="x", tag="t"):
    return Message(sender=sender, recipient=recipient, payload=payload, tag=tag)


class EchoProtocol:
    """Round 1: everyone broadcasts its input.  Round 2: output what was heard."""

    def __init__(self, n):
        self.n = n

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        inbox = yield [broadcast(value, tag="val")]
        heard = inbox.payload_by_sender(tag="val")
        return tuple(heard.get(i) for i in range(1, ctx.n + 1))


class ForeverProtocol:
    """Programs that never return — the timeout test subject."""

    def __init__(self, n):
        self.n = n

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        while True:
            yield [send(1 + ctx.party_id % ctx.n, value, tag="loop")]


class TestFaultRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultRule(kind="explode")

    def test_probability_range(self):
        with pytest.raises(InvalidParameterError):
            FaultRule(kind="drop", probability=1.5)
        with pytest.raises(InvalidParameterError):
            FaultRule(kind="drop", probability=-0.1)

    def test_delay_and_copies_bounds(self):
        with pytest.raises(InvalidParameterError):
            FaultRule(kind="delay", delay=0)
        with pytest.raises(InvalidParameterError):
            FaultRule(kind="duplicate", copies=0)

    def test_corrupt_mode_checked(self):
        with pytest.raises(InvalidParameterError):
            FaultRule(kind="corrupt", mode="sparkle")

    def test_filters_normalized_to_tuples(self):
        rule = FaultRule(kind="drop", senders=[1, 2], tags=["a"])
        assert rule.senders == (1, 2)
        assert rule.tags == ("a",)
        assert rule.receivers is None


class TestFaultRuleMatching:
    def test_wildcards_match_everything(self):
        rule = FaultRule(kind="drop")
        assert rule.matches(1, msg())
        assert rule.matches(99, msg(recipient=BROADCAST))

    def test_each_filter_restricts(self):
        rule = FaultRule(kind="drop", rounds=[2], senders=[1], receivers=[2], tags=["t"])
        assert rule.matches(2, msg())
        assert not rule.matches(3, msg())
        assert not rule.matches(2, msg(sender=4))
        assert not rule.matches(2, msg(recipient=5))
        assert not rule.matches(2, msg(tag="other"))

    def test_broadcasts_never_match_explicit_receivers(self):
        # Broadcast faults are all-or-nothing: targeting a subset of a
        # broadcast's receivers would desynchronise honest views.
        rule = FaultRule(kind="drop", receivers=[1, 2, 3])
        assert not rule.matches(1, msg(recipient=BROADCAST))
        wildcard = FaultRule(kind="drop")
        assert wildcard.matches(1, msg(recipient=BROADCAST))


class TestCrashFault:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            CrashFault(party=0)
        with pytest.raises(InvalidParameterError):
            CrashFault(party=1, at_round=0)
        with pytest.raises(InvalidParameterError):
            CrashFault(party=1, at_round=3, recover_at=3)

    def test_active_window(self):
        crash = CrashFault(party=2, at_round=2, recover_at=4)
        assert [crash.active(r) for r in (1, 2, 3, 4)] == [False, True, True, False]

    def test_permanent_crash(self):
        crash = CrashFault(party=1, at_round=3)
        assert not crash.active(2)
        assert crash.active(1000)


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty()
        assert plan.crashed_parties == ()

    def test_crashed_parties_sorted_unique(self):
        plan = FaultPlan(
            crashes=(CrashFault(party=3), CrashFault(party=1), CrashFault(party=3, at_round=5))
        )
        assert plan.crashed_parties == (1, 3)

    def test_injector_seed_salting(self):
        plan = FaultPlan(seed=7)
        assert plan.injector_seed(0) != plan.injector_seed(1)
        assert plan.injector_seed(5) == FaultPlan(seed=7).injector_seed(5)

    def test_json_round_trip(self):
        plan = FaultPlan(
            name="rt",
            seed=99,
            rules=(
                FaultRule(kind="drop", senders=[1], probability=0.5),
                FaultRule(kind="delay", delay=2, rounds=[1, 3]),
                FaultRule(kind="duplicate", copies=3),
                FaultRule(kind="corrupt", mode="flip", tags=["x"]),
            ),
            crashes=(CrashFault(party=2, at_round=2, recover_at=4),),
        )
        assert FaultPlan.loads(plan.dumps()) == plan

    def test_file_round_trip(self, tmp_path):
        plan = get_plan("mixed")
        path = tmp_path / "plan.json"
        plan.dump(str(path))
        assert FaultPlan.load(str(path)) == plan

    def test_library_names_consistent(self):
        for name, plan in STANDARD_PLANS.items():
            assert plan.name == name
        with pytest.raises(KeyError):
            get_plan("no-such-plan")


class TestCorruptPayload:
    def test_flip_inverts_bits(self):
        rng = random.Random(0)
        assert corrupt_payload(0, rng, mode="flip") == 1
        assert corrupt_payload(1, rng, mode="flip") == 0

    def test_flip_falls_back_to_garbage(self):
        rng = random.Random(0)
        mangled = corrupt_payload(("tuple", 1), rng, mode="flip")
        assert mangled[0] == "faults:corrupted"

    def test_garbage_is_tagged_junk(self):
        rng = random.Random(0)
        mangled = corrupt_payload(5, rng)
        assert mangled[0] == "faults:corrupted"


class TestFaultInjector:
    def test_empty_plan_is_identity(self):
        injector = FaultInjector(FaultPlan())
        traffic = [msg(), msg(sender=2)]
        assert injector.apply(1, traffic) == traffic
        assert injector.records == []

    def test_drop(self):
        plan = FaultPlan(rules=(FaultRule(kind="drop", senders=[1]),))
        injector = FaultInjector(plan)
        out = injector.apply(1, [msg(sender=1), msg(sender=2)])
        assert [m.sender for m in out] == [2]
        assert [r.kind for r in injector.records] == ["drop"]

    def test_delay_releases_later(self):
        plan = FaultPlan(rules=(FaultRule(kind="delay", delay=2, rounds=[1]),))
        injector = FaultInjector(plan)
        delayed = msg(payload="late")
        assert injector.apply(1, [delayed]) == []
        assert injector.undelivered == 1
        assert injector.apply(2, []) == []
        assert injector.apply(3, []) == [delayed]
        assert injector.undelivered == 0

    def test_duplicate(self):
        plan = FaultPlan(rules=(FaultRule(kind="duplicate", copies=2),))
        injector = FaultInjector(plan)
        out = injector.apply(1, [msg()])
        assert len(out) == 3
        assert len(set(id(m) for m in out)) <= 3 and all(m == out[0] for m in out)

    def test_corrupt_rewrites_payload(self):
        plan = FaultPlan(rules=(FaultRule(kind="corrupt", mode="flip", tags=["bit"]),))
        injector = FaultInjector(plan)
        out = injector.apply(1, [msg(payload=1, tag="bit"), msg(payload=1, tag="other")])
        assert out[0].payload == 0
        assert out[1].payload == 1

    def test_crash_suppresses_sender_in_window(self):
        plan = FaultPlan(crashes=(CrashFault(party=1, at_round=2, recover_at=3),))
        injector = FaultInjector(plan)
        assert len(injector.apply(1, [msg(sender=1)])) == 1
        assert injector.apply(2, [msg(sender=1), msg(sender=2)])[0].sender == 2
        assert len(injector.apply(3, [msg(sender=1)])) == 1
        assert [r.kind for r in injector.records] == ["crash"]

    def test_probability_is_seed_deterministic(self):
        plan = FaultPlan(seed=11, rules=(FaultRule(kind="drop", probability=0.5),))
        traffic = [msg(sender=i) for i in range(1, 9)]
        first = FaultInjector(plan, salt=3).apply(1, traffic)
        second = FaultInjector(plan, salt=3).apply(1, traffic)
        assert first == second
        assert 0 < len(first) < len(traffic)

    def test_metrics_and_tracer_recording(self):
        plan = FaultPlan(
            rules=(FaultRule(kind="drop", senders=[1]),),
            crashes=(CrashFault(party=2, at_round=1),),
        )
        tracer = Tracer()
        with obs_runtime.observed(tracer=tracer, metrics=Metrics()) as (_, metrics):
            injector = FaultInjector(plan)
            injector.apply(1, [msg(sender=1), msg(sender=2)])
        assert metrics.get("faults.injected") == 2
        assert metrics.get("faults.dropped") == 1
        assert metrics.get("faults.crashed") == 1
        kinds = [e["attrs"]["kind"] for e in tracer.events("fault.inject")]
        assert sorted(kinds) == ["crash", "drop"]


class TestSchedulerIntegration:
    def test_execution_records_faults(self):
        protocol = EchoProtocol(3)
        plan = FaultPlan(rules=(FaultRule(kind="drop", senders=[2]),))
        execution = run_protocol(protocol, [10, 20, 30], seed=1, fault_plan=plan)
        assert execution.faults and all(r.kind == "drop" for r in execution.faults)
        # Party 2's broadcast vanished for everyone, including itself.
        for i in (1, 2, 3):
            assert execution.outputs[i] == (10, None, 30)

    def test_no_plan_leaves_execution_clean(self):
        execution = run_protocol(EchoProtocol(3), [1, 2, 3], seed=1)
        assert execution.faults == []
        assert not execution.timed_out

    def test_faults_strike_before_rushing(self):
        class PeekAdversary(Adversary):
            def __init__(self):
                super().__init__(corrupted=[3])
                self.rushed_senders = []

            def act(self, round_number, rushed):
                self.rushed_senders.extend(m.sender for m in rushed[3])
                return {3: []}

        adversary = PeekAdversary()
        plan = FaultPlan(rules=(FaultRule(kind="drop", senders=[1]),))
        run_protocol(EchoProtocol(3), [1, 2, 3], adversary=adversary, seed=1, fault_plan=plan)
        # Party 1's broadcast was dropped before the rushing view was built.
        assert 1 not in adversary.rushed_senders
        assert 2 in adversary.rushed_senders

    def test_timeout_fallback_instead_of_network_error(self):
        protocol = ForeverProtocol(3)
        with pytest.raises(NetworkError):
            run_protocol(protocol, [0, 0, 0], seed=1, max_rounds=20)
        execution = run_protocol(
            protocol, [0, 0, 0], seed=1, max_rounds=20,
            timeout_rounds=5, timeout_output="gave-up",
        )
        assert execution.timed_out
        assert execution.outputs == {1: "gave-up", 2: "gave-up", 3: "gave-up"}
        assert execution.round_count == 5

    def test_timeout_output_callable(self):
        execution = run_protocol(
            ForeverProtocol(2), [0, 0], seed=1,
            timeout_rounds=3, timeout_output=lambda i: ("default", i),
        )
        assert execution.outputs == {1: ("default", 1), 2: ("default", 2)}

    def test_protocol_run_timeout_defaults_bits(self):
        # ParallelBroadcastProtocol.run threads the paper's default bit
        # vector as the degraded output.
        protocol = SequentialBroadcast(4, 1)
        plan = FaultPlan(crashes=(CrashFault(party=1, at_round=1),))
        execution = protocol.run([1, 0, 1, 0], seed=2, fault_plan=plan, timeout_rounds=2)
        assert execution.timed_out
        for i in (1, 2, 3, 4):
            assert execution.outputs[i] == (0, 0, 0, 0)

    def test_timeout_metric(self):
        with obs_runtime.observed(metrics=Metrics()) as (_, metrics):
            run_protocol(ForeverProtocol(2), [0, 0], seed=1, timeout_rounds=3,
                         timeout_output=None)
        assert metrics.get("net.timeouts") == 1

    def test_run_protocol_fault_plan_drops_sender(self):
        plan = FaultPlan(rules=(FaultRule(kind="drop", senders=[3]),))
        execution = run_protocol(
            EchoProtocol(3), [7, 8, 9], rng=random.Random(5), fault_plan=plan, fault_seed=0
        )
        assert execution.outputs[1] == (7, 8, None)

    def test_with_faults_proxy(self):
        plan = FaultPlan(crashes=(CrashFault(party=2, at_round=1),))
        faulted = with_faults(NaiveCommitReveal(4, 1), plan, timeout_rounds=30)
        assert faulted.n == 4 and faulted.name == "naive-commit-reveal"
        announced = faulted.announced([1, 1, 1, 1], seed=3)
        # Party 2's commit never hit the wire; everyone defaults its slot.
        assert announced == (1, 0, 1, 1)


class TestAdversaryRngSeeding:
    def test_rng_is_none_until_setup(self):
        adversary = Adversary(corrupted=[1])
        assert adversary.rng is None
        adversary.setup(n=3, config=None, corrupted_inputs={1: 0}, rng=random.Random(9))
        assert adversary.rng is not None

    def test_scheduler_threads_execution_seed(self):
        class RngRecorder(Adversary):
            def setup(self, **kwargs):
                super().setup(**kwargs)
                self.first_draw = self.rng.getrandbits(32)

        first = RngRecorder(corrupted=[2])
        second = RngRecorder(corrupted=[2])
        third = RngRecorder(corrupted=[2])
        run_protocol(EchoProtocol(3), [1, 2, 3], adversary=first, seed=4)
        run_protocol(EchoProtocol(3), [1, 2, 3], adversary=second, seed=4)
        run_protocol(EchoProtocol(3), [1, 2, 3], adversary=third, seed=5)
        assert first.first_draw == second.first_draw
        assert first.first_draw != third.first_draw

    def test_no_adversary_unchanged(self):
        assert NO_ADVERSARY.corrupted == frozenset()
