"""Tests for the network runtime (repro.net.runtime / .scheduler).

Covers the run's timing value (:class:`RuntimeConfig` and its derived
``kind``; the environment steers nothing), the delay and omission model
vocabulary, the delivery calendar (:class:`EventClock`), the engine's
progress guards, equivalence with the textbook round loop of
``tests/net_oracles.py`` at the default and the explicit
``rush:constant:1`` timing, and — the load-bearing part — the regression
pinning the paper's rushing-attack verdicts when the rushing adversary
is re-derived as the :class:`RushDelay` delay-model point.
"""

import pytest

from repro.adversaries import CommitEchoAdversary, SequentialCopier
from repro.errors import InvalidParameterError, NetworkError
from repro.faults import FaultPlan, FaultRule
from repro.net import run_protocol
from repro.net import runtime as net_runtime
from repro.net import scheduler as net_scheduler
from repro.net.adversary import Adversary
from repro.net.message import broadcast
from repro.net.runtime import (
    ConstantDelay,
    DropAll,
    DropEdges,
    EventClock,
    ExponentialDelay,
    MIN_EDGE_DELAY,
    RandomDrop,
    RushDelay,
    RuntimeConfig,
    UniformDelay,
    delay_model_from_spec,
    omission_from_spec,
    resolve_runtime,
)
from repro.obs import Metrics, flightrec
from repro.obs import runtime as obs_runtime
from repro.protocols import (
    ChorRabinBroadcast,
    GennaroBroadcast,
    NaiveCommitReveal,
    SequentialBroadcast,
)

from .net_oracles import run_lockstep, same_run

#: The paper's round, spelled out: explicit timing, so the run is tagged
#: ``"event"`` and draws a clock seed, yet it is the default's round model.
EXPLICIT_RUSH = {"delay_model": "rush:constant:1"}

#: A real timing for the second leg of the both-timings checks.
JITTER = {"delay_model": "uniform:0.5,1.5"}


class EchoProtocol:
    def __init__(self, n):
        self.n = n

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        inbox = yield [broadcast(value, tag="val")]
        heard = inbox.payload_by_sender(tag="val")
        return tuple(heard.get(i) for i in range(1, ctx.n + 1))


class NeverTerminates:
    def __init__(self):
        self.n = 2

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        while True:
            yield []


class ChattyForever:
    """Keeps broadcasting forever — traffic never stops, the queue never drains."""

    def __init__(self):
        self.n = 2

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        while True:
            yield [broadcast("again", tag="x")]


# -- delay models -------------------------------------------------------------------


class TestDelayModels:
    def test_constant(self):
        model = ConstantDelay(2.5)
        assert model.edge_delay(1, 2, None) == 2.5
        assert model.spec() == {"model": "constant", "ticks": 2.5}
        with pytest.raises(InvalidParameterError):
            ConstantDelay(0)

    def test_uniform_bounds(self):
        import random

        model = UniformDelay(0.5, 1.5)
        rng = random.Random(1)
        draws = [model.edge_delay(1, 2, rng) for _ in range(200)]
        assert all(0.5 <= d <= 1.5 for d in draws)
        assert len(set(draws)) > 1
        with pytest.raises(InvalidParameterError):
            UniformDelay(2.0, 1.0)

    def test_exponential_positive(self):
        import random

        model = ExponentialDelay(mean=0.7)
        rng = random.Random(2)
        draws = [model.edge_delay(1, 2, rng) for _ in range(200)]
        assert all(d > 0 for d in draws)
        with pytest.raises(InvalidParameterError):
            ExponentialDelay(0)

    def test_rush_marks_only_honest_to_corrupted_edges(self):
        model = RushDelay()
        corrupted = frozenset({3})
        assert model.rushes(1, 3, corrupted)
        assert not model.rushes(3, 1, corrupted)  # adversary edges deliver last
        assert not model.rushes(1, 2, corrupted)
        assert not model.rushes(3, 3, corrupted)

    def test_rush_defaults_to_one_round_base(self):
        model = RushDelay()
        assert isinstance(model.base, ConstantDelay)
        assert model.edge_delay(1, 2, None) == 1.0

    def test_spec_parsing(self):
        assert delay_model_from_spec(None) is None
        model = delay_model_from_spec("uniform:0.5,1.5")
        assert isinstance(model, UniformDelay)
        assert (model.low, model.high) == (0.5, 1.5)
        nested = delay_model_from_spec("rush:uniform:0.25,2.0")
        assert isinstance(nested, RushDelay)
        assert isinstance(nested.base, UniformDelay)
        passthrough = ConstantDelay(3.0)
        assert delay_model_from_spec(passthrough) is passthrough
        with pytest.raises(InvalidParameterError):
            delay_model_from_spec("warp:9")
        with pytest.raises(InvalidParameterError):
            delay_model_from_spec("uniform:fast,slow")


class TestOmissionPolicies:
    def test_drop_all_by_sender(self):
        policy = DropAll(1)
        assert policy.omits(1, 2, None, None)
        assert not policy.omits(2, 1, None, None)

    def test_drop_edges_directed(self):
        policy = DropEdges([(1, 2)])
        assert policy.omits(1, 2, None, None)
        assert not policy.omits(2, 1, None, None)

    def test_random_drop_is_seeded(self):
        import random

        policy = RandomDrop(0.5)
        first = [policy.omits(1, 2, None, random.Random(9)) for _ in range(1)]
        second = [policy.omits(1, 2, None, random.Random(9)) for _ in range(1)]
        assert first == second
        with pytest.raises(InvalidParameterError):
            RandomDrop(1.5)

    def test_spec_parsing(self):
        assert omission_from_spec(None) is None
        assert omission_from_spec("none") is None
        policy = omission_from_spec("drop-all:1,3")
        assert isinstance(policy, DropAll)
        assert policy.parties == frozenset({1, 3})
        edges = omission_from_spec("drop-edges:1-2,3-4")
        assert isinstance(edges, DropEdges)
        assert edges.edges == frozenset({(1, 2), (3, 4)})
        rnd = omission_from_spec("random:0.25")
        assert isinstance(rnd, RandomDrop)
        assert rnd.probability == 0.25
        with pytest.raises(InvalidParameterError):
            omission_from_spec("teleport:1")


# -- the clock ----------------------------------------------------------------------


class TestEventClock:
    def test_orders_by_time_then_schedule_order(self):
        clock = EventClock(seed=1)
        clock.schedule(2.0, 1, "late")
        clock.schedule(1.0, 1, "early-a")
        clock.schedule(1.0, 2, "other")
        clock.schedule(1.0, 1, "early-b")
        assert clock.advance() == {1: ["early-a", "early-b"], 2: ["other"]}
        assert clock.now == pytest.approx(1.0)
        assert clock.advance() == {1: ["late"]}
        assert clock.now == pytest.approx(2.0)

    def test_zero_delay_is_clamped_strictly_forward(self):
        clock = EventClock(seed=1)
        clock.schedule(5.0, 1, "first")
        clock.advance()
        sent_at = clock.now
        clock.schedule(0.0, 2, "x")
        clock.schedule(-3.0, 2, "y")
        assert clock.advance() == {2: ["x", "y"]}
        assert clock.now - sent_at == pytest.approx(MIN_EDGE_DELAY)
        assert clock.now > sent_at

    def test_edge_streams_are_independent_and_replayable(self):
        a = EventClock(seed=42)
        b = EventClock(seed=42)
        assert a.edge_rng(1, 2).random() == b.edge_rng(1, 2).random()
        assert a.edge_rng(1, 2) is a.edge_rng(1, 2)  # one stream per edge
        # Distinct edges own distinct streams (directionally, too).
        c = EventClock(seed=42)
        assert c.edge_rng(1, 2).random() != c.edge_rng(2, 1).random()

    def test_tick_advances_without_deliveries(self):
        clock = EventClock(seed=0)
        clock.slot(0.25)  # a slot nothing was scheduled into is no instant
        assert clock.advance() == {}
        assert clock.now == pytest.approx(1.0)
        clock.schedule(0.5, 1, "x")
        assert clock.advance() == {1: ["x"]}
        assert clock.now == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "timing, expect_streams",
        [
            ({}, False),
            (EXPLICIT_RUSH, False),
            ({"omission": "drop-all:1"}, False),
            (JITTER, True),
            ({"omission": "random:0.1"}, True),
        ],
    )
    def test_engine_creates_streams_only_for_drawing_timing(
        self, monkeypatch, timing, expect_streams
    ):
        seeded = []
        mix = net_runtime._mix_edge_seed

        def counting_mix(seed, sender, recipient):
            seeded.append((sender, recipient))
            return mix(seed, sender, recipient)

        monkeypatch.setattr(net_runtime, "_mix_edge_seed", counting_mix)
        run_protocol(
            SequentialBroadcast(4, 1), [1, 0, 1, 1], seed=3,
            timeout_rounds=40, timeout_output=(0, 0, 0, 0), **timing,
        )
        assert bool(seeded) == expect_streams
        assert len(seeded) == len(set(seeded))  # at most one stream per edge


# -- the run's timing ---------------------------------------------------------------


class TestResolveRuntime:
    def test_default_is_lockstep(self):
        config = resolve_runtime()
        assert config.kind == "lockstep"
        assert config.omission is None
        timing = config.resolved_delay_model()
        assert isinstance(timing, RushDelay) and timing.fixed_delay() == 1.0

    def test_kind_is_derived_from_the_timing(self):
        assert RuntimeConfig().kind == "lockstep"
        assert resolve_runtime("", "none").kind == "lockstep"
        assert resolve_runtime(delay_model="uniform:0.5,1.5").kind == "event"
        assert resolve_runtime(omission="drop-all:1").kind == "event"
        assert resolve_runtime(delay_model=ConstantDelay(2.0)).delay_model.ticks == 2.0

    def test_event_default_delay_model_is_rushing_round(self):
        resolved = RuntimeConfig(omission=DropAll(1)).resolved_delay_model()
        assert isinstance(resolved, RushDelay)
        assert isinstance(resolved.base, ConstantDelay)

    def test_environment_steers_nothing(self, monkeypatch):
        # No environment variable selects a timing: a run has exactly the
        # timing it is given.
        monkeypatch.setenv("REPRO_RUNTIME", "event")
        monkeypatch.setenv("REPRO_DELAY_MODEL", "uniform:0.5,1.5")
        monkeypatch.setenv("REPRO_OMISSION", "drop-all:1")
        assert resolve_runtime().kind == "lockstep"
        protocol = GennaroBroadcast(5, 2, security_bits=16)
        assert protocol.announced([1] * 5, seed=3) == (1, 1, 1, 1, 1)


# -- the engine ---------------------------------------------------------------------


class TestOracleEquivalence:
    """The default and the explicit ``rush:constant:1`` timing reproduce the
    textbook round loop of ``tests/net_oracles.py``."""

    def test_echo_matches_lockstep_exactly(self):
        oracle = run_lockstep(EchoProtocol(3), [10, 20, 30], seed=1)
        for timing, kind in (({}, "lockstep"), (EXPLICIT_RUSH, "event")):
            execution = run_protocol(EchoProtocol(3), [10, 20, 30], seed=1, **timing)
            assert execution.runtime == kind
            assert same_run(execution, oracle)

    def test_execution_records_runtime(self):
        assert run_protocol(EchoProtocol(2), [1, 2], seed=1).runtime == "lockstep"

    def test_event_runtime_is_replay_identical(self):
        first = run_protocol(EchoProtocol(3), [1, 0, 1], seed=7, **JITTER)
        second = run_protocol(EchoProtocol(3), [1, 0, 1], seed=7, **JITTER)
        assert first.outputs == second.outputs
        assert first.rounds == second.rounds

    @pytest.mark.parametrize("timing", [{}, EXPLICIT_RUSH], ids=["lockstep", "event"])
    def test_faulted_round_counting_run_ends_cleanly(self, timing):
        # Every message dropped, yet chor-rabin counts its rounds to the
        # end: a silent calendar is not a stuck run.
        plan = FaultPlan(rules=(FaultRule(kind="drop"),))
        protocol = ChorRabinBroadcast(3, 1, security_bits=16)
        oracle = run_lockstep(protocol, [1, 0, 1], seed=5, fault_plan=plan)
        execution = run_protocol(protocol, [1, 0, 1], seed=5, fault_plan=plan, **timing)
        assert execution.round_count == 10
        assert not execution.timed_out
        assert same_run(execution, oracle)


class TestProgressGuards:
    def test_silent_stall_raises_without_timeout(self):
        # A program that never returns runs to max_rounds, however silent.
        for timing in ({}, JITTER):
            with pytest.raises(NetworkError, match="within 50 rounds"):
                run_protocol(NeverTerminates(), [None, None], seed=1, max_rounds=50, **timing)

    def test_silent_stall_finalizes_under_timeout(self):
        for timing in ({}, JITTER):
            execution = run_protocol(
                NeverTerminates(), [None, None], seed=1,
                timeout_rounds=13, timeout_output="gave-up", **timing,
            )
            assert execution.timed_out
            assert execution.round_count == 13
            assert execution.outputs == {1: "gave-up", 2: "gave-up"}

    def test_event_budget_guard(self, monkeypatch, tmp_path):
        # One delivery budget bounds every timing; over it, the run dumps
        # the flight recorder and raises.
        monkeypatch.setattr(net_scheduler, "DEFAULT_MAX_EVENTS", 50)
        for timing in ({}, JITTER):
            with flightrec.recording(dump_dir=str(tmp_path)) as recorder:
                with pytest.raises(NetworkError, match="more than 50"):
                    run_protocol(ChattyForever(), [None, None], seed=1, **timing)
            header = flightrec.read_dump(recorder.dumps[0])[0]
            assert header["reason"] == "event-budget"

    def test_omission_starves_echo(self):
        # Drop everything party 1 sends: party 2 never hears it.
        execution = run_protocol(
            EchoProtocol(2), [5, 6], seed=1, omission="drop-all:1",
            timeout_rounds=6, timeout_output=None,
        )
        assert execution.outputs[2] == (None, 6)

    def test_rushed_omission_counts_once(self):
        # Party 1's broadcast to the corrupted party 3 is rushed and lost:
        # it counts as omitted only.  Two honest broadcasts, six edges.
        with obs_runtime.observed(metrics=Metrics()) as (_, metrics):
            run_protocol(
                EchoProtocol(3), [1, 2, 3], seed=1, adversary=Adversary(corrupted={3}),
                omission="drop-all:1",
            )
        delivered = metrics.get("net.messages.delivered")
        omitted = metrics.get("net.messages.omitted")
        assert (delivered, omitted) == (3, 3)
        assert delivered + omitted == 6


class TestRushDelayRegression:
    """The paper's rushing-attack verdicts, reproduced as a delay-model point.

    These assertions are copies of the lockstep attack tests in
    ``tests/test_protocols_attacks.py`` run with the timing spelled out as
    ``rush:constant:1``: an explicit :class:`RushDelay` round must reach the
    exact same verdicts (attack succeeds / protocol resists) the default
    timing reaches.
    """

    def test_sequential_copier_still_succeeds(self):
        protocol = SequentialBroadcast(4, 1)
        for x1 in (0, 1):
            lockstep = protocol.announced(
                (x1, 1, 0, 0), adversary=SequentialCopier(copier=4, target=1), seed=2
            )
            event = protocol.announced(
                (x1, 1, 0, 0),
                adversary=SequentialCopier(copier=4, target=1),
                seed=2,
                **EXPLICIT_RUSH,
            )
            assert event == lockstep
            assert event[3] == x1  # the copy attack still lands

    def test_commit_echo_still_breaks_naive_commit_reveal(self):
        protocol = NaiveCommitReveal(4, 1)
        for x1 in (0, 1):
            announced = protocol.announced(
                (x1, 1, 0, 0),
                adversary=CommitEchoAdversary(copier=4, target=1),
                seed=2,
                **EXPLICIT_RUSH,
            )
            assert announced[3] == x1

    def test_gennaro_still_resists_echo(self):
        protocol = GennaroBroadcast(4, 1, security_bits=16)
        announced = protocol.announced(
            (1, 1, 0, 0),
            adversary=CommitEchoAdversary(
                copier=4, target=1, commit_tag="gen:commit", reveal_tag="gen:reveal"
            ),
            seed=3,
            **EXPLICIT_RUSH,
        )
        assert announced[3] == 0  # disqualified, constant default
        assert announced[:3] == (1, 1, 0)

    def test_without_rushing_the_echo_attack_fails(self):
        # Control: take the rushing edge away (plain constant delays, the
        # adversary hears everything one batch late) and the reveal echo
        # misses its window — the verdict flips, proving RushDelay is what
        # carries the paper's adversary model, not the engine itself.
        protocol = NaiveCommitReveal(4, 1)
        announced = protocol.announced(
            (1, 1, 0, 0),
            adversary=CommitEchoAdversary(copier=4, target=1),
            seed=2,
            delay_model=ConstantDelay(1.0),
            timeout_rounds=20,
        )
        assert announced[3] == 0  # no copy: the echo arrived too late
