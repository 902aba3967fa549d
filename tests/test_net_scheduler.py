"""Tests for the round engine: delivery, rushing, termination, transcripts."""

import random
import sys

import pytest

from repro.errors import NetworkError, ProtocolError
from repro.net.adversary import Adversary, PassiveAdversary, ProgramAdversary
from repro.net.message import Draft, Message, broadcast, send
from repro.net.network import run_protocol
from repro.obs import Metrics, Tracer, payload_size, runtime as obs_runtime
from repro.protocols import SequentialBroadcast
from repro.serialization import encode

from . import net_oracles


class EchoProtocol:
    """Round 1: everyone broadcasts its input.  Round 2: output what was heard."""

    def __init__(self, n):
        self.n = n

    def setup(self, rng):
        return {"name": "echo"}

    def program(self, ctx, value):
        inbox = yield [broadcast(value, tag="val")]
        heard = inbox.payload_by_sender(tag="val")
        return tuple(heard.get(i) for i in range(1, ctx.n + 1))


class PingPongProtocol:
    """Party 1 sends to 2, party 2 replies; measures point-to-point latency."""

    def __init__(self):
        self.n = 2

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        if ctx.party_id == 1:
            inbox = yield [send(2, ("ping", value))]
            inbox = yield []
            reply = inbox.first_from(2)
            return reply.payload if reply else None
        inbox = yield []
        ping = inbox.first_from(1)
        inbox = yield [send(1, ("pong", ping.payload[1]))]
        return "done"


class NeverTerminates:
    def __init__(self):
        self.n = 2

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        while True:
            yield []


class TestBasicExecution:
    def test_echo_all_honest(self):
        execution = run_protocol(EchoProtocol(3), [10, 20, 30], seed=1)
        for i in (1, 2, 3):
            assert execution.outputs[i] == (10, 20, 30)
        assert execution.round_count == 2

    def test_ping_pong(self):
        execution = run_protocol(PingPongProtocol(), ["x", None], seed=1)
        assert execution.outputs[1] == ("pong", "x")
        assert execution.outputs[2] == "done"

    def test_exec_vector_shape(self):
        execution = run_protocol(EchoProtocol(2), [1, 0], seed=1)
        vector = execution.exec_vector
        assert len(vector) == 3
        assert vector[0] is None  # no-adversary output
        assert vector[1] == (1, 0)

    def test_max_rounds_guard(self):
        with pytest.raises(NetworkError):
            run_protocol(NeverTerminates(), [None, None], seed=1, max_rounds=5)

    def test_input_count_validated(self):
        with pytest.raises(ProtocolError):
            run_protocol(EchoProtocol(3), [1, 2], seed=1)

    def test_all_corrupted_rejected(self):
        with pytest.raises(ProtocolError):
            run_protocol(
                EchoProtocol(2), [1, 2], adversary=Adversary(corrupted=[1, 2]), seed=1
            )

    def test_out_of_range_corruption_rejected(self):
        with pytest.raises(ProtocolError):
            run_protocol(
                EchoProtocol(2), [1, 2], adversary=Adversary(corrupted=[5]), seed=1
            )

    def test_deterministic_under_seed(self):
        e1 = run_protocol(EchoProtocol(3), [1, 0, 1], seed=7)
        e2 = run_protocol(EchoProtocol(3), [1, 0, 1], seed=7)
        assert e1.outputs == e2.outputs
        assert [r.messages for r in e1.rounds] == [r.messages for r in e2.rounds]

    def test_transcript_records_traffic(self):
        execution = run_protocol(EchoProtocol(2), [5, 6], seed=1)
        assert [record.round for record in execution.rounds][:1] == [1]
        round1 = execution.rounds[0].messages
        assert {(m.sender, m.payload) for m in round1} == {(1, 5), (2, 6)}
        assert all(m.is_broadcast for m in round1)
        assert len(execution.all_messages()) == 2


class TestSilentCorruption:
    def test_crashed_party_delivers_nothing(self):
        execution = run_protocol(
            EchoProtocol(3), [10, 20, 30], adversary=Adversary(corrupted=[2]), seed=1
        )
        assert execution.outputs[1] == (10, None, 30)
        assert 2 not in execution.outputs

    def test_honest_list(self):
        execution = run_protocol(
            EchoProtocol(3), [1, 1, 1], adversary=Adversary(corrupted=[2]), seed=1
        )
        assert execution.honest == [1, 3]


class TestPassiveAdversary:
    def test_corrupted_behave_honestly(self):
        execution = run_protocol(
            EchoProtocol(3),
            [10, 20, 30],
            adversary=PassiveAdversary(corrupted=[2]),
            seed=1,
        )
        assert execution.outputs[1] == (10, 20, 30)
        assert execution.adversary_output[2] == (10, 20, 30)

    def test_requires_program_factory_installed(self):
        adversary = PassiveAdversary(corrupted=[1])
        with pytest.raises(ProtocolError):
            adversary.setup(2, None, {}, random.Random(0))


class TestProgramAdversary:
    def test_malicious_program_replaces_value(self):
        def liar(ctx, value):
            yield [broadcast(999, tag="val")]
            return None

        execution = run_protocol(
            EchoProtocol(3),
            [10, 20, 30],
            adversary=ProgramAdversary({2: liar}),
            seed=1,
        )
        assert execution.outputs[1] == (10, 999, 30)

    def test_input_override(self):
        def honest_like(ctx, value):
            yield [broadcast(value, tag="val")]
            return None

        execution = run_protocol(
            EchoProtocol(3),
            [10, 20, 30],
            adversary=ProgramAdversary({2: honest_like}, inputs_override={2: -1}),
            seed=1,
        )
        assert execution.outputs[1] == (10, -1, 30)


class TestRushing:
    def test_adversary_sees_current_round_honest_broadcasts(self):
        """A rushing adversary echoes an honest round-1 broadcast in round 1."""

        class RushEcho(Adversary):
            def act(self, round_number, rushed):
                if round_number == 1:
                    seen = rushed[2].broadcasts(tag="val")
                    honest_value = next(
                        m.payload for m in seen if m.sender == 1
                    )
                    return {2: [broadcast(honest_value, tag="val")]}
                return {2: []}

        execution = run_protocol(
            EchoProtocol(3), [10, 20, 30], adversary=RushEcho(corrupted=[2]), seed=1
        )
        # Party 2's announced value equals party 1's, decided within round 1.
        assert execution.outputs[1] == (10, 10, 30)

    def test_rushed_point_to_point_traffic(self):
        """Honest round-r p2p messages to corrupted parties arrive in round r."""

        observed_rounds = {}

        class Recorder(Adversary):
            def act(self, round_number, rushed):
                for message in rushed[2]:
                    if not message.is_broadcast:
                        observed_rounds.setdefault(message.payload, round_number)
                return {2: []}

        run_protocol(
            PingPongProtocol(), ["x", None], adversary=Recorder(corrupted=[2]), seed=1
        )
        # Party 1 sends ("ping", "x") in round 1; the adversary must see it in round 1.
        assert observed_rounds[("ping", "x")] == 1

    def test_honest_parties_are_not_rushed(self):
        """Honest parties see round-r messages only in round r+1 (EchoProtocol
        outputs would be impossible otherwise: they hear values one round later)."""
        execution = run_protocol(EchoProtocol(2), [1, 2], seed=0)
        assert execution.round_count == 2

    def test_adversary_observes_all_channels(self):
        seen = []

        class Observer(Adversary):
            def observe(self, round_number, traffic):
                seen.extend(m.payload for m in traffic)

            def finish(self):
                return seen

        execution = run_protocol(
            PingPongProtocol(), ["x", None], adversary=Observer(corrupted=[]), seed=1
        )
        # Wait: corrupted=[] means no corrupted parties, but observe still sees traffic.
        assert ("ping", "x") in execution.adversary_output
        assert ("pong", "x") in execution.adversary_output

    def test_forged_honest_sender_rejected(self):
        class Forger(Adversary):
            def act(self, round_number, rushed):
                return {2: [Message(sender=1, recipient=3, payload="fake")]}

        with pytest.raises(ProtocolError):
            run_protocol(
                EchoProtocol(3), [1, 2, 3], adversary=Forger(corrupted=[2]), seed=1
            )

    def test_forged_corrupted_sender_allowed(self):
        class CorruptForger(Adversary):
            def act(self, round_number, rushed):
                if round_number == 1:
                    return {
                        2: [
                            Message(sender=4, recipient=1, payload="from-4"),
                            Draft(recipient=1, payload="from-2").stamped(2),
                        ]
                    }
                return {2: []}

        class Listen:
            n = 4

            def setup(self, rng):
                return None

            def program(self, ctx, value):
                inbox = yield []
                return sorted(m.payload for m in inbox)

        execution = run_protocol(
            Listen(),
            [None] * 4,
            adversary=CorruptForger(corrupted=[2, 4]),
            seed=1,
        )
        assert execution.outputs[1] == ["from-2", "from-4"]


class TestSeedRecording:
    def test_seed_recorded_on_execution(self):
        assert run_protocol(EchoProtocol(2), [1, 0], seed=9).seed == 9
        # The silent default is no longer silent: it is recorded as 0.
        assert run_protocol(EchoProtocol(2), [1, 0]).seed == 0
        # An externally seeded rng cannot be recovered; recorded as unknown.
        assert run_protocol(EchoProtocol(2), [1, 0], rng=random.Random(5)).seed is None

    def test_default_seed_matches_explicit_zero(self):
        defaulted = run_protocol(EchoProtocol(3), [1, 0, 1])
        explicit = run_protocol(EchoProtocol(3), [1, 0, 1], seed=0)
        assert defaulted.outputs == explicit.outputs
        assert defaulted.seed == explicit.seed == 0

    def test_seed_traced(self):
        tracer = Tracer()
        with obs_runtime.observed(tracer=tracer):
            run_protocol(EchoProtocol(2), [1, 0])
        (event,) = tracer.events("run_protocol.seed")
        assert event["attrs"]["seed"] == 0
        assert event["attrs"]["defaulted"] is True
        (span,) = tracer.spans("scheduler.run")
        assert span["attrs"]["seed"] == 0


class TestInstrumentation:
    """Scheduler counters must match the execution transcript exactly."""

    def _observed_run(self, protocol, inputs, adversary=None, seed=1):
        with obs_runtime.observed(metrics=Metrics()) as (_, metrics):
            execution = run_protocol(protocol, inputs, adversary=adversary, seed=seed)
        return execution, metrics

    def test_message_and_round_counters_match_transcript(self):
        execution, metrics = self._observed_run(EchoProtocol(3), [10, 20, 30])
        messages = execution.all_messages()
        assert metrics.get("net.rounds") == execution.round_count == 2
        assert metrics.get("net.messages.sent") == len(messages) == 3
        assert metrics.get("net.messages.honest") == 3
        assert metrics.get("net.messages.corrupted") == 0
        assert metrics.get("net.messages.broadcast") == 3
        # Each broadcast is delivered to all 3 parties.
        assert metrics.get("net.messages.delivered") == 9

    def test_byte_counters_match_transcript(self):
        execution, metrics = self._observed_run(EchoProtocol(3), [10, 20, 30])
        expected = sum(payload_size(m.payload) for m in execution.all_messages())
        assert metrics.get("net.bytes.sent") == expected
        per_party = {
            i: sum(
                payload_size(m.payload)
                for m in execution.all_messages()
                if m.sender == i
            )
            for i in (1, 2, 3)
        }
        for i, size in per_party.items():
            assert metrics.get(f"net.messages.sent.party.{i}") == 1
            assert metrics.get(f"net.bytes.sent.party.{i}") == size
        assert sum(per_party.values()) == expected

    def test_point_to_point_accounting(self):
        execution, metrics = self._observed_run(PingPongProtocol(), ["x", None])
        messages = execution.all_messages()
        assert metrics.get("net.messages.sent") == len(messages) == 2
        assert metrics.get("net.messages.broadcast") == 0
        # p2p messages are delivered to exactly one recipient each.
        assert metrics.get("net.messages.delivered") == 2
        assert metrics.get("net.messages.sent.party.1") == 1
        assert metrics.get("net.messages.sent.party.2") == 1

    def test_corrupted_traffic_counted(self):
        execution, metrics = self._observed_run(
            EchoProtocol(3), [10, 20, 30], adversary=PassiveAdversary(corrupted=[2])
        )
        assert metrics.get("net.messages.honest") == 2
        assert metrics.get("net.messages.corrupted") == 1
        assert metrics.get("net.messages.sent") == len(execution.all_messages()) == 3

    def test_counters_deterministic_across_replays(self):
        _, first = self._observed_run(EchoProtocol(3), [1, 0, 1], seed=7)
        _, second = self._observed_run(EchoProtocol(3), [1, 0, 1], seed=7)
        assert first.counters == second.counters

    def test_deep_payload_is_metered_without_changing_the_run(self):
        """A corrupted party's payload nested past the recursion limit is
        sized exactly, and metering leaves the run's outcome alone."""
        depth = 5 * sys.getrecursionlimit()
        deep = 1
        for _ in range(depth):
            deep = (deep,)

        class DeepSender(Adversary):
            def act(self, round_number, rushed):
                return {2: [broadcast(deep)]}

        protocol = SequentialBroadcast(4, 1)
        inputs = [1, 0, 1, 1]
        plain = protocol.run(inputs, adversary=DeepSender(corrupted=[2]), seed=5)
        with obs_runtime.observed(metrics=Metrics()) as (_, metrics):
            metered = protocol.run(inputs, adversary=DeepSender(corrupted=[2]), seed=5)
        assert metered.announced_vector() == plain.announced_vector()
        sent = [m for m in metered.all_messages() if m.payload is deep]
        assert sent and payload_size(deep) == 9 * depth + len(encode(1))
        assert metrics.get("net.bytes.sent") == sum(
            payload_size(m.payload) for m in metered.all_messages()
        )

    def test_round_accounting_matches_the_per_message_oracle(self):
        """One mixed round: honest broadcasts and point-to-point messages plus
        an adversary's broadcast and smuggled payload, which the canonical
        encoding rejects and only ``repr`` can size."""

        class MixedRound:
            n = 4

            def setup(self, rng):
                return None

            def program(self, ctx, value):
                yield [
                    broadcast(value, tag="val"),
                    send(ctx.party_id % ctx.n + 1, ("ünïcode", 10**40, b"\x00"), tag="p2p"),
                ]
                return ctx.party_id

        class Smuggler(Adversary):
            def act(self, round_number, rushed):
                if round_number != 1:
                    return {3: []}
                return {3: [broadcast(("bit", 1)), send(1, {"smuggled": 0.25, 7: None})]}

        execution, metrics = self._observed_run(
            MixedRound(), [1, "x", 2**70, {"k": (1, 2)}], adversary=Smuggler(corrupted=[3])
        )
        mixed, silent = execution.rounds
        assert {m.is_broadcast for m in mixed.messages} == {True, False}
        assert not silent.messages
        assert payload_size({"smuggled": 0.25, 7: None}) == len(repr({"smuggled": 0.25, 7: None}))
        oracle = Metrics()
        for record in execution.rounds:
            net_oracles.observe_round(
                oracle,
                record.messages,
                [m for m in record.messages if m.sender not in execution.corrupted],
                [m for m in record.messages if m.sender in execution.corrupted],
            )
        net = {k: v for k, v in metrics.counters.items() if k.startswith("net.")}
        assert net == {**oracle.counters, "net.messages.delivered": net["net.messages.delivered"]}
        for name in ("net.round.messages", "net.round.bytes"):
            assert metrics.histograms[name].snapshot() == oracle.histograms[name].snapshot()

    def test_uninstrumented_run_pays_no_bookkeeping(self):
        execution = run_protocol(EchoProtocol(3), [10, 20, 30], seed=1)
        assert obs_runtime.metrics is None
        assert execution.round_count == 2
