"""Tests for the sub-protocol composition combinators."""

import pytest

from repro.errors import ProtocolError
from repro.net.compose import run_in_lockstep
from repro.net.message import send
from repro.net.network import run_protocol


def echo_sub(ctx, partner, value, instance):
    """Send a value to the partner, return what the partner sent."""
    inbox = yield [send(partner, value, tag=f"echo:{instance}")]
    message = inbox.first_from(partner, tag=f"echo:{instance}")
    return message.payload if message else None


class LockstepEcho:
    """Each party runs two parallel echo sub-protocols with both neighbours."""

    def __init__(self, n=3):
        self.n = n

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        others = ctx.others()
        subs = {
            other: echo_sub(ctx, other, (ctx.party_id, value), instance=f"{min(ctx.party_id, other)}-{max(ctx.party_id, other)}")
            for other in others
        }
        results = yield from run_in_lockstep(subs)
        return results


class TestRunInLockstep:
    def test_parallel_subprotocols_complete_in_one_round_set(self):
        execution = run_protocol(LockstepEcho(3), ["a", "b", "c"], seed=1)
        assert execution.outputs[1] == {2: (2, "b"), 3: (3, "c")}
        assert execution.outputs[2] == {1: (1, "a"), 3: (3, "c")}
        # Both sub-protocols ran in the same 1 communication round.
        assert execution.communication_rounds == 1

    def test_mixed_durations(self):
        """A short sub finishes early while a long one keeps the group alive."""

        def short(ctx):
            yield []
            return "short-done"

        def long(ctx):
            yield []
            yield []
            yield []
            return "long-done"

        class Mixed:
            n = 2

            def setup(self, rng):
                return None

            def program(self, ctx, value):
                results = yield from run_in_lockstep(
                    {"s": short(ctx), "l": long(ctx)}
                )
                return results

        execution = run_protocol(Mixed(), [None, None], seed=2)
        assert execution.outputs[1] == {"s": "short-done", "l": "long-done"}

    def test_immediately_finished_sub(self):
        def instant(ctx):
            return "now"
            yield  # pragma: no cover - makes this a generator

        def one_round(ctx):
            yield []
            return "later"

        class Mixed:
            n = 2

            def setup(self, rng):
                return None

            def program(self, ctx, value):
                results = yield from run_in_lockstep(
                    {"a": instant(ctx), "b": one_round(ctx)}
                )
                return results

        execution = run_protocol(Mixed(), [None, None], seed=3)
        assert execution.outputs[1] == {"a": "now", "b": "later"}

    def test_final_round_drafts_are_flushed(self):
        """Drafts produced in the same round a sub finishes still get sent."""

        def talker(ctx):
            yield [send(2 if ctx.party_id == 1 else 1, "late", tag="flush")]
            return "ok"

        class Flush:
            n = 2

            def setup(self, rng):
                return None

            def program(self, ctx, value):
                results = yield from run_in_lockstep({"t": talker(ctx)})
                return results["t"]

        execution = run_protocol(Flush(), [None, None], seed=4)
        sent = [m for m in execution.all_messages() if m.tag == "flush"]
        assert len(sent) == 2

    def test_bad_draft_type_rejected(self):
        def bad(ctx):
            yield ["not-a-draft"]
            return None

        class Bad:
            n = 2

            def setup(self, rng):
                return None

            def program(self, ctx, value):
                results = yield from run_in_lockstep({"x": bad(ctx)})
                return results

        with pytest.raises(ProtocolError):
            run_protocol(Bad(), [None, None], seed=5)

    def test_nested_lockstep(self):
        def leaf(ctx, label):
            yield []
            return label

        class Nested:
            n = 2

            def setup(self, rng):
                return None

            def program(self, ctx, value):
                inner = run_in_lockstep(
                    {"a": leaf(ctx, "a"), "b": leaf(ctx, "b")}
                )
                results = yield from run_in_lockstep({"inner": inner, "c": leaf(ctx, "c")})
                return results

        execution = run_protocol(Nested(), [None, None], seed=6)
        assert execution.outputs[1] == {"inner": {"a": "a", "b": "b"}, "c": "c"}


class TestIdleRounds:
    def test_idle_counts_rounds(self):
        class Idler:
            n = 2

            def setup(self, rng):
                return None

            def program(self, ctx, value):
                for _ in range(3):
                    yield []
                return "done"

        execution = run_protocol(Idler(), [None, None], seed=7)
        assert execution.outputs[1] == "done"
        assert execution.round_count == 4  # 3 idle + 1 termination round
