"""Property-based tests for the network runtime (hypothesis).

Three invariants, each quantified over random seeds and parameters:

* **replay** — every delay draw comes from a seeded per-edge stream, so
  the same (seed, model) always reproduces the same draws;
* **determinism** — a full execution under any timing (delivery order,
  transcripts, outputs) is a pure function of (seed, delay model);
* **degeneracy** — the default timing, and the same
  ``RushDelay(ConstantDelay(1))`` round given explicitly, *are* the
  paper's round model: announced vectors, transcripts, and round counts
  coincide with the textbook loop of ``tests/net_oracles.py`` on the
  protocol zoo, with and without a rushing adversary.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import SequentialCopier
from repro.net import run_protocol
from repro.net.runtime import (
    ConstantDelay,
    EventClock,
    ExponentialDelay,
    RushDelay,
    UniformDelay,
    delay_model_from_spec,
)
from repro.protocols import (
    IdealSimultaneousBroadcast,
    PiGBroadcast,
    SequentialBroadcast,
)

from .net_oracles import run_lockstep, same_run


N, T = 4, 1

seeds = st.integers(min_value=0, max_value=2**32 - 1)
input_vectors = st.lists(
    st.integers(min_value=0, max_value=1), min_size=N, max_size=N
)
edges = st.tuples(
    st.integers(min_value=1, max_value=N), st.integers(min_value=1, max_value=N)
)
delay_specs = st.sampled_from(
    [
        "constant:1",
        "constant:0.25",
        "uniform:0.5,1.5",
        "uniform:0.1,3.0",
        "exponential:1.0",
        "rush:uniform:0.5,1.5",
    ]
)

FAST_FACTORIES = [
    lambda: SequentialBroadcast(N, T),
    lambda: IdealSimultaneousBroadcast(N, T),
    lambda: PiGBroadcast(N, T, backend="ideal"),
]


class TestSeededDrawsReplay:
    @given(seed=seeds, edge=edges, spec=delay_specs)
    @settings(max_examples=40, deadline=None)
    def test_edge_delay_draws_replay_identically(self, seed, edge, spec):
        sender, recipient = edge
        model = delay_model_from_spec(spec)
        first = [
            model.edge_delay(sender, recipient, EventClock(seed).edge_rng(sender, recipient))
            for _ in range(1)
        ]
        clock_a, clock_b = EventClock(seed), EventClock(seed)
        draws_a = [
            model.edge_delay(sender, recipient, clock_a.edge_rng(sender, recipient))
            for _ in range(8)
        ]
        draws_b = [
            model.edge_delay(sender, recipient, clock_b.edge_rng(sender, recipient))
            for _ in range(8)
        ]
        assert draws_a == draws_b
        assert draws_a[0] == first[0]

    @given(
        seed=seeds,
        plan=st.lists(
            st.tuples(st.sampled_from([0.5, 1.0, 2.0]), st.integers(1, N)),
            min_size=1, max_size=30,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_schedule_order_breaks_ties_deterministically(self, seed, plan):
        clock = EventClock(seed)
        for item, (delay, recipient) in enumerate(plan):
            clock.schedule(delay, recipient, item)
        popped = []
        while len(popped) < len(plan):
            inboxes = clock.advance()
            for recipient in sorted(inboxes):
                popped.extend((clock.now, recipient, item) for item in inboxes[recipient])
        # Every item arrives once, at its delay, and ties reach each
        # recipient in schedule order.
        expected = sorted((delay, r, item) for item, (delay, r) in enumerate(plan))
        assert popped == expected


class TestDeliveryOrderDeterminism:
    @given(seed=seeds, bits=input_vectors, spec=delay_specs)
    @settings(max_examples=12, deadline=None)
    def test_execution_is_a_function_of_seed_and_model(self, seed, bits, spec):
        protocol = SequentialBroadcast(N, T)
        runs = [
            run_protocol(
                protocol,
                list(bits),
                seed=seed,
                delay_model=spec,
                timeout_rounds=40,
                timeout_output=tuple([0] * N),
            )
            for _ in range(2)
        ]
        assert runs[0].outputs == runs[1].outputs
        assert runs[0].rounds == runs[1].rounds
        assert runs[0].timed_out == runs[1].timed_out


class TestLockstepDegeneracy:
    @given(
        seed=seeds,
        bits=input_vectors,
        factory_index=st.integers(min_value=0, max_value=len(FAST_FACTORIES) - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_default_event_timing_equals_lockstep(self, seed, bits, factory_index):
        protocol = FAST_FACTORIES[factory_index]()
        oracle = run_lockstep(protocol, list(bits), seed=seed)
        execution = run_protocol(protocol, list(bits), seed=seed)
        assert execution.runtime == "lockstep"
        assert same_run(execution, oracle)

    @given(seed=seeds, bits=input_vectors)
    @settings(max_examples=15, deadline=None)
    def test_explicit_rush_constant_is_the_same_degenerate_point(self, seed, bits):
        protocol = SequentialBroadcast(N, T)
        oracle = run_lockstep(protocol, list(bits), seed=seed)
        event = run_protocol(
            protocol,
            list(bits),
            seed=seed,
            delay_model=RushDelay(ConstantDelay(1.0)),
        )
        assert event.runtime == "event"
        assert same_run(event, oracle)

    @given(seed=seeds, bits=input_vectors)
    @settings(max_examples=15, deadline=None)
    def test_rushing_adversary_sees_the_same_rounds(self, seed, bits):
        protocol = SequentialBroadcast(N, T)
        oracle = run_lockstep(
            protocol, list(bits), adversary=SequentialCopier(copier=N, target=1), seed=seed
        )
        for timing in ({}, {"delay_model": "rush:constant:1"}):
            execution = run_protocol(
                protocol, list(bits), adversary=SequentialCopier(copier=N, target=1),
                seed=seed, **timing,
            )
            assert same_run(execution, oracle)


class TestModelSanity:
    @given(seed=seeds, low=st.floats(min_value=0.0, max_value=2.0), width=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_uniform_draws_stay_in_bounds(self, seed, low, width):
        model = UniformDelay(low, low + width)
        rng = EventClock(seed).edge_rng(1, 2)
        for _ in range(16):
            draw = model.edge_delay(1, 2, rng)
            assert low <= draw <= low + width + 1e-12

    @given(seed=seeds, mean=st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_exponential_draws_are_positive(self, seed, mean):
        model = ExponentialDelay(mean)
        rng = EventClock(seed).edge_rng(2, 1)
        for _ in range(16):
            assert model.edge_delay(2, 1, rng) > 0


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
