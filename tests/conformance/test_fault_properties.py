"""Property-based conformance: determinism, serialization, sharding.

Hypothesis generates arbitrary (valid) fault plans and checks the three
properties the whole subsystem rests on:

* **fixed-seed determinism** — the same (plan, seed, salt) recipe yields
  bit-identical executions;
* **JSON round trip** — every plan survives ``to_dict``/``from_dict``
  through JSON text exactly;
* **shard-partition commutation** — running a trial batch through any
  :class:`TrialPlan` partition produces the same per-trial results as the
  serial loop, which is the invariant that keeps ``--jobs N`` honest.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import ExperimentConfig, TrialPlan
from repro.faults import CrashFault, FaultPlan, FaultRule
from repro.protocols import NaiveCommitReveal

N = 4

kinds = st.sampled_from(["drop", "delay", "duplicate", "corrupt"])
parties = st.integers(min_value=1, max_value=N)
maybe_parties = st.none() | st.lists(parties, min_size=1, max_size=N)
maybe_rounds = st.none() | st.lists(
    st.integers(min_value=1, max_value=6), min_size=1, max_size=3
)
maybe_tags = st.none() | st.lists(
    st.sampled_from(["naive:commit", "naive:reveal", "other"]), min_size=1, max_size=2
)


@st.composite
def fault_rules(draw):
    kind = draw(kinds)
    return FaultRule(
        kind=kind,
        rounds=draw(maybe_rounds),
        senders=draw(maybe_parties),
        receivers=draw(maybe_parties),
        tags=draw(maybe_tags),
        probability=draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
        delay=draw(st.integers(min_value=1, max_value=3)),
        copies=draw(st.integers(min_value=1, max_value=3)),
        mode=draw(st.sampled_from(["garbage", "flip"])),
    )


@st.composite
def crash_faults(draw):
    at_round = draw(st.integers(min_value=1, max_value=4))
    recover = draw(st.none() | st.integers(min_value=at_round + 1, max_value=8))
    return CrashFault(party=draw(parties), at_round=at_round, recover_at=recover)


@st.composite
def fault_plans(draw):
    return FaultPlan(
        rules=tuple(draw(st.lists(fault_rules(), max_size=3))),
        crashes=tuple(draw(st.lists(crash_faults(), max_size=2))),
        seed=draw(st.integers(min_value=0, max_value=2**20)),
        name=draw(st.sampled_from(["", "prop"])),
    )


@settings(max_examples=20, deadline=None)
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**16))
def test_fixed_seed_determinism(plan, seed):
    protocol = NaiveCommitReveal(N, 1)
    runs = [
        protocol.run([1, 0, 1, 0], seed=seed, fault_plan=plan, fault_seed=5,
                     timeout_rounds=30)
        for _ in range(2)
    ]
    assert runs[0].outputs == runs[1].outputs
    assert runs[0].rounds == runs[1].rounds
    assert runs[0].faults == runs[1].faults
    assert runs[0].timed_out == runs[1].timed_out


@settings(max_examples=50, deadline=None)
@given(plan=fault_plans())
def test_json_round_trip(plan):
    assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def _trial_result(config, plan, shard, trial):
    """One trial of the canonical per-trial recipe (mirrors E-FAULT)."""
    protocol = NaiveCommitReveal(config.n, config.t)
    trial_rng = shard.rng(config, trial)
    inputs = [trial_rng.randrange(2) for _ in range(config.n)]
    run_rng = random.Random(trial_rng.getrandbits(64))
    fault_seed = trial_rng.getrandbits(64)
    execution = protocol.run(
        inputs, rng=run_rng, fault_plan=plan, fault_seed=fault_seed, timeout_rounds=30
    )
    return (tuple(sorted(execution.outputs.items())), tuple(execution.faults))


@settings(max_examples=10, deadline=None)
@given(
    plan=fault_plans(),
    total=st.integers(min_value=1, max_value=9),
    parts=st.integers(min_value=1, max_value=5),
    salt=st.integers(min_value=1, max_value=2**10),
)
def test_shard_partition_commutes(plan, total, parts, salt):
    config = ExperimentConfig(n=N, t=1, seed=99)
    serial_plan = TrialPlan(salt=salt, total=total, parts=1)
    sharded_plan = TrialPlan(salt=salt, total=total, parts=parts)
    serial = [
        _trial_result(config, plan, shard, trial)
        for shard in serial_plan.shards()
        for trial in shard.trials()
    ]
    sharded = [
        _trial_result(config, plan, shard, trial)
        for shard in sharded_plan.shards()
        for trial in shard.trials()
    ]
    assert sharded == serial
