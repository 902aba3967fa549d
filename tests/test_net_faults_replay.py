"""Replay guarantees for faulted executions (satellite of the faults PR).

A faulted run must be reproducible from its recipe alone: the same
(protocol, seed, plan, fault salt) tuple yields the same round records,
the same outputs, the same injected-fault log, and the same metrics
counters — including when the plan took a JSON round trip through disk,
which is exactly what ``--faults PLAN.json`` does.
"""

import dataclasses
import json

from repro.faults import CrashFault, FaultPlan, FaultRule
from repro.obs import Metrics, runtime as obs_runtime
from repro.protocols.naive_commit_reveal import NaiveCommitReveal
from repro.protocols.sequential import SequentialBroadcast
from repro.scenario.schema import load_fault_plan

PLAN = FaultPlan(
    name="replay",
    seed=0xBEEF,
    rules=(
        FaultRule(kind="drop", probability=0.2),
        FaultRule(kind="delay", delay=1, probability=0.2),
        FaultRule(kind="corrupt", probability=0.1),
    ),
    crashes=(CrashFault(party=2, at_round=2, recover_at=4),),
)

INPUTS = [1, 0, 1, 0, 1]


def run_once(plan, seed=7, fault_seed=13):
    protocol = SequentialBroadcast(5, 2)
    with obs_runtime.observed(metrics=Metrics()) as (_, metrics):
        execution = protocol.run(
            INPUTS, seed=seed, fault_plan=plan, fault_seed=fault_seed, timeout_rounds=60
        )
    return execution, metrics.snapshot()


def test_same_recipe_same_execution():
    first, first_metrics = run_once(PLAN)
    second, second_metrics = run_once(PLAN)
    assert first.outputs == second.outputs
    assert first.rounds == second.rounds
    assert first.faults == second.faults
    assert first.timed_out == second.timed_out
    assert first_metrics == second_metrics
    # The plan actually fired (otherwise the test proves nothing).
    assert first.faults


def test_fault_records_are_structured():
    execution, metrics = run_once(PLAN)
    for record in execution.faults:
        assert record.kind in ("drop", "delay", "corrupt", "crash")
        assert 1 <= record.sender <= 5
    by_kind = {}
    for record in execution.faults:
        by_kind[record.kind] = by_kind.get(record.kind, 0) + 1
    counters = metrics["counters"]
    assert counters["faults.injected"] == len(execution.faults)
    names = {
        "drop": "faults.dropped",
        "delay": "faults.delayed",
        "corrupt": "faults.corrupted",
        "crash": "faults.crashed",
    }
    for kind, count in by_kind.items():
        assert counters[names[kind]] == count


def test_plan_json_round_trip_replays_identically():
    reloaded = FaultPlan.from_dict(json.loads(json.dumps(PLAN.to_dict())))
    assert reloaded == PLAN
    direct, direct_metrics = run_once(PLAN)
    replayed, replayed_metrics = run_once(reloaded)
    assert replayed.outputs == direct.outputs
    assert replayed.rounds == direct.rounds
    assert replayed.faults == direct.faults
    assert replayed_metrics == direct_metrics


def test_plan_file_round_trip_replays_identically(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(PLAN.to_dict()))
    direct, _ = run_once(PLAN)
    replayed, _ = run_once(load_fault_plan(str(path)))
    assert replayed.faults == direct.faults
    assert replayed.outputs == direct.outputs


def test_different_fault_seed_different_pattern():
    first, _ = run_once(PLAN, fault_seed=13)
    second, _ = run_once(PLAN, fault_seed=14)
    assert first.faults != second.faults


def test_different_run_seed_same_fault_salt_streams_are_independent():
    # The injector draws only from its own salted RNG, so changing the
    # execution seed leaves the *pattern* of probabilistic draws intact
    # for identical traffic shapes (sequential sends the same message
    # skeleton regardless of seed).
    first, _ = run_once(PLAN, seed=7)
    second, _ = run_once(PLAN, seed=8)
    first_sites = [(r.round, r.kind, r.sender) for r in first.faults]
    second_sites = [(r.round, r.kind, r.sender) for r in second.faults]
    assert first_sites == second_sites


def test_execution_fault_fields_survive_replace():
    execution, _ = run_once(PLAN)
    clone = dataclasses.replace(execution)
    assert clone.faults == execution.faults
    assert clone.timed_out == execution.timed_out


def test_commit_reveal_replay():
    protocol = NaiveCommitReveal(4, 1)
    plan = FaultPlan(seed=3, rules=(FaultRule(kind="drop", probability=0.3),))
    runs = [
        protocol.run([1, 1, 0, 0], seed=21, fault_plan=plan, fault_seed=5)
        for _ in range(2)
    ]
    assert runs[0].outputs == runs[1].outputs
    assert runs[0].faults == runs[1].faults
