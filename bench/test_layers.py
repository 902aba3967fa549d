"""Self-checks of the benchmark: metric names, wrapper coverage, attribution.

Run with ``python3 -m pytest bench -q`` from the repository root (about two
minutes: one short traced run per workload).  Each traced run checks that
every entry point a workload exercises recorded calls, and that the
entry points predicted idle on it stayed at zero, so a change that
rebinds an imported name cannot silently empty a layer.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402

#: Metrics every workload must report above zero.
EVERYWHERE = (
    "net.runs",
    "net.rounds",
    "net.messages",
    "protocols.setup.calls",
    "protocols.steps",
    "adversaries.acts",
    "obs.payload_size.calls",
    "obs.metrics.calls",
)

KERNELS = tuple(
    f"fastpath.{kernel}.calls"
    for kernel in ("pow_mod", "multi_pow", "vss_expected", "pedersen_commit", "batch_verify")
)

POOL = ("parallel.tasks", "parallel.map_s", "parallel.task_s", "parallel.pool_start_s")
SERIAL_IDLE = POOL + (
    "parallel.shm.attach_ratio",
    "parallel.pickle_bytes",
    "parallel.fold_s",
    "parallel.self_s",
)

#: workload -> (metrics that must be > 0, metrics predicted to stay 0).
EXPECTED = {
    "paper-crypto": (
        KERNELS
        + (
            "crypto.backend.powmod.calls",
            "crypto.group.exp",
            "core.estimator.calls",
            "experiments.E-FIG1.s",
            "experiments.E-TRD.s",
        ),
        SERIAL_IDLE + ("faults.apply.calls", "mpc.bgw.calls", "scenario.run.calls"),
    ),
    "mpc-pool": (
        POOL
        + (
            "mpc.bgw.calls",
            "mpc.bgw.s",
            "crypto.field.mul",
            "parallel.shm.attach_ratio",
            "experiments.E-C66.s",
        ),
        KERNELS + ("crypto.group.exp", "faults.apply.calls", "scenario.run.calls"),
    ),
    "campaign-pool": (
        POOL
        + (
            "faults.apply.calls",
            "faults.records",
            "scenario.run.calls",
            "scenario.shrink.calls",
            "scenario.trials",
            "scenario.corpus_files",
        ),
        ("mpc.bgw.calls", "experiments.E-FIG1.s", "experiments.E-C66.s"),
    ),
    "scale-n": (
        ("fastpath.pow_mod.calls", "crypto.group.exp")
        + tuple(f"scale.{family}.msg_exp" for family in run.SCALE_FAMILIES),
        SERIAL_IDLE + ("faults.apply.calls", "mpc.bgw.calls", "scenario.run.calls"),
    ),
}


def _declared(section: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {metric["name"]: metric for metric in spec[section]}


def test_benchmark_json_matches_the_code():
    spec, per_layer = _declared("per_layer")
    names = list(layers.layer_metrics(layers.LayerClock(), {}, {}, run.NO_SCALING, 1.0))
    assert sorted(per_layer) == sorted(names + list(run.RUN_METRICS))
    for name, metric in per_layer.items():
        assert metric["unit"] == run.layer_unit(name), name
    _, end_to_end = _declared("end_to_end")
    assert {name: m["unit"] for name, m in end_to_end.items()} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(EXPECTED)


def test_fit_exponent_recovers_a_power_law():
    assert layers.fit_exponent({n: 3.0 * n**2 for n in (8, 16, 32)}) == pytest.approx(2.0)
    assert layers.fit_exponent({16: 1.0}) == 0.0


def test_generator_frame_forwards_send_and_return():
    clock = layers.LayerClock()

    def echo(limit):
        total = 0
        for _ in range(limit):
            total += yield total
        return total

    def caller():
        return (yield from clock.generator_frame("mpc", "mpc.bgw", echo)(3))

    outer = caller()
    assert next(outer) == 0
    assert outer.send(2) == 2
    assert outer.send(5) == 7
    with pytest.raises(StopIteration) as stop:
        outer.send(1)
    assert stop.value.value == 8
    assert clock.calls["mpc.bgw"] == 1
    assert clock.self_ns["mpc"] > 0


def _traced(workload: str):
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
        check=True,
    )
    lines = completed.stdout.strip().splitlines()
    coverage = next(line for line in lines if line.startswith("# layers "))
    return json.loads(lines[-1]), json.loads(coverage[len("# layers "):])


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_run_covers_its_layers(workload):
    result, coverage = _traced(workload)
    assert result["correct"] and result["failed"] == 0
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    busy, idle = EXPECTED[workload]
    assert [name for name in EVERYWHERE + busy if not metrics[name] > 0] == []
    assert [name for name in idle if metrics[name] != 0] == []
    # Every entry point is bound somewhere, or its layer could never record.
    assert [entry for entry, sites in coverage["sites"].items() if sites == 0] == []
    attributed = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert math.isclose(attributed + metrics["other_s"], metrics["traced_wall_s"], rel_tol=1e-9)
    # Nearly all traced time lies inside some layer's frames, and no frame
    # ran outside the timed region (which would make `other` negative).
    assert -0.01 < metrics["other_s"] / metrics["traced_wall_s"] < 0.05
    assert metrics["trace_overhead"] > 1.0
