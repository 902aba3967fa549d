"""Benchmark the parallel engine: serial vs 2/4/8-worker wall-clock.

Runs the E-COST + E-C56 + E-C66 subset (the fast, representative slice
of the sharded experiments) through ``run_many`` at each worker count,
asserts serial/parallel result equality, and records the measured
wall-clocks — plus the speedups and the CPU budget they were measured
under — as ``results/BENCH_parallel.json``.

Interpretation note: speedup is bounded by the CPUs actually available
(``cpu_budget`` in the artifact).  On a single-core runner the workers
buy no extra CPU, but they fork from a coordinator whose parameter
caches and fixed-base tables are already warm — so jobs >= 2 must still
come out at >= 1.0x (the warm start pays for pool overhead).  The
≥1.8x-at-4-workers target is meaningful only when ``cpu_budget >= 4``.
"""

import json
import os
import time

from repro.experiments import ExperimentConfig
from repro.experiments.diffjson import strip_wall_clock
from repro.experiments.registry import run_many
from repro.parallel import default_jobs

SUBSET = ["E-COST", "E-C56", "E-C66"]
WORKER_COUNTS = (1, 2, 4, 8)
ARTIFACT = os.path.join(os.path.dirname(__file__), "..", "results", "BENCH_parallel.json")


def _stripped(results):
    return [strip_wall_clock(result.to_json_dict()) for result in results]


def test_bench_parallel_scaling(benchmark):
    """Serial vs multi-worker wall-clock on the sharded experiment subset."""
    config = ExperimentConfig(scale=1.0)
    timings = {}
    reference = None
    for jobs in WORKER_COUNTS:
        start = time.perf_counter()
        results = run_many(SUBSET, config, jobs=jobs)
        timings[jobs] = time.perf_counter() - start
        assert all(result.passed for result in results)
        if reference is None:
            reference = _stripped(results)
        else:
            assert _stripped(results) == reference, f"jobs={jobs} diverged from serial"

    artifact = {
        "subset": SUBSET,
        "scale": config.scale,
        "cpu_budget": default_jobs(),
        "wall_seconds": {str(jobs): round(timings[jobs], 4) for jobs in WORKER_COUNTS},
        "speedup_vs_serial": {
            str(jobs): round(timings[1] / timings[jobs], 3) if timings[jobs] else None
            for jobs in WORKER_COUNTS
        },
    }
    os.makedirs(os.path.dirname(ARTIFACT), exist_ok=True)
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Report the serial leg through pytest-benchmark for trend tracking.
    benchmark.pedantic(
        run_many, args=(SUBSET, config), kwargs={"jobs": 1}, rounds=1, iterations=1
    )

    # Gates.  The persistent warm-started pool (fork inherits the
    # coordinator's safe primes and fixed-base tables; the initializer
    # replays them under spawn) must keep modest worker counts from losing
    # to serial even on a single-CPU budget — pool overhead has to be paid
    # for by the warm start.  The genuine-scaling target (>= 1.8x at 4
    # workers) only binds when the hardware can actually run 4 workers.
    for jobs in (2, 4):
        assert artifact["speedup_vs_serial"][str(jobs)] >= 1.0, artifact
    if default_jobs() >= 4:
        assert artifact["speedup_vs_serial"]["4"] >= 1.8, artifact
