"""Tests for repro.parallel: the engine, trial plans, and serial/parallel equality.

The load-bearing guarantee: a parallel run is *bit-identical* to a serial
run at any worker count.  Equality is asserted on the full JSON dump of
each result (tables, data, notes, metrics counters and histograms) with
only wall-clock fields stripped.
"""

import inspect
import json
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.errors import ExperimentError
from repro.experiments import (
    SHARDED_IDS,
    ExperimentConfig,
    TrialPlan,
    run_experiment,
    run_many,
)
from repro.experiments import registry as registry_module
from repro.experiments.common import TRIAL_SALT_SHIFT
from repro.experiments.diffjson import compare_dirs, strip_wall_clock
from repro.experiments.lemma64 import _collect_draws
from repro.obs import Metrics, Tracer, flightrec, runtime
from repro.parallel import SERIAL_ENGINE, ExperimentEngine, normalize_jobs


# -- module-level task functions (must pickle into worker processes) ---------------


def _square(x):
    return x * x


def _count_and_observe(x):
    if runtime.metrics is not None:
        runtime.metrics.inc("test.calls")
        runtime.metrics.observe("test.values", x)
    if runtime.tracer.enabled:
        with runtime.tracer.span("test.shard", x=x):
            runtime.tracer.event("test.tick", x=x)
    return x


def _kill_own_worker(coordinator_pid):
    """Die by SIGKILL, as an out-of-memory-killed worker would (inline runs live)."""
    if os.getpid() != coordinator_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return coordinator_pid


def _stripped(result):
    return strip_wall_clock(result.to_json_dict())


class TestEngine:
    def test_jobs_normalization(self):
        assert normalize_jobs(1) == 1
        assert normalize_jobs(4) == 4
        assert normalize_jobs(0) == 1
        assert normalize_jobs(-3) == 1
        assert normalize_jobs(None) >= 1

    def test_serial_map_runs_inline(self):
        assert SERIAL_ENGINE.map(_square, [(i,) for i in range(5)]) == [0, 1, 4, 9, 16]

    def test_parallel_map_preserves_order(self):
        engine = ExperimentEngine(jobs=2)
        assert engine.map(_square, [(i,) for i in range(7)]) == [i * i for i in range(7)]

    def test_single_task_stays_inline(self):
        engine = ExperimentEngine(jobs=4)
        assert engine.map(_square, [(3,)]) == [9]

    def test_worker_metrics_fold_into_ambient_registry(self):
        engine = ExperimentEngine(jobs=2)
        with runtime.observed(metrics=Metrics()) as (_, metrics):
            engine.map(_count_and_observe, [(i,) for i in range(6)])
        assert metrics.get("test.calls") == 6
        histogram = metrics.histograms["test.values"]
        assert histogram.count == 6
        assert histogram.min == 0 and histogram.max == 5

    def test_serial_and_parallel_fold_to_equal_metrics(self):
        snapshots = []
        for jobs in (1, 3):
            with runtime.observed(metrics=Metrics()) as (_, metrics):
                ExperimentEngine(jobs).map(_count_and_observe, [(i,) for i in range(9)])
            snapshots.append(metrics.snapshot())
        assert snapshots[0] == snapshots[1]

    def test_worker_trace_records_fold_under_current_path(self):
        engine = ExperimentEngine(jobs=2)
        tracer = Tracer()
        with runtime.observed(tracer=tracer, metrics=Metrics()):
            with runtime.tracer.span("coordinator"):
                engine.map(_count_and_observe, [(i,) for i in range(4)])
        spans = tracer.spans("test.shard")
        assert len(spans) == 4
        assert all(span["path"].startswith("coordinator/") for span in spans)
        assert len(tracer.events("test.tick")) == 4

    def test_killed_worker_raises_typed_error_and_engine_recovers(self, tmp_path):
        with ExperimentEngine(jobs=2) as engine:
            with flightrec.recording(dump_dir=str(tmp_path)):
                with pytest.raises(ExperimentError) as excinfo:
                    engine.map(_kill_own_worker, [(os.getpid(),)] * 2)
            assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
            (dump,) = tmp_path.iterdir()
            assert flightrec.read_dump(dump)[0]["reason"] == "pool-worker-died"
            assert engine.map(_square, [(i,) for i in range(5)]) == [0, 1, 4, 9, 16]


class TestTracerFold:
    def test_fold_reroots_paths_and_depths(self):
        worker = Tracer()
        with worker.span("inner"):
            worker.event("tick")
        coordinator = Tracer()
        with coordinator.span("outer"):
            coordinator.fold(list(worker.records), shard=2)
        folded = coordinator.spans("inner")[0]
        assert folded["path"] == "outer/inner"
        assert folded["depth"] == 1
        assert coordinator.events("tick")[0]["path"] == "outer/inner"

    def test_pool_records_land_on_worker_tracks_on_the_coordinators_clock(self):
        coordinator = Tracer()
        with ExperimentEngine(jobs=2) as engine:
            with runtime.observed(tracer=coordinator, metrics=Metrics()):
                with coordinator.span("map"):
                    engine.map(_count_and_observe, [(x,) for x in range(4)])
                    now = time.perf_counter() - coordinator.epoch
        shards = coordinator.spans("test.shard")
        assert len(shards) == 4
        assert os.getpid() not in {span["shard"] for span in shards}
        assert all(0 <= span["start"] <= span["end"] <= now for span in shards)
        (outer,) = coordinator.spans("map")
        assert "shard" not in outer

    def test_fold_at_top_level_keeps_paths(self):
        worker = Tracer()
        with worker.span("inner"):
            pass
        coordinator = Tracer()
        coordinator.fold(list(worker.records), shard=2)
        assert coordinator.spans("inner")[0]["path"] == "inner"


class TestTrialPlan:
    @given(
        total=st.integers(min_value=0, max_value=500),
        parts=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_shards_partition_exactly(self, total, parts):
        plan = TrialPlan(salt=0x7E57, total=total, parts=parts)
        shards = plan.shards()
        covered = [trial for shard in shards for trial in shard.trials()]
        assert covered == list(range(total))
        sizes = [shard.count for shard in shards]
        assert all(size >= 1 for size in sizes)
        if sizes:
            assert max(sizes) - min(sizes) <= 1

    @given(seed=st.integers(min_value=0, max_value=2**31), total=st.integers(2, 40))
    @settings(max_examples=30, deadline=None)
    def test_per_trial_streams_are_disjoint(self, seed, total):
        config = ExperimentConfig(seed=seed)
        plan = TrialPlan(salt=0x7E57, total=total)
        salts = [plan.trial_salt(trial) for trial in plan.trials()]
        assert len(set(salts)) == total
        prefixes = [
            tuple(plan.rng(config, trial).random() for _ in range(4))
            for trial in plan.trials()
        ]
        assert len(set(prefixes)) == total

    def test_plans_with_different_salts_never_share_streams(self):
        first = TrialPlan(salt=0x100, total=20)
        second = TrialPlan(salt=0x101, total=20)
        first_salts = {first.trial_salt(i) for i in range(20)}
        second_salts = {second.trial_salt(i) for i in range(20)}
        assert not first_salts & second_salts

    def test_trial_salts_avoid_legacy_namespace(self):
        # Legacy call sites use salts < 2**16; per-trial salts start at 2**32.
        plan = TrialPlan(salt=1, total=10)
        assert all(plan.trial_salt(i) >= 1 << TRIAL_SALT_SHIFT for i in range(10))

    def test_shard_rng_matches_plan_rng(self):
        config = ExperimentConfig()
        plan = TrialPlan(salt=0x55, total=17, parts=4)
        for shard in plan.shards():
            for trial in shard.trials():
                assert shard.rng(config, trial).random() == plan.rng(config, trial).random()

    def test_shard_rejects_foreign_trial(self):
        plan = TrialPlan(salt=0x55, total=10, parts=2)
        first, second = plan.shards()
        with pytest.raises(IndexError):
            first.rng(ExperimentConfig(), second.start)

    @given(jobs=st.integers(min_value=1, max_value=4))
    @settings(max_examples=4, deadline=None)
    def test_sharded_sampling_invariant_under_worker_count(self, jobs):
        config = ExperimentConfig(scale=0.05)
        reference = _collect_draws(config, SERIAL_ENGINE, "ideal", ("uniform",), 0x99, 30)
        draws = _collect_draws(
            config, ExperimentEngine(jobs), "ideal", ("uniform",), 0x99, 30
        )
        assert draws == reference


class TestSerialParallelEquality:
    """run_experiment / run_many output is invariant in the worker count."""

    def test_sharded_registry_contents(self):
        assert SHARDED_IDS == {"E-C56", "E-C66", "E-L64", "E-COST", "E-FAULT"}

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_claim56_equal_at_any_worker_count(self, jobs):
        config = ExperimentConfig(scale=0.05)
        serial = run_experiment("E-C56", config, jobs=1)
        parallel = run_experiment("E-C56", config, jobs=jobs)
        assert _stripped(serial) == _stripped(parallel)
        assert serial.passed

    def test_claim66_equal_including_metrics(self):
        config = ExperimentConfig(scale=0.05)
        serial = run_experiment("E-C66", config, jobs=1)
        parallel = run_experiment("E-C66", config, jobs=2)
        assert _stripped(serial) == _stripped(parallel)
        assert serial.metrics["counters"] == parallel.metrics["counters"]

    def test_cost_equal_and_exactness_checks_stay_green(self):
        config = ExperimentConfig(scale=0.15)
        serial = run_experiment("E-COST", config, jobs=1)
        parallel = run_experiment("E-COST", config, jobs=2)
        assert _stripped(serial) == _stripped(parallel)
        assert parallel.data["checks"]["counters_exact"]
        assert parallel.data["checks"]["deterministic"]

    def test_run_many_mixed_light_and_heavy(self):
        config = ExperimentConfig(scale=0.05)
        ids = ["E-C56", "E-RND"]
        serial = run_many(ids, config, jobs=1)
        parallel = run_many(ids, config, jobs=2)
        assert [r.experiment_id for r in parallel] == ids
        for a, b in zip(serial, parallel, strict=True):
            assert _stripped(a) == _stripped(b)


class TestMutableDefaultFix:
    def test_run_experiment_default_config_is_none(self):
        assert inspect.signature(run_experiment).parameters["config"].default is None

    def test_runner_modules_do_not_share_a_config_instance(self):
        for module in registry_module._MODULES:
            default = inspect.signature(module.run).parameters["config"].default
            assert default is None, f"{module.EXPERIMENT_ID} shares a mutable default"

    def test_run_experiment_accepts_missing_config(self):
        result = run_experiment("E-C56", ExperimentConfig(scale=0.05))
        assert result.passed


class TestDiffJson:
    def _write(self, directory, name, payload):
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    def test_identical_dirs_have_no_diffs(self, tmp_path):
        payload = {"passed": True, "metrics": {"wall_seconds": 1.0, "counters": {"x": 1}}}
        self._write(tmp_path / "a", "E-X.json", payload)
        self._write(tmp_path / "b", "E-X.json", payload)
        assert compare_dirs(str(tmp_path / "a"), str(tmp_path / "b")) == []

    def test_wall_clock_differences_are_ignored(self, tmp_path):
        first = {"passed": True, "metrics": {"wall_seconds": 1.0, "counters": {"x": 1}}}
        second = {"passed": True, "metrics": {"wall_seconds": 9.9, "counters": {"x": 1}}}
        self._write(tmp_path / "a", "E-X.json", first)
        self._write(tmp_path / "b", "E-X.json", second)
        assert compare_dirs(str(tmp_path / "a"), str(tmp_path / "b")) == []

    def test_counter_drift_is_a_divergence(self, tmp_path):
        first = {"passed": True, "metrics": {"wall_seconds": 1.0, "counters": {"x": 1}}}
        second = {"passed": True, "metrics": {"wall_seconds": 1.0, "counters": {"x": 2}}}
        self._write(tmp_path / "a", "E-X.json", first)
        self._write(tmp_path / "b", "E-X.json", second)
        diffs = compare_dirs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert diffs and "counters.x" in diffs[0]

    def test_missing_artifact_is_a_divergence(self, tmp_path):
        payload = {"passed": True}
        self._write(tmp_path / "a", "E-X.json", payload)
        self._write(tmp_path / "a", "E-Y.json", payload)
        self._write(tmp_path / "b", "E-X.json", payload)
        diffs = compare_dirs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert any("E-Y.json" in diff for diff in diffs)

    def test_cli_exit_codes(self, tmp_path, capsys):
        payload = {"passed": True, "metrics": {"wall_seconds": 0.5}}
        self._write(tmp_path / "a", "E-X.json", payload)
        self._write(tmp_path / "b", "E-X.json", payload)
        assert main(["diffjson", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        self._write(tmp_path / "b", "E-X.json", {"passed": False, "metrics": {}})
        assert main(["diffjson", str(tmp_path / "a"), str(tmp_path / "b")]) == 1


class TestCLIJobs:
    def test_cli_jobs_flag_parallel(self, capsys, tmp_path):
        code = main(
            [
                "experiments",
                "E-C56",
                "--scale",
                "0.05",
                "--jobs",
                "2",
                "--json",
                str(tmp_path / "par"),
            ]
        )
        assert code == 0
        assert "E-C56" in capsys.readouterr().out
        serial = main(
            [
                "experiments",
                "E-C56",
                "--scale",
                "0.05",
                "--jobs",
                "1",
                "--json",
                str(tmp_path / "ser"),
            ]
        )
        assert serial == 0
        capsys.readouterr()
        assert compare_dirs(str(tmp_path / "ser"), str(tmp_path / "par")) == []

    def test_cli_rejects_nonpositive_jobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "E-C56", "--jobs", "0"])
        assert excinfo.value.code == 2
