"""Flight recorder tests: ring semantics, hooks, dump triggers, shard folding."""

import errno
import json
from collections import Counter

import pytest

from repro.errors import ConsistencyError
from repro.experiments import ExperimentConfig, run_experiment
from repro.faults.library import MIXED
from repro.net.network import run_protocol
from repro.net.transcript import Execution
from repro.obs import FlightRecorder, Metrics, Tracer, flightrec, runtime
from repro.obs.flightrec import read_dump
from repro.parallel import ExperimentEngine
from repro.protocols import CGMABroadcast, NaiveCommitReveal


# -- module-level task for pool workers (must pickle) --------------------------------


def _run_commit_reveal(seed):
    NaiveCommitReveal(4, 1).run([1, 0, 1, 0], seed=seed)
    return seed


def _dump_in_worker(seed):
    flightrec.dump_if_active("probe", seed=seed)
    return seed


class _ExplodingProtocol:
    """A minimal protocol whose parties die on their first activation."""

    n = 3

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        def boom():
            raise RuntimeError("boom")
            yield []  # pragma: no cover — makes `boom` a generator

        return boom()


class TestRing:
    def test_ring_forgets_oldest(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(5):
            recorder.push("tick", index=index)
        assert len(recorder) == 3
        assert recorder.pushed == 5
        assert recorder.forgotten == 2
        assert [record["index"] for record in recorder.snapshot()] == [2, 3, 4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_snapshot_is_json_safe(self):
        recorder = FlightRecorder(capacity=8)
        recorder.push("raw", payload=b"\x00\x01", parties={3, 1})
        json.dumps(recorder.snapshot())

    def test_dump_and_read_round_trip(self, tmp_path):
        recorder = FlightRecorder(capacity=4, run_id="t", dump_dir=str(tmp_path))
        recorder.push("tick", index=0)
        recorder.push("tick", index=1)
        path = recorder.dump("unit-test", extra="context")
        records = read_dump(path)
        header, body = records[0], records[1:]
        assert header["kind"] == "flightrec.header"
        assert header["reason"] == "unit-test"
        assert header["context"] == {"extra": "context"}
        assert header["retained"] == 2
        assert [record["index"] for record in body] == [0, 1]
        assert recorder.dumps == [path]

    def test_sequential_dumps_get_distinct_paths(self, tmp_path):
        recorder = FlightRecorder(capacity=4, run_id="t", dump_dir=str(tmp_path))
        recorder.push("tick")
        first = recorder.dump("one")
        second = recorder.dump("two")
        assert first != second

    def test_a_dump_never_overwrites_one_with_the_same_run_id(self, tmp_path):
        first = FlightRecorder(capacity=4, run_id="t", dump_dir=str(tmp_path)).dump("one")
        second = FlightRecorder(capacity=4, run_id="t", dump_dir=str(tmp_path)).dump("two")
        assert first != second
        assert [read_dump(path)[0]["reason"] for path in (first, second)] == ["one", "two"]

    def test_fold_marks_shard_records(self):
        recorder = FlightRecorder(capacity=8)
        recorder.fold([{"kind": "tick", "ts": 0.1}, {"kind": "tock", "ts": 0.2}])
        snapshot = recorder.snapshot()
        assert [record["kind"] for record in snapshot] == ["tick", "tock"]
        assert all(record["shard"] for record in snapshot)


class TestLifecycle:
    def test_off_by_default(self):
        assert runtime.flightrec is None
        assert flightrec.active() is None
        assert flightrec.dump_if_active("nothing-on") is None

    def test_enable_disable(self):
        with flightrec.recording(capacity=16) as recorder:
            assert flightrec.active() is recorder
            assert runtime.flightrec is recorder
        assert flightrec.active() is None

    def test_recording_restores_previous(self):
        with flightrec.recording(capacity=16) as outer:
            with flightrec.recording(capacity=8) as inner:
                assert flightrec.active() is inner
            assert flightrec.active() is outer

    def test_dump_if_active_swallows_write_errors(self, tmp_path):
        with flightrec.recording(dump_dir=str(tmp_path / "missing" / "x" / "y")):
            # os.makedirs handles the nested dir; force failure via a file
            # standing where the directory should be.
            (tmp_path / "blocked").write_text("")
            with flightrec.recording(dump_dir=str(tmp_path / "blocked" / "sub")):
                assert flightrec.dump_if_active("unwritable") is None

    def test_a_dump_cut_short_leaves_no_file(self, tmp_path, monkeypatch):
        class FullDisk:
            """A file handle whose third write fails as a full disk does."""

            def __init__(self, *args, **kwargs):
                self.handle = open(*args, **kwargs)
                self.writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.handle.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

        with flightrec.recording(capacity=8, run_id="t", dump_dir=str(tmp_path)) as recorder:
            recorder.push("tick", index=0)
            recorder.push("tick", index=1)
            monkeypatch.setattr(flightrec, "open", FullDisk, raising=False)
            assert flightrec.dump_if_active("disk-full") is None
            assert list(tmp_path.iterdir()) == []
            assert recorder.dumps == []
            monkeypatch.undo()
            path = flightrec.dump_if_active("disk-freed")
        assert recorder.dumps == [path]
        records = read_dump(path)
        assert records[0]["reason"] == "disk-freed"
        assert [record["index"] for record in records[1:]] == [0, 1]


#: Each tracer event in the tree -> the kind of its flight-recorder twin.
TWINS = {
    "run_protocol.seed": "run_protocol.start",
    "scheduler.round": "round",
    "scheduler.timeout": "scheduler.timeout",
    "net.omission": "omission",
    "fault.inject": "fault",
}


class TestSchedulerHooks:
    def test_each_event_lands_in_the_ring_once(self):
        tracer = Tracer()
        with flightrec.recording(capacity=4096) as recorder:
            with runtime.observed(tracer=tracer, metrics=Metrics()):
                CGMABroadcast(5, 2, security_bits=16).run(
                    [1, 0, 1, 1, 0], seed=7, fault_plan=MIXED
                )
        assert recorder.forgotten == 0
        kinds = Counter(record["kind"] for record in recorder.snapshot())
        twins = Counter(TWINS[event["name"]] for event in tracer.events())
        assert twins["fault"] and twins["round"]
        assert {kind: kinds[kind] for kind in twins} == twins
        assert not [kind for kind in kinds if kind.startswith("trace.")]

    def test_messages_and_rounds_recorded(self):
        with flightrec.recording(capacity=4096) as recorder:
            execution = CGMABroadcast(4, 1, security_bits=16).run(
                [1, 0, 1, 0], seed=7
            )
        kinds = {record["kind"] for record in recorder.snapshot()}
        assert {"run_protocol.start", "message", "round"} <= kinds
        messages = [r for r in recorder.snapshot() if r["kind"] == "message"]
        # The ring retains at most the transcript's traffic (plus summaries).
        assert 0 < len(messages) <= len(execution.all_messages())

    def test_recorder_does_not_perturb_execution(self):
        bare = NaiveCommitReveal(4, 1).run([1, 0, 1, 0], seed=11)
        with flightrec.recording(capacity=256):
            recorded = NaiveCommitReveal(4, 1).run([1, 0, 1, 0], seed=11)
        assert bare.exec_vector == recorded.exec_vector
        assert bare.round_count == recorded.round_count


class TestDumpTriggers:
    def test_timeout_dumps_snapshot(self, tmp_path):
        with flightrec.recording(
            capacity=256, run_id="to", dump_dir=str(tmp_path)
        ) as recorder:
            execution = NaiveCommitReveal(4, 1).run(
                [1, 0, 1, 0], seed=3, timeout_rounds=1
            )
        assert execution.timed_out
        assert len(recorder.dumps) == 1
        records = read_dump(recorder.dumps[0])
        assert records[0]["reason"] == "timeout"
        assert records[0]["context"]["timeout_rounds"] == 1
        assert any(record["kind"] == "scheduler.timeout" for record in records[1:])

    def test_escaped_exception_dumps_snapshot(self, tmp_path):
        with flightrec.recording(
            capacity=64, run_id="exc", dump_dir=str(tmp_path)
        ) as recorder:
            with pytest.raises(RuntimeError, match="boom"):
                run_protocol(_ExplodingProtocol(), [0, 0, 0], seed=5)
        assert len(recorder.dumps) == 1
        header = read_dump(recorder.dumps[0])[0]
        assert header["reason"] == "exception"
        assert header["context"]["error"] == "RuntimeError"

    def test_consistency_violation_dumps_snapshot(self, tmp_path):
        execution = Execution(
            n=2,
            corrupted=frozenset(),
            inputs=(0, 1),
            outputs={1: (0, 0), 2: (0, 1)},
            adversary_output=None,
        )
        with flightrec.recording(
            capacity=64, run_id="cv", dump_dir=str(tmp_path)
        ) as recorder:
            with pytest.raises(ConsistencyError):
                execution.announced_vector()
        assert len(recorder.dumps) == 1
        header = read_dump(recorder.dumps[0])[0]
        assert header["reason"] == "consistency-violation"
        assert header["context"]["first"] == [0, 0]

    def test_clean_run_dumps_nothing(self, tmp_path):
        with flightrec.recording(
            capacity=256, run_id="ok", dump_dir=str(tmp_path)
        ) as recorder:
            NaiveCommitReveal(4, 1).run([1, 0, 1, 0], seed=9)
        assert recorder.dumps == []
        assert list(tmp_path.iterdir()) == []


class TestParallelFolding:
    def test_shard_buffers_fold_into_parent(self):
        with flightrec.recording(capacity=4096) as recorder:
            with ExperimentEngine(jobs=2) as engine:
                results = engine.map(_run_commit_reveal, [(s,) for s in range(4)])
        assert results == [0, 1, 2, 3]
        shard_records = [r for r in recorder.snapshot() if r.get("shard")]
        assert shard_records, "worker flight buffers did not fold into the parent"
        assert any(r["kind"] == "run_protocol.start" for r in shard_records)

    def test_shard_dumps_land_in_the_coordinators_dump_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_FLIGHTREC_DIR", raising=False)
        dumps = tmp_path / "dumps"
        with flightrec.recording(dump_dir=str(dumps)):
            with ExperimentEngine(jobs=2) as engine:
                assert engine.map(_dump_in_worker, [(s,) for s in range(3)]) == [0, 1, 2]
        assert len(list(dumps.iterdir())) == 3
        assert sorted(path.name for path in tmp_path.iterdir()) == ["dumps"]

    def test_no_flight_shipping_when_recorder_off(self):
        with ExperimentEngine(jobs=2) as engine:
            results = engine.map(_run_commit_reveal, [(s,) for s in range(3)])
        assert results == [0, 1, 2]


def _stripped(result):
    from repro.experiments.diffjson import strip_wall_clock

    return strip_wall_clock(result.to_json_dict())


class TestArtifactStability:
    def test_serial_vs_jobs4_artifact_identical_with_recorder_on(self):
        """ISSUE 6 regression gate: the flight recorder introduces wall-clock
        timestamps, and none of them may leak into diffjson-gated artifacts —
        serial and --jobs 4 stay identical with recording enabled, and both
        match a recorder-off run."""
        config = ExperimentConfig(scale=0.15)
        reference = _stripped(run_experiment("E-COST", config, jobs=1))
        with flightrec.recording(capacity=2048):
            serial = _stripped(run_experiment("E-COST", config, jobs=1))
            parallel = _stripped(run_experiment("E-COST", config, jobs=4))
        assert serial == parallel
        assert serial == reference
