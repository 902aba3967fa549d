"""Regression-surface tests: canonical snapshots, compare semantics, obs CLI."""

import copy
import json

import pytest

from repro.__main__ import main
from repro.experiments import ExperimentConfig, run_experiment
from repro.obs import baseline


def _snapshot(counters=None, histograms=None, timings=None, passed=True):
    return {
        "passed": passed,
        "counters": counters or {},
        "histograms": histograms or {},
        "timings": timings or {},
    }


def _doc(experiments):
    return {"schema": baseline.SCHEMA_VERSION, "config": {}, "experiments": experiments}


class TestCanonicalSnapshot:
    def test_is_timing_name(self):
        assert baseline.is_timing_name("wall_seconds")
        assert baseline.is_timing_name("setup.elapsed")
        assert baseline.is_timing_name("io.seconds.total")
        assert not baseline.is_timing_name("net.messages.sent")
        assert not baseline.is_timing_name("crypto.group.exp")
        # Substrings must not trigger: "wallace" is not wall-clock.
        assert not baseline.is_timing_name("wallace.count")

    def test_from_artifact_dict(self):
        artifact = {
            "passed": True,
            "metrics": {
                "wall_seconds": 1.25,
                "counters": {"net.rounds": 30, "trial.wall_seconds": 0.5},
                "histograms": {"round.messages": {"count": 4, "sum": 12.0}},
            },
        }
        snap = baseline.canonical_snapshot(artifact)
        assert snap["passed"] is True
        assert snap["counters"] == {"net.rounds": 30}
        assert snap["histograms"] == {"round.messages": {"count": 4, "sum": 12.0}}
        assert snap["timings"] == {"wall_seconds": 1.25}

    def test_from_experiment_result(self):
        result = run_experiment("E-RND", ExperimentConfig(scale=0.05), jobs=1)
        snap = baseline.canonical_snapshot(result)
        assert snap["passed"] is True
        assert snap["counters"], "expected deterministic counters"
        assert all(not baseline.is_timing_name(n) for n in snap["counters"])
        assert "wall_seconds" in snap["timings"]

    def test_snapshot_is_deterministic_across_runs(self):
        config = ExperimentConfig(scale=0.05)
        first = baseline.canonical_snapshot(run_experiment("E-RND", config, jobs=1))
        second = baseline.canonical_snapshot(run_experiment("E-RND", config, jobs=1))
        first.pop("timings")
        second.pop("timings")
        assert first == second


class TestCompare:
    def test_identical_ok(self):
        doc = _doc({"E-X": _snapshot(counters={"net.rounds": 3})})
        report = baseline.compare(doc, {"E-X": _snapshot(counters={"net.rounds": 3})})
        assert report.ok
        assert report.compared == 1
        assert "ok: 1 experiment(s)" in report.render()

    def test_counter_drift(self):
        doc = _doc({"E-X": _snapshot(counters={"net.rounds": 3})})
        report = baseline.compare(doc, {"E-X": _snapshot(counters={"net.rounds": 4})})
        assert not report.ok
        assert any("net.rounds" in drift for drift in report.drifts)
        assert "DRIFT" in report.render()

    def test_vanished_and_new_counters(self):
        doc = _doc({"E-X": _snapshot(counters={"a": 1, "b": 2})})
        report = baseline.compare(doc, {"E-X": _snapshot(counters={"b": 2, "c": 3})})
        assert not report.ok
        assert any("a vanished" in drift for drift in report.drifts)
        assert any("c is new" in drift for drift in report.drifts)

    def test_missing_and_extra_experiments(self):
        doc = _doc({"E-X": _snapshot()})
        report = baseline.compare(doc, {"E-Y": _snapshot()})
        assert not report.ok
        assert any("E-X: missing" in drift for drift in report.drifts)
        assert any("E-Y: not in the baseline" in drift for drift in report.drifts)

    def test_passed_flip_is_a_drift(self):
        doc = _doc({"E-X": _snapshot(passed=True)})
        report = baseline.compare(doc, {"E-X": _snapshot(passed=False)})
        assert not report.ok

    def test_histogram_drift(self):
        doc = _doc({"E-X": _snapshot(histograms={"h": {"count": 2, "sum": 4.0}})})
        report = baseline.compare(
            doc, {"E-X": _snapshot(histograms={"h": {"count": 2, "sum": 5.0}})}
        )
        assert not report.ok

    def test_nan_equal_counters_do_not_drift(self):
        doc = _doc({"E-X": _snapshot(counters={"odd": float("nan")})})
        report = baseline.compare(
            doc, {"E-X": _snapshot(counters={"odd": float("nan")})}
        )
        assert report.ok

    def test_timing_band_is_advisory_by_default(self):
        doc = _doc({"E-X": _snapshot(timings={"wall_seconds": 1.0})})
        fresh = {"E-X": _snapshot(timings={"wall_seconds": 10.0})}
        report = baseline.compare(doc, fresh, timing_tolerance=4.0)
        assert report.ok
        assert report.timing_notes
        assert "advisory" in report.render()

    def test_strict_timings_gate(self):
        doc = _doc({"E-X": _snapshot(timings={"wall_seconds": 1.0})})
        fresh = {"E-X": _snapshot(timings={"wall_seconds": 10.0})}
        report = baseline.compare(doc, fresh, timing_tolerance=4.0, strict_timings=True)
        assert not report.ok
        assert "gating" in report.render()

    def test_timing_inside_band_is_silent(self):
        doc = _doc({"E-X": _snapshot(timings={"wall_seconds": 1.0})})
        fresh = {"E-X": _snapshot(timings={"wall_seconds": 0.5})}
        report = baseline.compare(doc, fresh)
        assert report.ok
        assert not report.timing_notes

    def test_tolerance_below_one_rejected(self):
        with pytest.raises(ValueError):
            baseline.compare(_doc({}), {}, timing_tolerance=0.5)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        doc = _doc({"E-X": _snapshot(counters={"a": 1})})
        path = str(tmp_path / "base.json")
        baseline.save(doc, path)
        assert baseline.load(path) == doc

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"schema": 999, "experiments": {}}))
        with pytest.raises(ValueError, match="schema"):
            baseline.load(str(path))


class TestCommittedBaseline:
    def test_committed_baseline_loads(self):
        doc = baseline.load()
        assert set(doc["experiments"]) == set(baseline.PINNED_EXPERIMENTS)
        assert doc["config"]["scale"] == baseline.PINNED_SCALE
        for snap in doc["experiments"].values():
            assert snap["passed"] is True
            assert snap["counters"]


class TestObsCLIBaselineDiff:
    @pytest.fixture(scope="class")
    def captured(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("baseline") / "base.json"
        code = main(["obs", "baseline", "E-RND", "--out", str(path), "--scale", "0.05"])
        assert code == 0
        return str(path)

    def test_diff_against_own_capture_passes(self, captured):
        # diff re-runs at the config recorded inside the baseline document.
        code = main(["obs", "diff", "--baseline", captured])
        assert code == 0

    def test_diff_flags_tampered_baseline(self, captured, tmp_path, capsys):
        doc = baseline.load(captured)
        tampered = copy.deepcopy(doc)
        experiment = next(iter(tampered["experiments"]))
        counters = tampered["experiments"][experiment]["counters"]
        counters[next(iter(counters))] += 1
        tampered_path = str(tmp_path / "tampered.json")
        baseline.save(tampered, tampered_path)
        code = main(["obs", "diff", "--baseline", tampered_path])
        assert code == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_diff_from_json_artifacts(self, captured, tmp_path):
        artifacts = tmp_path / "artifacts"
        main(["experiments", "E-RND", "--scale", "0.05", "--jobs", "1", "--json", str(artifacts)])
        code = main(["obs", "diff", "--baseline", captured, "--from", str(artifacts)])
        assert code == 0

    def test_from_dir_missing_artifact_is_a_usage_error(self, captured, tmp_path, capsys):
        for command in ("diff", "report"):
            with pytest.raises(SystemExit) as excinfo:
                main(["obs", command, "--baseline", captured, "--from", str(tmp_path)])
            assert excinfo.value.code == 2
            assert str(tmp_path / "E-RND.json") in capsys.readouterr().err

    def test_report_renders_key_counters(self, captured, capsys):
        code = main(["obs", "report", "--baseline", captured])
        assert code == 0
        out = capsys.readouterr().out
        assert "net.rounds" in out
        assert "fastpath" in out
