"""Exporter tests: Chrome trace JSON, timelines, the ``--trace`` option."""

import json
from collections import defaultdict

import pytest

from repro import __main__ as cli
from repro.__main__ import main
from repro.obs import NOOP_TRACER, Tracer, export, runtime
from repro.protocols import CGMABroadcast, NaiveCommitReveal


@pytest.fixture
def traced_records():
    tracer = Tracer()
    with tracer.span("experiment", id="E-X"):
        with tracer.span("trial", seed=1):
            tracer.event("round", number=0)
    return tracer.records


class TestChromeTrace:
    def test_structure(self, traced_records):
        trace = export.chrome_trace(traced_records, process_name="unit")
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert meta[0]["args"]["name"] == "unit"
        assert {span["name"] for span in spans} == {"experiment", "trial"}
        assert instants[0]["name"] == "round"
        assert instants[0]["args"] == {"number": 0}
        for span in spans:
            assert span["dur"] >= 0
            assert span["tid"] == 1

    def test_shard_records_get_their_own_thread(self, traced_records):
        coordinator = Tracer()
        with coordinator.span("map"):
            coordinator.fold(traced_records, shard=4242)
        trace = export.chrome_trace(coordinator.records)
        tids = {e["name"]: e["tid"] for e in trace["traceEvents"] if e["ph"] in ("X", "i")}
        assert tids == {"map": 1, "experiment": 4242, "trial": 4242, "round": 4242}

    def test_write_is_valid_json(self, traced_records, tmp_path):
        path = tmp_path / "trace.json"
        export.write_chrome_trace(path, traced_records)
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) == 4  # 1 meta + 2 spans + 1 instant
        assert "metadata" not in loaded

    def test_attributes_are_written_json_safe(self, tmp_path):
        tracer = Tracer()
        with tracer.span("run", sizes=(4, 5)):
            tracer.event("round", sizes=(6, 7))
        path = tmp_path / "trace.json"
        export.write_chrome_trace(path, tracer.records)
        with open(path, encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        args = {e["name"]: e["args"] for e in events if e["ph"] in ("X", "i")}
        assert args == {"run": {"sizes": [4, 5]}, "round": {"sizes": [6, 7]}}


class TestTimeline:
    @pytest.fixture(scope="class")
    def execution(self):
        return NaiveCommitReveal(4, 1).run([1, 0, 1, 0], seed=5)

    def test_text_timeline(self, execution):
        text = export.timeline(execution)
        assert text.startswith("execution: n=4")
        assert "round 1" in text
        assert " -> " in text

    def test_max_rounds_truncates(self, execution):
        text = export.timeline(execution, max_rounds=1)
        assert "more round(s)" in text
        assert "round 2 |" not in text

    def test_faulty_execution_shows_faults_inline(self):
        from repro.faults import FaultPlan, FaultRule

        plan = FaultPlan(
            name="droppy", seed=1, rules=(FaultRule(kind="drop", probability=0.5),)
        )
        execution = CGMABroadcast(4, 1, security_bits=16).run(
            [1, 0, 1, 0], seed=5, fault_plan=plan
        )
        assert execution.faults
        text = export.timeline(execution)
        assert "  ! drop" in text


def _spans_by_track(trace):
    tracks = defaultdict(list)
    for event in trace["traceEvents"]:
        if event["ph"] == "X":
            tracks[event["tid"]].append((event["ts"], event["ts"] + event["dur"]))
    return tracks


def _crossing_pairs(spans):
    """Pairs of spans that overlap without one containing the other."""
    spans = sorted(spans, key=lambda span: (span[0], -span[1]))
    crossing = 0
    for index, (start, end) in enumerate(spans):
        for other_start, other_end in spans[index + 1 :]:
            if other_start >= end:
                break
            crossing += other_end > end
    return crossing


#: A campaign minimal repro that violates (``campaign exec`` exits 1).
VIOLATING = {
    "delay_model": "rush:uniform:0.5,1.5",
    "n": 2,
    "protocol": "cgma",
    "seed": 4072198339,
    "t": 0,
    "trials": 1,
}


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestTraceOption:
    def test_trace_writes_spans_and_coordinator_telemetry(self, tmp_path):
        trace_path, out = tmp_path / "t.json", tmp_path / "out"
        argv = ["--trace", str(trace_path), "experiments", "E-RND", "--scale", "0.05"]
        assert main([*argv, "--json", str(out)]) == 0
        trace = _load(trace_path)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        telemetry = trace["metadata"]["fastpath"]["coordinator"]
        assert "counters" in telemetry
        assert telemetry["caches"]
        # The artifact is the one `experiments --json` always writes.
        assert {path.name for path in out.iterdir()} == {"E-RND.json"}
        assert _load(out / "E-RND.json")["metrics"]["counters"]["net.messages.sent"] > 0

    def test_missing_trace_directory_is_a_usage_error(self, tmp_path, capsys):
        trace_path = tmp_path / "nope" / "t.json"
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["--trace", str(trace_path), "experiments", "E-RND", "--json", str(out)])
        assert excinfo.value.code == 2
        assert "--trace" in capsys.readouterr().err
        assert not out.exists() and not trace_path.parent.exists()

    def test_trace_is_written_when_the_command_fails(self, tmp_path, capsys):
        scenario = tmp_path / "violating.json"
        scenario.write_text(json.dumps(VIOLATING))
        trace_path = tmp_path / "t.json"
        assert main(["--trace", str(trace_path), "campaign", "exec", str(scenario)]) == 1
        names = {e["name"] for e in _load(trace_path)["traceEvents"]}
        assert "scheduler.run" in names

    def test_trace_is_written_when_the_command_raises(self, tmp_path, monkeypatch):
        def crash(*args, **kwargs):
            with runtime.tracer.span("doomed"):
                raise RuntimeError("crash")

        monkeypatch.setattr(cli, "run_many", crash)
        trace_path = tmp_path / "t.json"
        with pytest.raises(RuntimeError, match="crash"):
            main(["--trace", str(trace_path), "experiments", "E-RND"])
        (span,) = [e for e in _load(trace_path)["traceEvents"] if e["ph"] == "X"]
        assert span["name"] == "doomed" and span["args"] == {"error": "RuntimeError"}
        assert runtime.tracer is NOOP_TRACER

    def test_obs_export_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "export", "E-RND"])
        assert excinfo.value.code == 2

    def test_pool_spans_nest_on_their_tracks(self, tmp_path):
        trace_path = tmp_path / "t.json"
        argv = ["experiments", "E-C66", "--scale", "0.15", "--jobs", "2"]
        assert main(["--trace", str(trace_path), *argv]) == 0
        tracks = _spans_by_track(_load(trace_path))
        assert len(tracks) >= 2, "pool workers' spans share one track"
        assert {tid: _crossing_pairs(spans) for tid, spans in tracks.items()} == {
            tid: 0 for tid in tracks
        }
