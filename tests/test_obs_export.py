"""Exporter tests: Chrome trace JSON, timelines, obs CLI."""

import json

import pytest

from repro.__main__ import main
from repro.obs import Tracer, export
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
        shard = [dict(record, shard=True) for record in traced_records]
        trace = export.chrome_trace(shard)
        tids = {e["tid"] for e in trace["traceEvents"] if e["ph"] in ("X", "i")}
        assert tids == {2}

    def test_write_is_valid_json(self, traced_records, tmp_path):
        path = tmp_path / "trace.json"
        export.write_chrome_trace(path, traced_records)
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) == 4  # 1 meta + 2 spans + 1 instant

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

    def test_html_timeline(self, execution):
        html = export.timeline_html(execution, title="unit <test>")
        assert html.startswith("<!doctype html>")
        assert "unit &lt;test&gt;" in html
        assert "<table>" in html
        assert "→" in html


class TestObsCLI:
    def test_export_writes_all_artifacts(self, tmp_path):
        code = main(
            [
                "obs",
                "export",
                "E-RND",
                "--out",
                str(tmp_path),
                "--scale",
                "0.05",
                "--protocol",
                "sequential",
            ]
        )
        assert code == 0
        names = {path.name for path in tmp_path.iterdir()}
        assert names == {
            "trace_chrome.json",
            "E-RND.json",
            "fastpath.json",
            "timeline_sequential.txt",
            "timeline_sequential.html",
        }
        with open(tmp_path / "trace_chrome.json", encoding="utf-8") as handle:
            trace = json.load(handle)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        with open(tmp_path / "E-RND.json", encoding="utf-8") as handle:
            artifact = json.load(handle)
        assert artifact["experiment_id"] == "E-RND" and artifact["passed"]
        assert artifact["metrics"]["counters"]["net.messages.sent"] > 0
        with open(tmp_path / "fastpath.json", encoding="utf-8") as handle:
            telemetry = json.load(handle)
        assert "counters" in telemetry
        assert telemetry["caches"]

    def test_unknown_protocol_fails_before_running(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "obs",
                    "export",
                    "E-RND",
                    "--scale",
                    "0.05",
                    "--protocol",
                    "nope",
                    "--out",
                    str(out),
                ]
            )
        assert excinfo.value.code == 2
        assert "unknown protocol 'nope'" in capsys.readouterr().err
        assert not out.exists()
