"""Exporter tests: Chrome trace JSON, Prometheus text, timelines, obs CLI."""

import json

import pytest

from repro.__main__ import main
from repro.obs import Metrics, Tracer, export
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


class TestPrometheus:
    def test_sanitize_metric_name(self):
        assert export.sanitize_metric_name("net.bytes.sent") == "repro_net_bytes_sent"
        assert export.sanitize_metric_name("a-b c", namespace="") == "a_b_c"
        assert export.sanitize_metric_name("9lives", namespace="") == "_9lives"

    def test_split_labels(self):
        base, labels = export.split_labels("net.bytes.sent.party.3")
        assert base == "net.bytes.sent.by_party"
        assert labels == {"party": "3"}
        assert export.split_labels("crypto.group.exp") == ("crypto.group.exp", {})

    def test_counters_histograms_and_gauges(self):
        metrics = Metrics()
        metrics.inc("net.messages.sent", 12)
        metrics.inc("net.bytes.sent.party.1", 100)
        metrics.inc("net.bytes.sent.party.2", 250)
        metrics.observe("round.messages", 3)
        metrics.observe("round.messages", 5)
        text = export.prometheus_text(metrics, extra_gauges={"fastpath.caches.tables": 4.0})
        samples = export.parse_prometheus_text(text)
        assert samples["repro_net_messages_sent_total"] == 12
        assert samples['repro_net_bytes_sent_by_party_total{party="1"}'] == 100
        assert samples['repro_net_bytes_sent_by_party_total{party="2"}'] == 250
        assert samples["repro_round_messages_count"] == 2
        assert samples["repro_round_messages_sum"] == 8
        assert samples["repro_round_messages_min"] == 3
        assert samples["repro_round_messages_max"] == 5
        assert samples["repro_round_messages_mean"] == 4
        assert samples["repro_fastpath_caches_tables"] == 4
        assert "# TYPE repro_net_messages_sent_total counter" in text
        assert "# TYPE repro_fastpath_caches_tables gauge" in text

    def test_empty_registry_renders_empty(self):
        assert export.prometheus_text(Metrics()) == ""

    def test_metrics_from_snapshot_round_trip(self):
        metrics = Metrics()
        metrics.inc("a.b", 7)
        metrics.observe("h", 2.0)
        metrics.observe("h", 4.0)
        snap = metrics.snapshot()
        rebuilt = export.metrics_from_snapshot(snap["counters"], snap["histograms"])
        assert rebuilt.snapshot() == snap

    def test_fastpath_gauges_surface_process_telemetry(self):
        # Generate some kernel traffic so the counters are non-trivial.
        NaiveCommitReveal(3, 1).run([1, 0, 1], seed=2)
        gauges = export.fastpath_gauges()
        assert any(name.startswith("fastpath.caches.") for name in gauges)
        assert all(isinstance(value, float) for value in gauges.values())


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
        assert "trace_chrome.json" in names
        assert "E-RND.prom" in names
        assert "E-RND.metrics.json" in names
        assert "timeline_sequential.txt" in names
        assert "timeline_sequential.html" in names
        with open(tmp_path / "trace_chrome.json", encoding="utf-8") as handle:
            trace = json.load(handle)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        with open(tmp_path / "E-RND.prom", encoding="utf-8") as handle:
            samples = export.parse_prometheus_text(handle.read())
        assert any(name.startswith("repro_fastpath") for name in samples)
        assert any(name.startswith("repro_crypto") or name.startswith("repro_net") for name in samples)

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
