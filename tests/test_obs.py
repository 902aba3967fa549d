"""Tests for the observability layer: tracer, metrics, runtime, exports."""

import json

import pytest

from repro import serialization
from repro.obs import (
    NOOP_TRACER,
    Histogram,
    Metrics,
    NoopTracer,
    Tracer,
    jsonable,
    payload_size,
    runtime,
)


class TestMetrics:
    def test_counter_math(self):
        metrics = Metrics()
        metrics.inc("a")
        metrics.inc("a")
        metrics.inc("a", 3)
        metrics.inc("b", 0.5)
        assert metrics.get("a") == 5
        assert metrics.get("b") == 0.5
        assert metrics.get("missing") == 0
        assert metrics.get("missing", default=-1) == -1

    def test_histogram_statistics(self):
        metrics = Metrics()
        for value in (4, 1, 7):
            metrics.observe("h", value)
        snap = metrics.snapshot()["histograms"]["h"]
        assert snap["count"] == 3
        assert snap["sum"] == 12
        assert snap["min"] == 1
        assert snap["max"] == 7
        assert snap["mean"] == 4

    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.mean == 0.0
        assert histogram.snapshot() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
        }

    def test_merge(self):
        first, second = Metrics(), Metrics()
        first.inc("a", 2)
        first.observe("h", 1)
        second.inc("a", 3)
        second.inc("b")
        second.observe("h", 5)
        first.merge(second)
        assert first.get("a") == 5
        assert first.get("b") == 1
        merged = first.histograms["h"]
        assert merged.count == 2 and merged.min == 1 and merged.max == 5

    def test_snapshot_is_json_serializable(self):
        metrics = Metrics()
        metrics.inc("x", 2)
        metrics.observe("y", 1.5)
        json.dumps(metrics.snapshot())


class TestPayloadSize:
    def test_matches_canonical_encoding(self):
        for payload in (0, "hi", (1, "x", b"y"), {"k": [1, 2]}, None, True):
            assert payload_size(payload) == len(serialization.encode(payload))

    def test_unencodable_payload_falls_back(self):
        class Weird:
            pass

        assert payload_size(Weird()) > 0
        lone_surrogate = ("\ud800", 1)  # text with no UTF-8 encoding
        assert payload_size(lone_surrogate) == len(repr(lone_surrogate))

    def test_payload_neither_encoding_nor_repr_can_size_costs_nothing(self):
        class Unprintable:
            def __repr__(self):
                raise RuntimeError("no repr")

        assert payload_size((1, Unprintable())) == 0


class TestJsonable:
    def test_structures(self):
        value = {"t": (1, 2), "s": frozenset([3, 1]), "b": b"\x01", 5: "key"}
        converted = jsonable(value)
        assert converted == {"t": [1, 2], "s": [1, 3], "b": "01", "5": "key"}
        json.dumps(converted)

    def test_fallback_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert jsonable(Opaque()) == "<opaque>"


class TestTracer:
    def test_span_nesting_paths_and_depths(self):
        tracer = Tracer()
        with tracer.span("outer", n=2):
            with tracer.span("inner"):
                tracer.event("tick", round=1)
        spans = tracer.spans()
        # Children close before parents.
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner["path"] == "outer/inner" and inner["depth"] == 1
        assert outer["path"] == "outer" and outer["depth"] == 0
        assert outer["attrs"] == {"n": 2}
        (event,) = tracer.events("tick")
        assert event["path"] == "outer/inner"
        assert event["attrs"] == {"round": 1}

    def test_span_timing_is_monotone(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans()
        assert 0 <= outer["start"] <= inner["start"]
        assert inner["end"] <= outer["end"]
        assert inner["duration"] <= outer["duration"]

    def test_span_late_attributes_and_errors(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.set(items=3)
        with pytest.raises(ValueError):
            with tracer.span("broken"):
                raise ValueError("boom")
        ok, broken = tracer.spans()
        assert ok["attrs"] == {"items": 3}
        assert broken["attrs"]["error"] == "ValueError"


class TestNoopTracer:
    def test_truly_noop(self):
        tracer = NoopTracer()
        with tracer.span("anything", big=list(range(3))) as span:
            span.set(more=1)
            tracer.event("event", x=1)
        assert tracer.records == ()
        assert not tracer.enabled

    def test_shared_instance_has_no_state(self):
        with NOOP_TRACER.span("a"):
            with NOOP_TRACER.span("b"):
                NOOP_TRACER.event("c")
        assert NOOP_TRACER.records == ()


class TestRuntime:
    def test_defaults_are_off(self):
        assert runtime.metrics is None
        assert runtime.tracer is NOOP_TRACER
        assert not runtime.tracer.enabled

    def test_observed_installs_and_restores(self):
        tracer, metrics = Tracer(), Metrics()
        with runtime.observed(tracer=tracer, metrics=metrics) as (tr, m):
            assert tr is tracer and m is metrics
            assert runtime.tracer is tracer and runtime.metrics is metrics
        assert runtime.tracer is NOOP_TRACER and runtime.metrics is None

    def test_observed_defaults_to_fresh_metrics(self):
        with runtime.observed() as (tr, m):
            assert tr is NOOP_TRACER
            assert isinstance(m, Metrics)
            assert runtime.metrics is m
        assert runtime.metrics is None

    def test_observed_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with runtime.observed(metrics=Metrics()):
                raise RuntimeError("boom")
        assert runtime.metrics is None and runtime.tracer is NOOP_TRACER

    def test_nested_observation_is_scoped(self):
        with runtime.observed(metrics=Metrics()) as (_, outer):
            outer_seen = runtime.metrics
            with runtime.observed(metrics=Metrics()) as (_, inner):
                runtime.metrics.inc("only.inner")
            assert runtime.metrics is outer_seen
            assert inner.get("only.inner") == 1
            assert outer.get("only.inner") == 0

    def test_install_uninstall(self):
        metrics = Metrics()
        runtime.install(new_metrics=metrics)
        try:
            assert runtime.metrics is metrics
            assert runtime.tracer is NOOP_TRACER
        finally:
            runtime.uninstall()
        assert runtime.metrics is None


class TestEndToEnd:
    """The obs layer observing a real protocol execution."""

    def _run(self):
        from repro.protocols import GennaroBroadcast

        protocol = GennaroBroadcast(4, 1, security_bits=16)
        return protocol.run([1, 0, 1, 0], seed=11)

    def test_execution_observed(self):
        tracer = Tracer()
        with runtime.observed(tracer=tracer, metrics=Metrics()) as (_, metrics):
            execution = self._run()
        assert metrics.get("net.rounds") == execution.round_count
        assert metrics.get("net.messages.sent") == len(execution.all_messages())
        assert metrics.get("crypto.group.exp") > 0
        (span,) = tracer.spans("scheduler.run")
        assert span["attrs"]["n"] == 4
        assert span["attrs"]["rounds"] == execution.round_count
        assert span["duration"] > 0
        (seed_event,) = tracer.events("run_protocol.seed")
        assert seed_event["attrs"]["seed"] == 11
        assert seed_event["attrs"]["defaulted"] is False

    def test_unobserved_execution_records_nothing(self):
        probe = Metrics()
        execution = self._run()
        assert runtime.metrics is None
        assert probe.counters == {}
        assert execution.seed == 11

    def test_observed_runs_do_not_change_results(self):
        baseline = self._run()
        with runtime.observed(metrics=Metrics()):
            observed = self._run()
        assert observed.outputs == baseline.outputs
        assert [r.messages for r in observed.rounds] == [
            r.messages for r in baseline.rounds
        ]


class TestMergeFoldEdgeCases:
    """Satellite coverage for the cross-process reduction paths: the
    parallel engine folds worker registries into the coordinator's, so the
    degenerate shapes (empty shards, partial counter sets, unbounded
    histograms, deep span trees) must all merge exactly."""

    def test_merge_empty_into_populated(self):
        target = Metrics()
        target.inc("a", 2)
        target.observe("h", 1.0)
        before = target.snapshot()
        target.merge(Metrics())
        assert target.snapshot() == before

    def test_merge_populated_into_empty(self):
        source = Metrics()
        source.inc("a", 2)
        source.observe("h", 1.0)
        target = Metrics()
        target.merge(source)
        assert target.snapshot() == source.snapshot()

    def test_merge_empty_into_empty(self):
        target = Metrics()
        target.merge(Metrics())
        assert target.snapshot() == {"counters": {}, "histograms": {}}

    def test_merge_mismatched_counter_sets(self):
        left = Metrics()
        left.inc("only.left", 1)
        left.inc("shared", 2)
        right = Metrics()
        right.inc("only.right", 4)
        right.inc("shared", 8)
        left.merge(right)
        assert left.counters == {"only.left": 1, "only.right": 4, "shared": 10}

    def test_merge_histogram_with_unset_bounds(self):
        # An empty histogram has min/max None; merging it either way must
        # not clobber real bounds or invent fake zeros.
        empty = Metrics()
        empty.histograms["h"] = Histogram()
        full = Metrics()
        full.observe("h", -3.0)
        full.observe("h", 7.0)
        full.merge(empty)
        assert full.histograms["h"].min == -3.0
        assert full.histograms["h"].max == 7.0
        assert full.histograms["h"].count == 2
        empty.merge(full)
        assert empty.histograms["h"].min == -3.0
        assert empty.histograms["h"].max == 7.0

    def test_merge_histogram_bounds_tighten(self):
        left = Metrics()
        left.observe("h", 5.0)
        right = Metrics()
        right.observe("h", -1.0)
        right.observe("h", 11.0)
        left.merge(right)
        snap = left.histograms["h"].snapshot()
        assert snap == {"count": 3, "sum": 15.0, "min": -1.0, "max": 11.0, "mean": 5.0}

    def test_merge_is_associative_over_shards(self):
        def shard(seed):
            metrics = Metrics()
            metrics.inc("ops", seed)
            metrics.observe("h", float(seed))
            return metrics

        one_by_one = Metrics()
        for seed in (1, 2, 3):
            one_by_one.merge(shard(seed))
        paired = Metrics()
        left, right = shard(1), shard(2)
        left.merge(right)
        paired.merge(left)
        paired.merge(shard(3))
        assert one_by_one.snapshot() == paired.snapshot()

    def test_reset_clears_everything(self):
        metrics = Metrics()
        metrics.inc("a", 3)
        metrics.observe("h", 1.0)
        metrics.reset()
        assert metrics.snapshot() == {"counters": {}, "histograms": {}}
        metrics.inc("a")
        assert metrics.get("a") == 1

    def test_fold_empty_records_is_noop(self):
        tracer = Tracer()
        with tracer.span("root"):
            tracer.fold([], shard=2)
        assert len(tracer.records) == 1  # just the root span

    def test_fold_into_empty_tracer_keeps_paths(self):
        worker = Tracer()
        with worker.span("trial"):
            worker.event("tick")
        coordinator = Tracer()
        coordinator.fold(worker.records, shard=2)
        # Folding at the coordinator's root leaves worker paths untouched.
        assert [r.get("path") for r in coordinator.records] == ["trial", "trial"]

    def test_fold_reroots_deeply_nested_spans(self):
        worker = Tracer()
        with worker.span("a"):
            with worker.span("b"):
                with worker.span("c"):
                    worker.event("leaf")
        coordinator = Tracer()
        with coordinator.span("experiment"):
            with coordinator.span("shard"):
                coordinator.fold(worker.records, shard=2)
        leaf = coordinator.events("leaf")[0]
        assert leaf["path"] == "experiment/shard/a/b/c"
        span_c = [r for r in coordinator.spans() if r["name"] == "c"][0]
        assert span_c["depth"] == worker.spans("c")[0]["depth"] + 2
        # Worker records at the worker's root land exactly at the
        # coordinator's current path.
        span_a = [r for r in coordinator.spans() if r["name"] == "a"][0]
        assert span_a["path"] == "experiment/shard/a"

    def test_fold_events_without_depth(self):
        coordinator = Tracer()
        with coordinator.span("root"):
            coordinator.fold([{"type": "event", "name": "bare", "path": "", "ts": 0.0}], shard=2)
        folded = coordinator.events("bare")[0]
        assert folded["path"] == "root"
        assert "depth" not in folded

    def test_fold_does_not_mutate_source_records(self):
        worker = Tracer()
        with worker.span("inner"):
            pass
        original = json.dumps(worker.records, sort_keys=True)
        coordinator = Tracer()
        with coordinator.span("outer"):
            coordinator.fold(worker.records, shard=2)
        assert json.dumps(worker.records, sort_keys=True) == original
