"""Exporters: Chrome trace-event JSON, Prometheus text, message timelines.

Three ways out of the in-process observability registries:

* :func:`chrome_trace` turns :class:`~repro.obs.tracer.Tracer` records
  into the Chrome trace-event JSON format — load the file in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing`` to see the span tree
  on a timeline;
* :func:`prometheus_text` renders a :class:`~repro.obs.metrics.Metrics`
  registry in the Prometheus text exposition format (counters as
  ``*_total``, histograms as count/sum plus min/max/mean gauges), with
  metric names sanitized and per-entity suffixes (``...party.3``) lifted
  into labels;
* :func:`timeline` / :func:`timeline_html` render any
  :class:`~repro.net.transcript.Execution` as a per-round message-flow
  table (who sent what to whom, faults inline).

:func:`fastpath_gauges` surfaces the fastpath kernels' process-local
``fastpath.*`` telemetry as a gauge namespace for these exports.  Those
counters are cache-warmth dependent (they differ between serial and
parallel topologies by design), so they appear *only* here and in obs
snapshots — never in the deterministic, diffjson-gated experiment
artifact counters.
"""

from __future__ import annotations

import json
import re
from html import escape
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .metrics import Histogram, Metrics


def metrics_from_snapshot(
    counters: Mapping[str, float], histograms: Optional[Mapping[str, Mapping[str, float]]] = None
) -> Metrics:
    """Rebuild a :class:`Metrics` registry from snapshot dicts.

    Experiment results carry their metrics as plain ``counters`` /
    ``histograms`` snapshots (see ``ExperimentResult.metrics``); this
    inverse lets the exporters render them without re-running anything.
    Histogram means are recomputed from count/sum, as in the original.
    """
    metrics = Metrics()
    for name, value in (counters or {}).items():
        metrics.inc(name, value)
    for name, stats in (histograms or {}).items():
        histogram = Histogram()
        histogram.count = int(stats.get("count", 0))
        histogram.total = float(stats.get("sum", 0.0))
        if histogram.count:
            histogram.min = float(stats.get("min", 0.0))
            histogram.max = float(stats.get("max", 0.0))
        metrics.histograms[name] = histogram
    return metrics


# -- Chrome trace-event JSON ---------------------------------------------------------

#: Microseconds per tracer second (trace-event timestamps are in µs).
_US = 1_000_000


def chrome_trace(
    records: Iterable[Mapping[str, Any]], process_name: str = "repro"
) -> Dict[str, Any]:
    """Convert tracer records into a Chrome trace-event JSON object.

    Spans become complete ("X") events and events become instants ("i"),
    all on one thread track per shard — the viewer reconstructs nesting
    from the timestamps, which is exactly what the tracer's start/end
    pairs encode.  Records folded in from parallel shards (see
    :meth:`repro.obs.Tracer.fold`) keep their own epoch, so each shard
    gets its own thread id to keep its timeline internally consistent.
    """
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for record in records:
        tid = 2 if record.get("shard") else 1
        kind = record.get("type") or str(record.get("kind", "")).removeprefix("trace.")
        if kind == "span":
            events.append(
                {
                    "name": record["name"],
                    "cat": record.get("path", ""),
                    "ph": "X",
                    "ts": record["start"] * _US,
                    "dur": record["duration"] * _US,
                    "pid": 1,
                    "tid": tid,
                    "args": dict(record.get("attrs") or {}),
                }
            )
        elif kind == "event":
            events.append(
                {
                    "name": record["name"],
                    "cat": record.get("path", ""),
                    "ph": "i",
                    "ts": record["ts"] * _US,
                    "pid": 1,
                    "tid": tid,
                    "s": "t",
                    "args": dict(record.get("attrs") or {}),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path, records: Iterable[Mapping[str, Any]], process_name: str = "repro"
) -> None:
    """Dump :func:`chrome_trace` as a Perfetto-loadable ``.json`` file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(records, process_name=process_name), handle, indent=1)
        handle.write("\n")


# -- Prometheus text exposition ------------------------------------------------------

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
#: Per-entity counter suffixes lifted into labels: ``net.bytes.sent.party.3``
#: becomes ``repro_net_bytes_sent_by_party_total{party="3"}``.
_LABEL_SUFFIXES = (re.compile(r"^(?P<base>.+)\.party\.(?P<value>\d+)$", ), "party")


def sanitize_metric_name(name: str, namespace: str = "repro") -> str:
    """A Prometheus-legal metric name: namespaced, ``[a-zA-Z0-9_:]`` only."""
    flat = _INVALID_CHARS.sub("_", name.replace(".", "_"))
    if not flat or not (flat[0].isalpha() or flat[0] in "_:"):
        flat = f"_{flat}"
    return f"{namespace}_{flat}" if namespace else flat


def split_labels(name: str) -> Tuple[str, Dict[str, str]]:
    """Split a dotted counter name into (base name, labels).

    Only the per-entity suffixes the instrumentation actually emits are
    recognized; everything else passes through label-free.
    """
    pattern, label = _LABEL_SUFFIXES
    match = pattern.match(name)
    if match:
        return f"{match.group('base')}.by_{label}", {label: match.group("value")}
    return name, {}


def _format_value(value: Any) -> str:
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
    return f"{{{inner}}}"


def prometheus_text(
    metrics: Metrics,
    namespace: str = "repro",
    extra_gauges: Optional[Mapping[str, float]] = None,
) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters become ``<namespace>_<name>_total`` counter families;
    histograms become ``_count``/``_sum`` (summary convention) plus
    ``_min``/``_max``/``_mean`` gauges; ``extra_gauges`` (e.g.
    :func:`fastpath_gauges`) are appended as plain gauges.
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family(name: str, kind: str) -> Dict[str, Any]:
        entry = families.setdefault(name, {"kind": kind, "samples": []})
        return entry

    for name, value in sorted(metrics.counters.items()):
        base, labels = split_labels(name)
        fam = family(f"{sanitize_metric_name(base, namespace)}_total", "counter")
        fam["samples"].append((labels, value))
    for name, histogram in sorted(metrics.histograms.items()):
        base, labels = split_labels(name)
        flat = sanitize_metric_name(base, namespace)
        snap = histogram.snapshot()
        family(f"{flat}_count", "counter")["samples"].append((labels, snap["count"]))
        family(f"{flat}_sum", "counter")["samples"].append((labels, snap["sum"]))
        for stat in ("min", "max", "mean"):
            family(f"{flat}_{stat}", "gauge")["samples"].append((labels, snap[stat]))
    for name, value in sorted((extra_gauges or {}).items()):
        base, labels = split_labels(name)
        family(sanitize_metric_name(base, namespace), "gauge")["samples"].append(
            (labels, value)
        )

    lines: List[str] = []
    for name in sorted(families):
        entry = families[name]
        lines.append(f"# TYPE {name} {entry['kind']}")
        for labels, value in entry["samples"]:
            lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{'name{labels}': value}``.

    The round-trip half used by the tests and the CI smoke job — enough
    of the format to verify :func:`prometheus_text` output, not a
    general scraper.
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


def fastpath_gauges() -> Dict[str, float]:
    """The fastpath kernels' process-local telemetry as a gauge mapping.

    Flattens :func:`repro.fastpath.stats` into dotted gauge names
    (``fastpath.pow.table_hits``, ``fastpath.caches.tables``).
    Process-local by design: these values depend on cache warmth and
    process topology, so they belong in exported snapshots, never in
    diffjson-gated artifact counters.
    """
    from .. import fastpath

    snapshot = fastpath.stats()
    gauges: Dict[str, float] = {}
    for name, value in snapshot["counters"].items():
        gauges[name] = float(value)
    for cache, size in snapshot.get("caches", {}).items():
        gauges[f"fastpath.caches.{cache}"] = float(size)
    return gauges


# -- per-round message-flow timelines ------------------------------------------------


def _round_flows(messages: Sequence[Any]) -> List[Tuple[str, str, str, int]]:
    """Aggregate one round's traffic into (sender, recipient, tag, count) rows."""
    counts: Dict[Tuple[str, str, str], int] = {}
    for message in messages:
        sender = str(message.sender)
        recipient = "*" if message.recipient == -1 else str(message.recipient)
        key = (sender, recipient, message.tag)
        counts[key] = counts.get(key, 0) + 1
    return [
        (sender, recipient, tag, count)
        for (sender, recipient, tag), count in sorted(
            counts.items(), key=lambda item: (int(item[0][0]), item[0][1], item[0][2])
        )
    ]


def timeline(execution, max_rounds: Optional[int] = None) -> str:
    """A text rendering of the per-round message flow of an execution.

    One block per round: the round header (message and fault counts),
    then one line per (sender → recipient, tag) flow, ``*`` meaning the
    broadcast channel.  ``max_rounds`` truncates long executions.
    """
    faults_by_round: Dict[int, List[Any]] = {}
    for fault in execution.faults:
        faults_by_round.setdefault(fault.round, []).append(fault)
    lines = [
        f"execution: n={execution.n} corrupted={sorted(execution.corrupted)} "
        f"rounds={execution.round_count} seed={execution.seed}"
        + (" TIMED-OUT" if execution.timed_out else "")
    ]
    shown = execution.rounds if max_rounds is None else execution.rounds[:max_rounds]
    for record in shown:
        round_faults = faults_by_round.get(record.round, [])
        header = f"round {record.round} | {len(record.messages)} message(s)"
        if round_faults:
            header += f", {len(round_faults)} fault(s)"
        lines.append(header)
        for sender, recipient, tag, count in _round_flows(record.messages):
            suffix = f" x{count}" if count > 1 else ""
            lines.append(f"  {sender} -> {recipient} : {tag}{suffix}")
        for fault in round_faults:
            recipient = "*" if fault.recipient == -1 else fault.recipient
            lines.append(
                f"  ! {fault.kind} {fault.sender} -> {recipient} : {fault.tag}"
            )
    if max_rounds is not None and len(execution.rounds) > max_rounds:
        lines.append(f"... {len(execution.rounds) - max_rounds} more round(s)")
    return "\n".join(lines) + "\n"


_HTML_PAGE = """<!doctype html>
<html><head><meta charset="utf-8"><title>{title}</title>
<style>
body {{ font: 14px/1.4 system-ui, sans-serif; margin: 2em; }}
table {{ border-collapse: collapse; }}
th, td {{ border: 1px solid #ccc; padding: 4px 10px; vertical-align: top; text-align: left; }}
th {{ background: #f2f2f2; }}
.fault {{ color: #b00; }}
.broadcast {{ font-weight: bold; }}
</style></head><body>
<h1>{title}</h1>
<p>n={n}, corrupted={corrupted}, rounds={rounds}, seed={seed}{timed_out}</p>
<table>
<tr><th>round</th><th>message flows</th><th>faults</th></tr>
{rows}
</table></body></html>
"""


def timeline_html(execution, title: str = "repro execution timeline") -> str:
    """The same per-round flow table as :func:`timeline`, as standalone HTML."""
    faults_by_round: Dict[int, List[Any]] = {}
    for fault in execution.faults:
        faults_by_round.setdefault(fault.round, []).append(fault)
    rows = []
    for record in execution.rounds:
        flows = []
        for sender, recipient, tag, count in _round_flows(record.messages):
            suffix = f" ×{count}" if count > 1 else ""
            cls = ' class="broadcast"' if recipient == "*" else ""
            flows.append(
                f"<div{cls}>{escape(sender)} → {escape(recipient)} : "
                f"{escape(tag)}{suffix}</div>"
            )
        faults = []
        for fault in faults_by_round.get(record.round, []):
            recipient = "*" if fault.recipient == -1 else fault.recipient
            faults.append(
                f'<div class="fault">{escape(fault.kind)} {fault.sender} → '
                f"{recipient} : {escape(fault.tag)}</div>"
            )
        rows.append(
            f"<tr><td>{record.round}</td><td>{''.join(flows)}</td>"
            f"<td>{''.join(faults)}</td></tr>"
        )
    return _HTML_PAGE.format(
        title=escape(title),
        n=execution.n,
        corrupted=escape(str(sorted(execution.corrupted))),
        rounds=execution.round_count,
        seed=execution.seed,
        timed_out=" — <strong>timed out</strong>" if execution.timed_out else "",
        rows="\n".join(rows),
    )
