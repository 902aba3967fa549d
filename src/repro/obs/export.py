"""Exporters: the Chrome trace-event JSON and per-round message timelines.

* :func:`chrome_trace` turns :class:`~repro.obs.tracer.Tracer` records
  into the Chrome trace-event JSON format — load the file in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing`` to see the span tree
  on a timeline.  This is the one way spans leave a process;
* :func:`timeline` / :func:`timeline_html` render any
  :class:`~repro.net.transcript.Execution` as a per-round message-flow
  table (who sent what to whom, faults inline).

Counters have no exporter here: every :class:`~repro.obs.metrics.Metrics`
counter and histogram an experiment records already leaves in its
``--json`` artifact (``ExperimentResult.to_json_dict``), which
``diffjson`` gates.  The fastpath kernels' process-local telemetry leaves
only through :func:`repro.fastpath.stats`.
"""

from __future__ import annotations

import json
from html import escape
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


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
