"""Exporters: the Chrome trace-event JSON and per-round message timelines.

* :func:`chrome_trace` turns :class:`~repro.obs.tracer.Tracer` records
  into the Chrome trace-event JSON format — load the file in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing`` to see the span tree
  on a timeline.  This is the one way spans leave a process, and
  ``python -m repro --trace FILE <command>`` writes it for any command;
* :func:`timeline` renders any :class:`~repro.net.transcript.Execution`
  as a per-round message-flow table (who sent what to whom, faults
  inline).

Counters have no exporter here: every :class:`~repro.obs.metrics.Metrics`
counter and histogram an experiment records already leaves in its
``--json`` artifact (``ExperimentResult.to_json_dict``), which
``diffjson`` gates.  The fastpath kernels' process-local telemetry rides
in the trace file's ``metadata`` (see ``--trace``), never in an artifact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


# -- Chrome trace-event JSON ---------------------------------------------------------

#: Microseconds per tracer second (trace-event timestamps are in µs).
_US = 1_000_000


def chrome_trace(
    records: Iterable[Mapping[str, Any]], process_name: str = "repro"
) -> Dict[str, Any]:
    """Convert tracer records into a Chrome trace-event JSON object.

    Spans become complete ("X") events and events become instants ("i").
    The viewer reconstructs nesting from the timestamps, which is exactly
    what the tracer's start/end pairs encode, so each thread track must
    hold properly nested spans: the coordinator's records go on thread 1,
    and records folded in from a pool worker (see
    :meth:`repro.obs.Tracer.fold`) on a thread named by its pid.
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
        tid = record.get("shard", 1)
        kind = record["type"]
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
    path,
    records: Iterable[Mapping[str, Any]],
    process_name: str = "repro",
    *,
    metadata: Optional[Mapping[str, Any]] = None,
) -> None:
    """Dump :func:`chrome_trace` as a Perfetto-loadable ``.json`` file.

    ``metadata`` lands under the trace's ``"metadata"`` key, which trace
    viewers show beside the timeline and otherwise ignore.
    """
    trace = chrome_trace(records, process_name=process_name)
    if metadata is not None:
        trace["metadata"] = dict(metadata)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
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
