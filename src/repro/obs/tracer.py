"""Execution tracing: nested wall-clock spans and structured events.

A :class:`Tracer` accumulates an ordered list of records, each a plain
dict.  Two record types exist:

* ``{"type": "span", "name", "path", "depth", "start", "end",
  "duration", "attrs"}`` — appended when a span *closes* (so a parent
  span appears after its children, as in most trace formats);
* ``{"type": "event", "name", "path", "ts", "attrs"}`` — appended
  inline, stamped with the enclosing span path.

``path`` is the slash-joined chain of open span names ("scheduler.run/
round"), which is what makes the flat record list reconstructible into a
tree.  All timestamps come from ``time.perf_counter`` relative to the
tracer's creation, so traces are diffable across runs.  The records leave
a process as the Chrome/Perfetto trace
(:func:`repro.obs.export.write_chrome_trace`).

:class:`NoopTracer` implements the same surface with every method a
no-op; the module-level :data:`NOOP_TRACER` is the process default (see
:mod:`repro.obs.runtime`).  Instrumented code gates attr-dict
construction on ``tracer.enabled`` so the disabled path allocates
nothing.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from .metrics import jsonable


class _SpanHandle:
    """Context manager for one open span; supports late attribute updates."""

    __slots__ = ("_tracer", "name", "attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def set(self, **attrs: Any) -> "_SpanHandle":
        """Attach attributes discovered while the span is running."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        self._start = self._tracer._now()
        self._tracer._stack.append(self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        path = "/".join(tracer._stack)
        tracer._stack.pop()
        end = tracer._now()
        attrs = self.attrs
        if exc_type is not None:
            attrs = dict(attrs)
            attrs["error"] = exc_type.__name__
        record = {
            "type": "span",
            "name": self.name,
            "path": path,
            "depth": len(tracer._stack),
            "start": self._start,
            "end": end,
            "duration": end - self._start,
            "attrs": jsonable(attrs),
        }
        tracer.records.append(record)


class Tracer:
    """Collects spans and events for one observed run.

    ``epoch`` is the clock reading that timestamps count from (default:
    now).  A pool worker passes its coordinator's, so the records it ships
    back already sit on the coordinator's timeline.
    """

    enabled = True

    def __init__(self, epoch: Optional[float] = None):
        self.epoch = time.perf_counter() if epoch is None else epoch
        self._stack: List[str] = []
        self.records: List[Dict[str, Any]] = []

    def _now(self) -> float:
        return time.perf_counter() - self.epoch

    # -- recording ---------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a nested span: ``with tracer.span("scheduler.run", n=5):``."""
        return _SpanHandle(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time structured event inside the current span."""
        record = {
            "type": "event",
            "name": name,
            "path": "/".join(self._stack),
            "ts": self._now(),
            "attrs": jsonable(attrs),
        }
        self.records.append(record)

    def fold(self, records: List[Dict[str, Any]], shard: int) -> None:
        """Graft records captured by *another* tracer under the current path.

        This is the cross-process reduction step used by
        :mod:`repro.parallel`: worker processes trace into their own
        :class:`Tracer` (timed from this tracer's :attr:`epoch`), ship
        ``records`` back (they are plain dicts, so they pickle), and the
        coordinator folds them in task order.  Paths and depths are
        re-rooted at the coordinator's current span, and every folded
        record is marked ``shard`` (the worker's pid): a worker runs its
        tasks one at a time, so its spans nest on one track of their own.
        """
        base_path = "/".join(self._stack)
        base_depth = len(self._stack)
        for record in records:
            folded = dict(record, shard=shard)
            if base_path:
                child_path = record.get("path", "")
                folded["path"] = f"{base_path}/{child_path}" if child_path else base_path
            if "depth" in folded:
                folded["depth"] = record["depth"] + base_depth
            self.records.append(folded)

    # -- reading -----------------------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        return [
            record
            for record in self.records
            if record["type"] == "span" and (name is None or record["name"] == name)
        ]

    def events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        return [
            record
            for record in self.records
            if record["type"] == "event" and (name is None or record["name"] == name)
        ]

    def __repr__(self) -> str:
        return f"Tracer({len(self.records)} records)"


class _NullSpan:
    """A reusable, state-free context manager."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NoopTracer:
    """The default tracer: every operation does nothing and stores nothing."""

    enabled = False
    records: tuple = ()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def fold(self, records: list, shard: int) -> None:
        return None

    def __repr__(self) -> str:
        return "NoopTracer()"


NOOP_TRACER = NoopTracer()
