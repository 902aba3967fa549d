"""Counters, histograms, and the cost-accounting helpers behind them.

A :class:`Metrics` instance is a flat registry of named counters and
histograms.  Names are dotted strings (``"net.messages.sent"``,
``"crypto.group.exp"``); per-entity breakdowns append a suffix
(``"net.messages.sent.party.3"``).  The registry is deliberately simple —
plain dicts, no label algebra — because the instrumentation sits on hot
paths (every field multiplication, every group exponentiation) and must
cost almost nothing even when enabled.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .. import serialization


class Histogram:
    """Streaming summary of an observed value: count / sum / min / max."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
        }

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, mean={self.mean:.3g})"


class Metrics:
    """A registry of named counters and histograms for one observed run."""

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- recording ---------------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def reset(self) -> None:
        """Drop every counter and histogram (back to a fresh registry).

        Long-lived registries need this: the fastpath ``STATS`` registry
        survives warm-pool worker reuse, so callers measuring one
        workload snapshot-and-reset around it instead of accumulating
        counts from every run the process ever served.
        """
        self.counters.clear()
        self.histograms.clear()

    def merge(self, other: "Metrics") -> None:
        """Fold another registry's counts into this one (for aggregation)."""
        for name, value in other.counters.items():
            self.inc(name, value)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(histogram)

    # -- reading -----------------------------------------------------------------

    def get(self, name: str, default: float = 0) -> float:
        return self.counters.get(name, default)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot of every counter and histogram."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"Metrics({len(self.counters)} counters, "
            f"{len(self.histograms)} histograms)"
        )


def payload_size(payload: Any) -> int:
    """Wire size of a message payload in bytes.

    The length of the library's canonical encoding (the same bytes
    commitments and signatures hash over), computed by
    :func:`repro.serialization.encoded_size` without building them, at
    any nesting depth.  Payloads an adversary smuggles in that the
    canonical encoding rejects (an unsupported type, a cycle) are charged
    their ``repr`` size, and those ``repr`` cannot print either (an
    unencodable leaf nested past the interpreter's recursion limit, a
    raising ``__repr__``) are charged 0 bytes, so byte accounting never
    raises mid-run.
    """
    try:
        return serialization.encoded_size(payload)
    except (TypeError, ValueError):
        pass
    try:
        return len(repr(payload).encode("utf-8"))
    except Exception:  # byte accounting must not end a run
        return 0


def jsonable(value: Any) -> Any:
    """Best-effort conversion of ``value`` into JSON-safe structures.

    Tuples/sets become lists, bytes become hex, dict keys become strings,
    and anything else unsupported falls back to ``repr``.  Used by the
    trace exporter and the experiment ``--json`` dumper.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, dict):
        return {str(key): jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(item) for item in value)
    return repr(value)
