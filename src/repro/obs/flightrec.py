"""The execution flight recorder: a bounded ring buffer you can leave on.

A :class:`FlightRecorder` retains the *last N* observability records seen
by this process — run headers, scheduler round, timeout and omission
summaries, per-message routing entries, and injected
:class:`~repro.faults.injector.FaultRecord` entries — in a fixed-size
ring (``collections.deque(maxlen=N)``), so its memory and per-record
cost are constant no matter how long the run.  It is the post-mortem
half of :mod:`repro.obs`: the live tracer/metrics answer "what is the
system doing", the flight recorder answers "what were the last few
thousand things it did before something went wrong".

The recorder dumps its buffer as a ``results/flightrec_<run>.jsonl``
snapshot automatically when

* a protocol hits its graceful ``timeout_rounds`` deadline
  (:mod:`repro.net.scheduler`),
* an exception escapes :func:`repro.net.network.run_protocol`,
* honest parties are caught disagreeing on the announced vector
  (:meth:`repro.net.transcript.Execution.announced_vector`), or
* a conformance check logs a failing cell
  (``tests/conformance/conftest.py``).

Lifecycle mirrors the rest of the switchboard: **off by default**
(every hook guards on ``_obs.flightrec is not None``, one attribute
load + identity test), installed process-wide for the span of a
:func:`recording` block.  Parallel shards record into their own
ring (each task carries the coordinator recorder's dump directory, so a
shard's dumps land beside the coordinator's), ship their buffer back
with the shard payload, and the coordinator grafts it in with
:meth:`FlightRecorder.fold` — the same reduction path
:meth:`repro.obs.Tracer.fold` and :meth:`repro.obs.Metrics.merge` use.
The recorder keeps its own records: the tracer's spans and events are
not copied into the ring, because every tracer event in the tree already
has a recorder twin.

Snapshots are diagnostic artifacts only: they carry wall-clock
timestamps and are written *next to* — never inside — the
deterministic ``--json`` experiment artifacts, so enabling the recorder
cannot perturb a ``diffjson`` gate (``tests/test_experiments_diffjson.py``
locks this in).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import contextmanager, suppress
from typing import Any, Dict, Iterable, List, Optional

from .metrics import jsonable

#: Ring capacity when the caller does not choose one.  Sized so a dump
#: spans several rounds of a mid-size protocol (n=10 is ~100 messages a
#: round) while the resident buffer stays well under a megabyte.
DEFAULT_CAPACITY = 4096

#: Where dumps land unless overridden (per-recorder or via the
#: ``REPRO_FLIGHTREC_DIR`` environment variable).
DEFAULT_DUMP_DIR = "results"


class FlightRecorder:
    """A fixed-capacity ring of observability records for one process."""

    __slots__ = (
        "capacity",
        "run_id",
        "dump_dir",
        "buffer",
        "pushed",
        "dumps",
        "_clock",
        "_epoch",
        "_dump_seq",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        run_id: Optional[str] = None,
        dump_dir: Optional[str] = None,
        clock=None,
    ):
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.run_id = run_id if run_id is not None else f"pid{os.getpid()}"
        # Dump-path override only: a deployment setting that steers where
        # debugging snapshots land, never what a shard computes.
        self.dump_dir = dump_dir or os.environ.get(  # repro: allow[ENV001]
            "REPRO_FLIGHTREC_DIR", DEFAULT_DUMP_DIR
        )
        self.buffer: deque = deque(maxlen=capacity)
        #: Total records ever pushed; ``pushed - len(buffer)`` is how many
        #: the ring has already forgotten.
        self.pushed = 0
        #: Paths of every snapshot this recorder has written, in order.
        self.dumps: List[str] = []
        self._clock = clock or time.perf_counter
        self._epoch = self._clock()
        self._dump_seq = 0

    # -- recording ---------------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._epoch

    def push(self, kind: str, **fields: Any) -> None:
        """Append one record; the ring silently forgets the oldest when full."""
        record = {"kind": kind, "ts": self._now()}
        record.update(fields)
        self.buffer.append(record)
        self.pushed += 1

    def record_message(self, round_number: int, message: Any) -> None:
        """One routing entry per wire message: who → whom, which tag."""
        self.push(
            "message",
            round=round_number,
            sender=message.sender,
            recipient=message.recipient,
            tag=message.tag,
        )

    def record_fault(self, fault: Any) -> None:
        """Mirror one injected :class:`FaultRecord` into the ring."""
        self.push(
            "fault",
            round=fault.round,
            fault=fault.kind,
            sender=fault.sender,
            recipient=fault.recipient,
            tag=fault.tag,
            detail=fault.detail,
        )

    def fold(self, records: Iterable[Dict[str, Any]]) -> None:
        """Graft a shard's buffer (see :meth:`snapshot`) into this ring.

        The cross-process reduction step used by
        :class:`repro.parallel.ExperimentEngine`: workers snapshot their
        recorder, ship the plain dicts back with the payload, and the
        coordinator folds them in task order.  Timestamps keep the
        worker's epoch (comparable within a shard, like folded spans).
        """
        for record in records:
            folded = dict(record)
            folded["shard"] = True
            self.buffer.append(folded)
            self.pushed += 1

    # -- reading / dumping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.buffer)

    @property
    def forgotten(self) -> int:
        """How many records the ring has already discarded."""
        return self.pushed - len(self.buffer)

    def snapshot(self) -> List[Dict[str, Any]]:
        """The retained records, oldest first, as JSON-safe plain dicts."""
        return [jsonable(record) for record in self.buffer]

    def dump(self, reason: str, path: Optional[str] = None, **context: Any) -> str:
        """Write the buffer as a JSONL snapshot and return its path.

        Line 1 is a header record (``kind: "flightrec.header"``) carrying
        the dump reason, ring statistics, and any caller context; every
        following line is one buffered record, oldest first.  A dump
        named by the recorder never overwrites an earlier one: a recorder
        with the same run id (one per task on a pool worker) may have
        written it, so the sequence number moves on to a free name.
        """
        if path is None:
            while path is None or os.path.exists(path):
                self._dump_seq += 1
                name = f"flightrec_{self.run_id}_{self._dump_seq:03d}.jsonl"
                path = os.path.join(self.dump_dir, name)
        header = {
            "kind": "flightrec.header",
            "reason": reason,
            "run_id": self.run_id,
            "capacity": self.capacity,
            "retained": len(self.buffer),
            "forgotten": self.forgotten,
            "context": jsonable(context),
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        handle = open(path, "w", encoding="utf-8")
        try:
            with handle:
                handle.write(json.dumps(header, sort_keys=True))
                handle.write("\n")
                for record in self.buffer:
                    handle.write(json.dumps(jsonable(record), sort_keys=True))
                    handle.write("\n")
        except OSError:
            # A write cut short (a full disk) leaves no partial snapshot
            # behind: no recorder lists it and read_dump cannot parse it.
            with suppress(OSError):
                os.remove(path)
            raise
        self.dumps.append(path)
        return path

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({len(self.buffer)}/{self.capacity} records, "
            f"run_id={self.run_id!r})"
        )


def read_dump(path) -> List[Dict[str, Any]]:
    """Load a snapshot written by :meth:`FlightRecorder.dump` (header first)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# -- process-wide lifecycle ----------------------------------------------------------


def _install(recorder: Optional[FlightRecorder]) -> None:
    from . import runtime

    runtime.flightrec = recorder


def active() -> Optional[FlightRecorder]:
    """The process-wide recorder, or ``None`` when flight recording is off."""
    from . import runtime

    return runtime.flightrec


@contextmanager
def recording(
    capacity: int = DEFAULT_CAPACITY,
    run_id: Optional[str] = None,
    dump_dir: Optional[str] = None,
):
    """Scope a process-wide recorder: install it, yield it, restore whatever
    was on before."""
    previous = active()
    recorder = FlightRecorder(capacity=capacity, run_id=run_id, dump_dir=dump_dir)
    _install(recorder)
    try:
        yield recorder
    finally:
        _install(previous)


def dump_if_active(reason: str, **context: Any) -> Optional[str]:
    """Dump the process recorder, if one is on; never raises.

    This is the hook the failure paths call — a diagnostic snapshot must
    not turn a diagnosable failure into an I/O crash, so write errors are
    swallowed (the failure itself still propagates to the caller).
    """
    recorder = active()
    if recorder is None:
        return None
    try:
        return recorder.dump(reason, **context)
    except OSError:
        return None
