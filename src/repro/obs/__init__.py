"""Observability: execution tracing, cost metrics, and run artifacts.

The reproduction's efficiency story (Section 1/7 of the paper: linear [7]
vs logarithmic [8] vs constant [12] rounds) only becomes regression-checkable
once the system can *measure* itself.  This package is a zero-dependency
tracing + metrics layer threaded through the network engine, the crypto
toolkit, the broadcast emulation and the MPC substrate:

* :class:`Tracer` — nested wall-clock spans plus structured events,
  exported as a Chrome/Perfetto trace (:func:`export.write_chrome_trace`);
* :class:`Metrics` — a registry of named counters and histograms
  (rounds, messages, bytes, per-party traffic, group exponentiations,
  random-oracle calls, field multiplications, VSS shares verified, ...);
* :mod:`repro.obs.runtime` — the process-wide switchboard.  Everything is
  **off by default**: instrumented code guards on ``runtime.metrics is
  None`` / ``tracer.enabled``, so uninstrumented runs pay a single
  attribute load + ``is None`` test per hook.

Typical use::

    from repro.obs import Metrics, Tracer, export, runtime

    with runtime.observed(tracer=Tracer(), metrics=Metrics()) as (tr, m):
        execution = protocol.run(inputs, seed=7)
    print(m.get("net.messages.sent"), m.get("crypto.group.exp"))
    export.write_chrome_trace("trace.json", tr.records)
    print(m.snapshot())

An experiment's counters and histograms leave in its ``--json`` artifact.
"""

from . import export, flightrec, runtime
from .flightrec import FlightRecorder
from .metrics import Histogram, Metrics, jsonable, payload_size
from .tracer import NOOP_TRACER, NoopTracer, Tracer

__all__ = [
    "FlightRecorder",
    "Histogram",
    "Metrics",
    "NOOP_TRACER",
    "NoopTracer",
    "Tracer",
    "export",
    "flightrec",
    "jsonable",
    "payload_size",
    "runtime",
]
