"""The process-wide observability switchboard.

Instrumented modules read two module attributes on their hot paths::

    from ..obs import runtime as _obs

    if _obs.metrics is not None:
        _obs.metrics.inc("crypto.group.exp")
    if _obs.tracer.enabled:
        _obs.tracer.event("round", number=r)

Both default to *off* (``metrics is None``, ``tracer`` is the no-op
tracer), so an uninstrumented run pays one attribute load and one
``is None`` / truthiness test per hook — within measurement noise of the
seed benchmarks.

Installation is explicit and scoped: prefer the :func:`observed` context
manager, which saves and restores whatever was installed before (so
nested observations — e.g. E-COST measuring one protocol inside an
already-observed experiment run — stay isolated).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .metrics import Metrics
from .tracer import NOOP_TRACER, Tracer

#: The active tracer.  Never ``None``; disabled means the no-op tracer.
tracer = NOOP_TRACER

#: The active metrics registry, or ``None`` when metrics are off.
metrics: Optional[Metrics] = None

#: The active flight recorder, or ``None`` when flight recording is off.
#: Managed by :mod:`repro.obs.flightrec` (``enable``/``disable``/
#: ``recording``); hooks guard on ``_obs.flightrec is not None`` exactly
#: like the metrics hooks do.  Deliberately *not* part of
#: :func:`install`/:func:`observed`: the recorder is a process-lifetime
#: diagnostic ring, not a per-observation registry, so scoping a
#: measurement must not silently discard the crash buffer.
flightrec = None


def install(
    new_tracer: Optional[Tracer] = None, new_metrics: Optional[Metrics] = None
) -> None:
    """Install a tracer and/or metrics registry process-wide."""
    global tracer, metrics
    tracer = new_tracer if new_tracer is not None else NOOP_TRACER
    metrics = new_metrics


def uninstall() -> None:
    """Reset to the defaults: no-op tracer, no metrics."""
    install(None, None)


@contextmanager
def observed(
    tracer: Optional[Tracer] = None, metrics: Optional[Metrics] = None
):
    """Scope an observation: install, yield ``(tracer, metrics)``, restore.

    ``metrics`` defaults to a fresh :class:`Metrics` so the common
    "measure this run" case is one line; pass an explicit tracer to also
    capture spans/events.
    """
    effective_metrics = metrics if metrics is not None else Metrics()
    effective_tracer = tracer if tracer is not None else NOOP_TRACER
    # The parameters shadow the module attributes; read them via globals().
    previous = (globals()["tracer"], globals()["metrics"])
    install(effective_tracer, effective_metrics)
    try:
        yield effective_tracer, effective_metrics
    finally:
        install(previous[0], previous[1])
