"""The process-pool experiment engine.

:class:`ExperimentEngine` maps task functions over argument tuples, either
inline (``jobs == 1``) or across a pool of worker processes.  Two design
rules make a parallel run *bit-identical* to a serial one:

* **determinism lives in the task list, not the executor** — callers
  derive every trial's randomness from its own salt
  (:class:`repro.experiments.common.TrialPlan`), so the partition of work
  across workers cannot influence any drawn sample;
* **observability folds in submission order** — each worker executes its
  task under a fresh :class:`repro.obs.Metrics` registry (and, when the
  coordinator is tracing, a fresh :class:`repro.obs.Tracer`), ships the
  captured registry back with the payload, and the coordinator merges the
  registries into the ambient one in task order.  Counter sums, histogram
  merges, and span folds are order-insensitive in aggregate, so the
  coordinator's registry ends up equal to what an inline run records.

The worker entry point (:func:`_run_shard`) is a module-level function so
it pickles under every multiprocessing start method.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import fastpath
from ..net.runtime import apply_runtime_env, capture_runtime_env
from ..obs import Metrics, Tracer, flightrec as _flightrec
from ..obs import runtime as _obs_runtime
from . import shm, warmup


def default_jobs() -> int:
    """The default worker count: one per CPU the process may use."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without CPU affinity (macOS, Windows)
        return os.cpu_count() or 1


def normalize_jobs(jobs: Any) -> int:
    """Coerce a ``--jobs`` value to a positive worker count (None = all CPUs)."""
    if jobs is None:
        return default_jobs()
    count = int(jobs)
    return count if count >= 1 else 1


@dataclass
class ShardOutcome:
    """What one worker ships back: the payload plus its captured observations."""

    payload: Any
    metrics: Metrics = field(default_factory=Metrics)
    trace_records: List[Dict[str, Any]] = field(default_factory=list)
    flight_records: List[Dict[str, Any]] = field(default_factory=list)


def _run_shard(
    task: Tuple[Callable[..., Any], Tuple[Any, ...], bool, bool, Dict[str, str]]
) -> ShardOutcome:
    """Worker entry point: run one task under a fresh observation scope."""
    fn, args, trace, flight, shard_env = task
    # Shards must resolve the same network runtime the coordinator would:
    # explicit under fork, essential under spawn (fresh environment).
    apply_runtime_env(shard_env)
    tracer = Tracer() if trace else None
    flight_records: List[Dict[str, Any]] = []
    with _obs_runtime.observed(tracer=tracer, metrics=Metrics()) as (_, metrics):
        if flight:
            # The coordinator's recorder is on: give this shard its own
            # ring (a fork child would otherwise append to an inherited
            # copy nobody reads) and ship the buffer back for folding.
            with _flightrec.recording(run_id=f"shard-pid{os.getpid()}") as recorder:
                payload = fn(*args)
            flight_records = recorder.snapshot()
        else:
            payload = fn(*args)
    records = list(tracer.records) if tracer is not None else []
    return ShardOutcome(
        payload=payload,
        metrics=metrics,
        trace_records=records,
        flight_records=flight_records,
    )


def _warm_worker(payload: Any) -> None:
    """Pool initializer: replay the coordinator's warm parameter caches.

    Under ``fork`` (the Linux default) the child already inherited the
    caches and this is a cheap no-op replay; under ``spawn`` it saves each
    worker from re-deriving safe primes and fixed-base tables from scratch.
    """
    warmup.apply_warm_state(payload)


class ExperimentEngine:
    """Maps task functions over argument tuples, inline or across processes.

    The engine owns one **persistent** worker pool: the first parallel
    :meth:`map` creates it (warm-started from the coordinator's parameter
    caches) and later calls reuse it.  Per-``map`` pool creation was the
    dominant cost of small parallel runs — process startup, interpreter
    import, and cache rebuilds charged to every experiment instead of once
    per engine.  Call :meth:`close` (or use the engine as a context
    manager) when done; a closed engine can be reused and will lazily
    recreate its pool.
    """

    def __init__(self, jobs: Any = None):
        self.jobs = normalize_jobs(jobs)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._shm_tables: Optional[shm.PublishedTables] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            payload = warmup.export_warm_state()
            if warmup.shm_tables_enabled():
                # Ship table *contents* once via shared memory so workers
                # attach instead of rebuilding; the payload's key list
                # stays as the rebuild fallback.
                self._shm_tables = shm.publish_tables(fastpath.export_tables())
                if self._shm_tables is not None:
                    payload["shm_tables"] = self._shm_tables.descriptor()
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_warm_worker,
                initargs=(payload,),
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; safe on never-parallel engines)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        published, self._shm_tables = self._shm_tables, None
        shm.release_tables(published)

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def map(
        self, fn: Callable[..., Any], arglists: Sequence[Tuple[Any, ...]]
    ) -> List[Any]:
        """Run ``fn(*args)`` for each tuple, returning payloads in task order.

        With ``jobs == 1`` (or a single task) everything runs inline in the
        caller's observation scope — no pool, no pickling, no overhead.
        Otherwise tasks fan out over the engine's persistent pool and the
        workers' captured metrics / trace records fold into the caller's
        ambient registry in task order before the payloads are returned.
        """
        tasks = list(arglists)
        if self.jobs == 1 or len(tasks) <= 1:
            return [fn(*args) for args in tasks]

        trace = _obs_runtime.tracer.enabled
        flight = _obs_runtime.flightrec is not None
        shard_env = capture_runtime_env()
        shard_tasks = [
            (fn, tuple(args), trace, flight, shard_env) for args in tasks
        ]
        outcomes = list(self._ensure_pool().map(_run_shard, shard_tasks))

        ambient = _obs_runtime.metrics
        recorder = _obs_runtime.flightrec
        for outcome in outcomes:
            if ambient is not None:
                ambient.merge(outcome.metrics)
            if trace and outcome.trace_records:
                _obs_runtime.tracer.fold(outcome.trace_records)
            if recorder is not None and outcome.flight_records:
                recorder.fold(outcome.flight_records)
        return [outcome.payload for outcome in outcomes]

    def __repr__(self) -> str:
        return f"ExperimentEngine(jobs={self.jobs})"


#: The shared inline engine: the serial execution path of every shardable
#: experiment, and the default when no engine is passed.
SERIAL_ENGINE = ExperimentEngine(jobs=1)
