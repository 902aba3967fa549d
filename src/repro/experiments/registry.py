"""The experiment index: id -> runner, plus the run-everything drivers.

Parallelism happens at two levels, both routed through
:mod:`repro.parallel` and both bit-identical to a serial run:

* **experiment-level** — :func:`run_many` dispatches whole
  experiments to worker processes (each experiment is deterministic given
  its config, and its cost metrics travel inside the returned result);
* **trial-level** — the heavy runners (``SHARDED_IDS``: E-C56, E-L64,
  E-C66, E-COST, E-FAULT) opt in to intra-experiment sharding by accepting an
  ``engine=`` keyword; :func:`run_experiment` hands them an
  :class:`~repro.parallel.ExperimentEngine` sized by its ``jobs``
  argument, and their trial batches fan out across the pool.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ExperimentError
from ..obs import Metrics, runtime as _obs_runtime
from ..parallel import ExperimentEngine, normalize_jobs, prewarm_for_config
from . import (
    ablation,
    appendix_b,
    claim56,
    claim66,
    cost,
    faults,
    figure1,
    lemma52,
    lemma54,
    lemma61,
    lemma62,
    lemma64,
    prop63,
    rounds,
    trend_k,
)
from .common import ExperimentConfig, ExperimentResult

_MODULES = (
    figure1,
    claim56,
    lemma52,
    lemma54,
    lemma61,
    lemma62,
    prop63,
    lemma64,
    claim66,
    rounds,
    cost,
    trend_k,
    ablation,
    appendix_b,
    faults,
)

REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    module.EXPERIMENT_ID: module.run for module in _MODULES
}

TITLES: Dict[str, str] = {module.EXPERIMENT_ID: module.TITLE for module in _MODULES}

#: Experiments whose runners accept ``engine=`` for intra-experiment sharding.
SHARDED_IDS = frozenset(
    module.EXPERIMENT_ID
    for module in _MODULES
    if getattr(module, "SUPPORTS_ENGINE", False)
)


def run_experiment(
    experiment_id: str,
    config: Optional[ExperimentConfig] = None,
    jobs: int = 1,
    engine: Optional[ExperimentEngine] = None,
) -> ExperimentResult:
    """Run one experiment with cost accounting attached to its result.

    Every run executes under a fresh :class:`repro.obs.Metrics` registry, so
    the returned :class:`ExperimentResult` carries the measured cost of
    producing it (rounds, messages, bytes, crypto ops, wall-clock seconds)
    alongside the scientific payload.  Experiments that scope their own
    measurements (E-COST) keep whatever they already recorded.

    ``jobs > 1`` shards the trial batches of the opt-in heavy experiments
    (``SHARDED_IDS``) across worker processes; the result — including its
    metrics counters and histograms — is identical at every worker count.
    Pass ``engine`` to reuse a caller-owned (already warm) pool across
    several experiments; otherwise a temporary engine is created, warm-
    started from the coordinator's parameter caches, and shut down before
    returning.
    """
    config = ExperimentConfig() if config is None else config
    try:
        runner = REGISTRY[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        ) from None
    owns_engine = False
    if experiment_id in SHARDED_IDS and engine is None:
        if jobs > 1:
            # Warm the coordinator first: under fork the pool workers
            # inherit the parameter caches and fixed-base tables for free.
            prewarm_for_config(config)
        engine = ExperimentEngine(jobs)
        owns_engine = True
    try:
        start = time.perf_counter()
        # Scope a fresh metrics registry but keep an already-enabled ambient
        # tracer installed (observed() would otherwise swap in the no-op
        # tracer) — this is what lets `repro --trace` capture spans from
        # a full experiment run.
        ambient_tracer = (
            _obs_runtime.tracer if _obs_runtime.tracer.enabled else None
        )
        with _obs_runtime.observed(tracer=ambient_tracer, metrics=Metrics()) as (
            _,
            metrics,
        ):
            if experiment_id in SHARDED_IDS:
                result = runner(config, engine=engine)
            else:
                result = runner(config)
        elapsed = time.perf_counter() - start
    finally:
        if owns_engine and engine is not None:
            engine.close()
    snapshot = metrics.snapshot()
    result.metrics.setdefault("wall_seconds", elapsed)
    result.metrics.setdefault("counters", snapshot["counters"])
    result.metrics.setdefault("histograms", snapshot["histograms"])
    return result


def _run_one(experiment_id: str, config: ExperimentConfig) -> ExperimentResult:
    """Experiment-level shard task: one whole experiment, internally serial."""
    return run_experiment(experiment_id, config)


def run_many(
    experiment_ids: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    jobs: int = 1,
) -> List[ExperimentResult]:
    """Run the named experiments, in order, with ``jobs`` worker processes.

    Scheduling: experiments without trial-level sharding fan out whole
    (one pool task per experiment), then the sharded heavy experiments run
    one at a time with the full pool working their trial batches — the
    heavy runners dominate wall-clock, so this keeps every worker busy
    where it matters.  Results are returned in the requested order and are
    identical to a ``jobs=1`` run.
    """
    config = ExperimentConfig() if config is None else config
    jobs = normalize_jobs(jobs)
    unknown = [e for e in experiment_ids if e not in REGISTRY]
    if unknown:
        raise ExperimentError(
            f"unknown experiment(s) {unknown!r}; known: {sorted(REGISTRY)}"
        )
    if jobs == 1:
        return [run_experiment(experiment_id, config) for experiment_id in experiment_ids]

    # One pool for the whole batch: warm the coordinator's parameter caches
    # first (fork-inherited by every worker), then reuse the same engine for
    # the light fan-out and every heavy experiment's trial shards.
    prewarm_for_config(config)
    light = [e for e in experiment_ids if e not in SHARDED_IDS]
    heavy = [e for e in experiment_ids if e in SHARDED_IDS]
    with ExperimentEngine(jobs) as engine:
        results = dict(
            zip(light, engine.map(_run_one, [(experiment_id, config) for experiment_id in light]), strict=True)
        )
        for experiment_id in heavy:
            results[experiment_id] = run_experiment(
                experiment_id, config, jobs=jobs, engine=engine
            )
    return [results[experiment_id] for experiment_id in experiment_ids]
