"""Deterministic parallel execution for the experiment harness.

The reproduction's experiments are embarrassingly parallel Monte-Carlo
loops.  This package shards them — whole experiments, and within the
heavy experiments independent trial batches — across CPU workers while
keeping one hard guarantee: **a parallel run is bit-identical to a serial
run at any worker count**.  Determinism comes from per-trial RNG salts
(:class:`repro.experiments.common.TrialPlan`), not from execution order;
cost accounting survives the process boundary because each worker's
:class:`repro.obs.Metrics` registry (and trace records) fold back into
the coordinator's in task order.

Entry points:

* ``--jobs N`` on the ``python -m repro`` commands that run experiments
  or campaigns (default: one worker per CPU);
* :func:`repro.experiments.registry.run_many` with ``jobs=N``;
* :class:`ExperimentEngine` — the reusable process-pool mapper.
"""

from .engine import SERIAL_ENGINE, ExperimentEngine, ShardOutcome, default_jobs, normalize_jobs
from .warmup import (
    apply_warm_state,
    export_warm_state,
    prewarm,
    prewarm_for_config,
    security_levels_for,
)

__all__ = [
    "ExperimentEngine",
    "SERIAL_ENGINE",
    "ShardOutcome",
    "apply_warm_state",
    "default_jobs",
    "export_warm_state",
    "normalize_jobs",
    "prewarm",
    "prewarm_for_config",
    "security_levels_for",
]
