"""The reproduction experiments: one module per claim/lemma/figure.

See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for measured
results.  Run everything with::

    python -m repro experiments --jobs 4

or programmatically via :func:`repro.experiments.registry.run_many`
(``jobs=N`` shards across worker processes with bit-identical
results; see :mod:`repro.parallel`).
"""

from .common import ExperimentConfig, ExperimentResult, TrialPlan, TrialShard
from .registry import REGISTRY, SHARDED_IDS, TITLES, run_experiment, run_many

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "REGISTRY",
    "SHARDED_IDS",
    "TITLES",
    "TrialPlan",
    "TrialShard",
    "run_experiment",
    "run_many",
]
