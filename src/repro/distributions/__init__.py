"""Input distribution ensembles and the achievability classes of Section 5."""

from .base import Distribution, Ensemble
from .classes import (
    ALL,
    PHI,
    PSI_C,
    PSI_L,
    SINGLETON,
    UNIFORM,
    DistributionClass,
    claim_56_witnesses,
    representatives,
)
from .correlated import (
    all_equal,
    leaky_singleton,
    near_product_mixture,
    noisy_copy,
    parity,
)
from .standard import (
    all_singletons,
    bernoulli_product,
    singleton,
    uniform,
)
from .testers import (
    empirical_distribution,
    estimate_local_independence_gap,
)

__all__ = [
    "Distribution",
    "Ensemble",
    "DistributionClass",
    "ALL",
    "PHI",
    "PSI_C",
    "PSI_L",
    "SINGLETON",
    "UNIFORM",
    "claim_56_witnesses",
    "representatives",
    "uniform",
    "singleton",
    "all_singletons",
    "bernoulli_product",
    "all_equal",
    "parity",
    "noisy_copy",
    "near_product_mixture",
    "leaky_singleton",
    "empirical_distribution",
    "estimate_local_independence_gap",
]
