"""Input distribution ensembles and the achievability classes of Section 5."""

from .base import Distribution
from .classes import (
    ALL,
    PSI_C,
    PSI_L,
    SINGLETON,
    UNIFORM,
    DistributionClass,
)
from .correlated import (
    all_equal,
    leaky_singleton,
    near_product_mixture,
    noisy_copy,
    parity,
)
from .standard import bernoulli_product, singleton, uniform

__all__ = [
    "Distribution",
    "DistributionClass",
    "ALL",
    "PSI_C",
    "PSI_L",
    "SINGLETON",
    "UNIFORM",
    "uniform",
    "singleton",
    "bernoulli_product",
    "all_equal",
    "parity",
    "noisy_copy",
    "near_product_mixture",
    "leaky_singleton",
]
