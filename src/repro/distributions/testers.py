"""Empirical (sample-based) distribution testers.

The exact oracles in :mod:`repro.distributions.classes` need the full
probability table.  When only a sampler is available — e.g. the announced
vector of a protocol execution — these estimators recover the same
quantities from samples, with Hoeffding-style error bars handled by the
callers in :mod:`repro.analysis`.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, Sequence

from ..errors import DistributionError
from .base import Distribution, Vector

Sampler = Callable[[random.Random], Sequence[int]]


def empirical_distribution(
    sampler: Sampler, n: int, samples: int, rng: random.Random
) -> Distribution:
    """Build an explicit table from ``samples`` draws of ``sampler``."""
    if samples < 1:
        raise DistributionError("need at least one sample")
    counts: Dict[Vector, int] = {}
    for _ in range(samples):
        vector = tuple(int(b) for b in sampler(rng))
        if len(vector) != n:
            raise DistributionError(
                f"sampler produced a vector of length {len(vector)}, expected {n}"
            )
        counts[vector] = counts.get(vector, 0) + 1
    return Distribution(
        n, {v: c / samples for v, c in counts.items()}, name="empirical"
    )


def estimate_local_independence_gap(
    sampler: Sampler,
    n: int,
    samples: int,
    rng: random.Random,
    min_condition_mass: float = 0.02,
) -> float:
    """Sample-based estimate of the Ψ_L defining gap.

    Conditioning events with empirical mass below ``min_condition_mass``
    are skipped: their conditional estimates would be dominated by noise
    (this mirrors the paper's restriction to strings occurring with
    non-zero — here, non-negligible — probability).
    """
    empirical = empirical_distribution(sampler, n, samples, rng)
    worst = 0.0
    indices = list(range(1, n + 1))
    for size in range(1, n):
        for subset in itertools.combinations(indices, size):
            rest = [c for c in indices if c not in subset]
            marginal_b = empirical.marginal(subset)
            marginal_rest = empirical.marginal(rest)
            for w in marginal_rest.support():
                if marginal_rest.probability(w) < min_condition_mass:
                    continue
                conditional_b = empirical.conditional(
                    dict(zip(rest, w, strict=True))
                ).marginal(subset)
                for u in itertools.product((0, 1), repeat=size):
                    gap = abs(
                        conditional_b.probability(u) - marginal_b.probability(u)
                    )
                    worst = max(worst, gap)
    return worst
