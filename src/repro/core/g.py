"""The G-Independence estimator (Definition 4.4, Gennaro [12]).

For every corrupted party P_i, every bit b, and every pair of honest-
output vectors r, s occurring with non-negligible empirical probability,
estimate

    | Pr[W_i = b | W_honest = r]  −  Pr[W_i = b | W_honest = s] |

over W ← Announced^Π_A(D^(k)).  Conditioning events below the minimum
count are skipped, mirroring the definition's restriction to vectors that
"occur with non-zero probability as D_B̄" (conditioning on near-null
events is exactly the technical difficulty the paper's G** variant
side-steps).

With no corrupted parties the definition is vacuous and the gap is 0.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Tuple

from ..analysis.stats import hoeffding_halfwidth, selection_halfwidth
from ..distributions.base import Distribution
from ..errors import ExperimentError
from .announced import AdversaryFactory, sample_announced
from .verdict import IndependenceReport

DEFAULT_MIN_CONDITION_COUNT = 25


def g_report(
    protocol,
    distribution: Distribution,
    adversary_factory: AdversaryFactory,
    samples: int,
    rng: random.Random,
    min_condition_count: int = DEFAULT_MIN_CONDITION_COUNT,
) -> IndependenceReport:
    """Estimate the G gap of Π under adversary A and input distribution D."""
    if samples < 10:
        raise ExperimentError("G estimation needs at least 10 samples")
    draws = sample_announced(protocol, distribution, adversary_factory, samples, rng)
    return g_report_from_samples(
        draws,
        protocol.n,
        min_condition_count=min_condition_count,
        distribution_name=distribution.name,
    )


def g_report_from_samples(
    draws,
    n: int,
    min_condition_count: int = DEFAULT_MIN_CONDITION_COUNT,
    distribution_name: str = "",
) -> IndependenceReport:
    """The estimation step of :func:`g_report`, on pre-drawn samples.

    Splitting sampling from estimation lets :mod:`repro.parallel` draw the
    samples in sharded worker processes and fold them back here; the
    estimate depends only on the multiset of draws, in order.
    """
    samples = len(draws)
    if samples < 10:
        raise ExperimentError("G estimation needs at least 10 samples")
    corrupted = sorted(draws[0].corrupted)
    honest = [i for i in range(1, n + 1) if i not in draws[0].corrupted]

    if not corrupted:
        return IndependenceReport(
            definition="G",
            gap=0.0,
            error=0.0,
            samples=samples,
            witness="no corrupted parties (vacuous)",
            details={"distribution": distribution_name},
        )

    # Bucket draws by the honest projection of the announced vector.
    buckets: Dict[Tuple[int, ...], list] = {}
    for draw in draws:
        key = tuple(draw.announced[j - 1] for j in honest)
        buckets.setdefault(key, []).append(draw)

    usable = {
        key: group
        for key, group in buckets.items()
        if len(group) >= min_condition_count
    }

    # The witness is the pair with the largest certified lower bound
    # ``gap - error``, not the largest raw gap: a big gap between two thin
    # groups carries an error bar too wide to certify anything.
    worst_gap = 0.0
    worst_error = hoeffding_halfwidth(samples)
    best_lower = -math.inf
    witness = ""
    keys = sorted(usable)
    comparisons = max(1, len(corrupted) * len(keys) * (len(keys) - 1) // 2)
    for i in corrupted:
        rates = {}
        for key in keys:
            group = usable[key]
            rates[key] = sum(1 for d in group if d.announced[i - 1] == 1) / len(group)
        for a_index in range(len(keys)):
            for b_index in range(a_index + 1, len(keys)):
                r, s = keys[a_index], keys[b_index]
                gap = abs(rates[r] - rates[s])
                error = selection_halfwidth(min(len(usable[r]), len(usable[s])), comparisons)
                if gap - error > best_lower:
                    best_lower = gap - error
                    worst_gap, worst_error = gap, error
                    witness = f"corrupted P_{i}, W_honest = {r} vs {s}"

    if not witness:
        witness = "no conditioning pair with enough mass"
    return IndependenceReport(
        definition="G",
        gap=worst_gap,
        error=worst_error,
        samples=samples,
        witness=witness,
        details={
            "corrupted": corrupted,
            "conditioning_events": len(usable),
            "distribution": distribution_name,
        },
    )
