"""Statistical machinery: confidence intervals and verdict thresholds.

Every independence estimator in :mod:`repro.core` reports a *gap* — an
empirical estimate of the quantity the paper requires to be negligible —
together with a Hoeffding confidence half-width.  The three-way decision
rule (:func:`decide`) is calibrated to the paper's separations, which are
all *constant-gap*: attacks force gaps ≥ 0.1 while secure protocols sit at
sampling noise, so the two thresholds never squeeze a real effect.
"""

from __future__ import annotations

import math
from enum import Enum

from ..errors import ExperimentError

DEFAULT_CONFIDENCE = 0.95
DEFAULT_TAU_LOW = 0.12
DEFAULT_TAU_HIGH = 0.12


def hoeffding_halfwidth(samples: int, confidence: float = DEFAULT_CONFIDENCE) -> float:
    """Two-sided Hoeffding bound half-width for a [0,1]-valued mean.

    P(|mean - estimate| >= eps) <= 2 exp(-2 n eps^2) = 1 - confidence.
    """
    if samples < 1:
        raise ExperimentError("need at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ExperimentError("confidence must be in (0, 1)")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))


def selection_halfwidth(
    samples: int,
    comparisons: int,
    family_error: float = 0.05,
) -> float:
    """Hoeffding half-width corrected for selecting the max of many statistics.

    Certifying that a *selected* gap exceeds a threshold is a union bound
    over the ``comparisons`` candidate statistics, so the per-test
    confidence is Bonferroni-adjusted.  This is what keeps the VIOLATED
    verdict honest when an estimator maximises over predicates, parties or
    conditioning pairs.
    """
    if comparisons < 1:
        raise ExperimentError("comparisons must be positive")
    confidence = 1.0 - family_error / comparisons
    return hoeffding_halfwidth(samples, confidence)


class Decision(Enum):
    """Outcome of testing whether a gap is "negligible"."""

    CONSISTENT = "consistent-with-negligible"
    VIOLATED = "non-negligible"
    INCONCLUSIVE = "inconclusive"


def decide(
    gap: float,
    error: float,
    tau_low: float = DEFAULT_TAU_LOW,
    tau_high: float = DEFAULT_TAU_HIGH,
) -> Decision:
    """Three-way decision on an estimated gap.

    * ``VIOLATED``   — even the pessimistic gap exceeds ``tau_high``: a
      robust non-negligibility certificate (all attacks in the paper force
      gaps ≥ 0.25, far above the default threshold);
    * ``CONSISTENT`` — the point estimate sits below ``tau_low``.  This is
      deliberately one-sided: "consistent with negligible at this sample
      size", never a proof of negligibility (which no finite experiment
      can give);
    * ``INCONCLUSIVE`` — the estimate is large but within its error bar of
      the threshold (more samples needed).
    """
    if gap < 0 or error < 0:
        raise ExperimentError("gap and error must be non-negative")
    if gap - error > tau_high:
        return Decision.VIOLATED
    if gap < tau_low:
        return Decision.CONSISTENT
    return Decision.INCONCLUSIVE


def empirical_tv(counts_a: dict, total_a: int, counts_b: dict, total_b: int) -> float:
    """TV distance between two empirical distributions given as count maps."""
    if total_a < 1 or total_b < 1:
        raise ExperimentError("both samples must be non-empty")
    support = set(counts_a) | set(counts_b)
    return 0.5 * sum(
        abs(counts_a.get(v, 0) / total_a - counts_b.get(v, 0) / total_b)
        for v in support
    )
