"""The comparison engine: evaluate any definition on any (Π, A, D) triple.

This is the measurement layer behind Figure 1: a uniform interface that
runs the right estimator for each definition and quantifies over a suite
of adversaries (taking the worst report, since every definition is ∀A).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional

from ..distributions.base import Distribution
from ..errors import ExperimentError
from .announced import HONEST, AdversaryFactory
from .cr import cr_report
from .g import g_report
from .gstar import g_star_report, g_star_star_report
from .sb import sb_report
from .verdict import IndependenceReport

DEFINITIONS = ("Sb", "CR", "G", "G*", "G**")


@dataclass(frozen=True)
class MeasurementBudget:
    """Sample sizes for the estimators (kept per-definition because the
    distribution-sampling estimators and the interventional ones consume
    protocol executions very differently)."""

    distribution_samples: int = 400
    samples_per_point: int = 60


def measure(
    definition: str,
    protocol,
    distribution: Distribution,
    adversary_factories: Mapping[str, AdversaryFactory],
    rng: random.Random,
    budget: Optional[MeasurementBudget] = None,
) -> IndependenceReport:
    """Worst-case report for one definition over a suite of adversaries.

    For the interventional definitions (Sb, G*, G**) the distribution
    enters through its support: those estimators fix input vectors drawn
    from the distribution's support set.
    """
    if budget is None:
        budget = MeasurementBudget()
    if definition not in DEFINITIONS:
        raise ExperimentError(f"unknown definition {definition!r}")
    if not adversary_factories:
        adversary_factories = {"honest": HONEST}

    worst: Optional[IndependenceReport] = None
    for label, factory in adversary_factories.items():
        if definition == "CR":
            report = cr_report(
                protocol,
                distribution,
                factory,
                samples=budget.distribution_samples,
                rng=rng,
            )
        elif definition == "G":
            report = g_report(
                protocol,
                distribution,
                factory,
                samples=budget.distribution_samples,
                rng=rng,
            )
        elif definition == "Sb":
            report = sb_report(
                protocol,
                factory,
                samples_per_point=budget.samples_per_point,
                rng=rng,
                input_vectors=distribution.support(),
            )
        elif definition == "G*":
            report = g_star_report(
                protocol,
                factory,
                samples_per_point=budget.samples_per_point,
                rng=rng,
                inputs_list=distribution.support(),
            )
        else:  # G**
            report = g_star_star_report(
                protocol,
                factory,
                samples_per_point=budget.samples_per_point,
                rng=rng,
            )
        report = IndependenceReport(
            definition=report.definition,
            gap=report.gap,
            error=report.error,
            samples=report.samples,
            witness=f"[A = {label}] {report.witness}",
            details=report.details,
        )
        if worst is None or report.gap > worst.gap:
            worst = report
    assert worst is not None
    return worst
