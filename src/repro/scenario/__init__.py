"""Declarative scenario DSL, seeded campaign fuzzer, and shrinker.

The package closes the loop between the repo's composable seams — the
protocol zoo, the FaultPlan DSL, the adversary strategies, the
per-run network timing, and the warm-started parallel engine —
by giving one *declarative* name to a full execution cell:

* :class:`Scenario` (:mod:`repro.scenario.spec`) — the validated,
  canonically serializable spec (a superset of ``examples/faultplan.json``);
* :mod:`repro.scenario.schema` — field-by-field validation for scenarios
  and standalone fault plans (the ``--faults`` CLI path);
* :mod:`repro.scenario.registry` — the string → runtime-object mappings;
* :mod:`repro.scenario.fuzz` — the pure seeded scenario generator;
* :mod:`repro.scenario.runner` — one scenario → one outcome row, with
  violation detection against conservative expected guarantees;
* :mod:`repro.scenario.shrink` — greedy deterministic minimal-
  counterexample reduction;
* :mod:`repro.scenario.campaign` — the resumable campaign driver behind
  ``python -m repro campaign``.
"""

from __future__ import annotations

from .campaign import Campaign
from .fuzz import generate_scenario
from .registry import ADVERSARIES, DISTRIBUTIONS, PROTOCOLS
from .runner import expected_guarantees, run_scenario
from .schema import (
    fault_plan_errors,
    load_fault_plan,
    scenario_errors,
    validate_fault_plan_dict,
    validate_scenario_dict,
)
from .shrink import shrink_scenario, shrink_violation
from .spec import Scenario

__all__ = [
    "ADVERSARIES",
    "Campaign",
    "DISTRIBUTIONS",
    "PROTOCOLS",
    "Scenario",
    "expected_guarantees",
    "fault_plan_errors",
    "generate_scenario",
    "load_fault_plan",
    "run_scenario",
    "scenario_errors",
    "shrink_scenario",
    "shrink_violation",
    "validate_fault_plan_dict",
    "validate_scenario_dict",
]
