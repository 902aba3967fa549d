"""Minimal-counterexample shrinking for violating scenarios.

Given a scenario whose outcome row contains a conformance violation, the
shrinker searches for the *smallest* scenario that still reproduces the
violation's signature (its set of violation kinds).  The search is greedy
dimension-wise deletion: a fixed, deterministic candidate order tries the
big deletions first (drop the whole fault plan, clear the network knobs,
drop the adversary), then element-wise deletions (individual fault rules
and crashes), then parameter reductions (trials, ``n``, ``t``, seed).
The first candidate the predicate accepts becomes the new current
scenario and the pass restarts; the fixpoint — a full pass with no
accepted candidate — is the minimal repro.

Because the candidate order is fixed and :func:`repro.scenario.runner
.run_scenario` is a pure function of the scenario, shrinking is itself
deterministic: the same violating scenario reduces to the same minimal
scenario in every process, under every ``--jobs`` setting, on every
machine.  Candidates are constructed through :meth:`Scenario.from_dict`,
so an edit that would leave the schema (say, shrinking ``n`` below a
resilience bound) is skipped rather than ever executed.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..errors import ScenarioError
from .runner import run_scenario, violation_kinds
from .spec import Scenario

#: Hard bound on shrink passes — each accepted candidate strictly shrinks
#: the scenario, so real searches converge in far fewer.
MAX_PASSES = 200


def _try_build(data: Dict[str, Any], changes: Dict[str, Any]) -> Optional[Scenario]:
    """The candidate constructor: apply edits, validate, or return None."""
    candidate = copy.deepcopy(data)
    for key, value in changes.items():
        if value is None:
            candidate.pop(key, None)
        else:
            candidate[key] = value
    try:
        return Scenario.from_dict(candidate)
    except ScenarioError:
        return None


def _without_index(items: List[Any], index: int) -> List[Any]:
    return [item for position, item in enumerate(items) if position != index]


def _candidates(scenario: Scenario) -> Iterator[Optional[Scenario]]:
    """Every one-step reduction of ``scenario``, in fixed deterministic order."""
    data = scenario.to_dict()
    faults = data.get("faults") or {}
    rules = list(faults.get("rules") or [])
    crashes = list(faults.get("crashes") or [])

    # Whole-dimension deletions first: each one discharges a lot at once.
    yield _try_build(data, {"faults": None})
    yield _try_build(data, {"delay_model": None, "omission": None})
    yield _try_build(data, {"omission": None})
    yield _try_build(data, {"delay_model": None})
    yield _try_build(data, {"adversary": None})

    # Element-wise deletions inside the fault plan.
    for index in range(len(rules)):
        remaining = dict(faults)
        remaining["rules"] = _without_index(rules, index)
        if not remaining["rules"]:
            del remaining["rules"]
        yield _try_build(data, {"faults": remaining or None})
    for index in range(len(crashes)):
        remaining = dict(faults)
        remaining["crashes"] = _without_index(crashes, index)
        if not remaining["crashes"]:
            del remaining["crashes"]
        yield _try_build(data, {"faults": remaining or None})

    # Parameter reductions (strictly decreasing, or the fixpoint loop
    # would oscillate between candidates instead of converging).
    if scenario.trials > 1:
        yield _try_build(data, {"trials": 1})
    if scenario.trials > 3:
        yield _try_build(data, {"trials": 3})
    yield _try_build(data, {"distribution": None})
    if scenario.n > 2:
        # Shrinking n may force t below the resilience bound with it;
        # invalid (n-1, t') pairs fail schema validation and are skipped.
        for smaller_t in range(min(scenario.t, scenario.n - 3), -1, -1):
            yield _try_build(data, {"n": scenario.n - 1, "t": smaller_t})
    if scenario.t > 0:
        yield _try_build(data, {"t": scenario.t - 1})
    yield _try_build(data, {"sender": None})
    yield _try_build(data, {"timeout_rounds": None})
    yield _try_build(data, {"security_bits": None})
    yield _try_build(data, {"seed": None})
    yield _try_build(data, {"name": None})


def shrink_scenario(
    scenario: Scenario,
    predicate: Callable[[Scenario], bool],
    max_passes: int = MAX_PASSES,
) -> Tuple[Scenario, int]:
    """Greedily shrink ``scenario`` while ``predicate`` stays true.

    Returns ``(minimal, steps)`` where ``steps`` counts accepted
    reductions.  ``predicate(scenario)`` is assumed true on entry; the
    result is the deterministic fixpoint of the candidate order in
    :func:`_candidates`.
    """
    current = scenario
    steps = 0
    for _ in range(max_passes):
        accepted = False
        current_canonical = current.canonical()
        for candidate in _candidates(current):
            if candidate is None or candidate.canonical() == current_canonical:
                continue
            if predicate(candidate):
                current = candidate
                steps += 1
                accepted = True
                break
        if not accepted:
            break
    return current, steps


def signature_predicate(signature: FrozenSet[str]) -> Callable[[Scenario], bool]:
    """True iff a scenario still exhibits every violation kind in ``signature``."""

    def predicate(candidate: Scenario) -> bool:
        return signature <= violation_kinds(run_scenario(candidate))

    return predicate


def shrink_violation(
    scenario: Scenario, row: Optional[Dict[str, Any]] = None
) -> Tuple[Scenario, Dict[str, Any], int]:
    """Shrink a violating scenario to its minimal repro.

    ``row`` is the scenario's outcome row if already computed; the
    violation signature is taken from it.  Returns the minimal scenario,
    its outcome row, and the number of accepted shrink steps.  Raises
    :class:`ScenarioError` when the scenario has no violation to preserve.
    """
    if row is None:
        row = run_scenario(scenario)
    signature = violation_kinds(row)
    if not signature:
        raise ScenarioError(
            f"scenario {scenario.scenario_id()} has no violation to shrink"
        )
    minimal, steps = shrink_scenario(scenario, signature_predicate(signature))
    return minimal, run_scenario(minimal), steps
