"""Execute one :class:`Scenario` and judge it against expected guarantees.

:func:`run_scenario` is the campaign's unit of work: it runs every trial
of a scenario through :func:`repro.net.network.run_protocol`, detects
conformance violations, and classifies each against the *expected
guarantees* of the scenario's cell.  Everything it computes is a pure
function of the scenario (per-trial RNG streams are salted from the
scenario seed with the repo-wide ``seed * 1_000_003 + trial`` idiom), so
serial and ``--jobs N`` campaigns produce byte-identical outcome rows.

Detected violation kinds, and the guarantee each one breaches:

========== ============ ===================================================
kind       guarantee    meaning
========== ============ ===================================================
crash      termination  an exception escaped the run (incl. round bound)
timeout    termination  graceful deadline hit, or an honest party silent
disagree   agreement    honest parties split on the announced output
validity   validity     an honest, uncrashed input was not preserved
copy       independence a copier's announced value tracked its target in
                        every trial (the paper's Section 3.2 attack)
========== ============ ===================================================

Violations are *always recorded*; a scenario is only **unexpected** (the
campaign's failure signal) when it breaches a guarantee the conservative
model in :func:`expected_guarantees` says must hold.  Perturbed cells —
wire faults on non-mailbox protocols, crashes, non-degenerate event
timing, omission — are observe-only: the paper's Section 3.1 model does
not promise anything there, so the campaign measures them instead of
gating on them.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..errors import ConsistencyError
from ..net.network import run_protocol
from .spec import Scenario

#: Per-trial RNG stream mixing (the TrialPlan / FaultPlan.injector_seed idiom).
_SEED_MIX = 1_000_003

#: kind → the guarantee it breaches (the table in the module docstring).
GUARANTEE_OF = {
    "crash": "termination",
    "timeout": "termination",
    "disagree": "agreement",
    "validity": "validity",
    "copy": "independence",
}

#: Minimum trials before the cross-trial copy detector may fire — below
#: this, value equality is too likely by chance (2^-trials) to report.
MIN_COPY_TRIALS = 3

#: Delay-model specs that reproduce the paper's round exactly
#: (RushDelay(ConstantDelay(1)) is the engine's documented default).
DEGENERATE_DELAYS = ("", "constant:1", "rush:constant:1")


def net_class(scenario: Scenario) -> str:
    """The scenario's network class: one axis of its campaign cell."""
    if not scenario.delay_model and not scenario.omission:
        return "lockstep"
    if scenario.omission:
        return "event-lossy"
    if scenario.delay_model in DEGENERATE_DELAYS:
        return "event-degenerate"
    return "event-delay"


def fault_class(scenario: Scenario) -> str:
    """The scenario's fault class: the other model axis of its cell."""
    plan = scenario.faults
    if plan.rules and plan.crashes:
        return "rules+crashes"
    if plan.rules:
        return "rules"
    if plan.crashes:
        return "crashes"
    return "clean"


def cell_key(scenario: Scenario) -> str:
    """``protocol|adversary-kind|fault-class|net-class`` — the report cell."""
    adversary = scenario.adversary_spec().kind
    return "|".join(
        (scenario.protocol, adversary, fault_class(scenario), net_class(scenario))
    )


def expected_guarantees(scenario: Scenario) -> FrozenSet[str]:
    """The guarantees this cell must uphold, conservatively.

    The model only *promises* anything on the paper's own terms: a clean
    wire (no effective fault plan), degenerate timing, and a static
    adversary within the corruption threshold.  Mailbox protocols
    (``ideal-sb``, ``pi-g``) exchange values through the trusted-party
    config, so wire rules and crashes are vacuous for them (the E-FAULT
    immunity result).  Everything else is observe-only — an empty set.
    """
    spec = scenario.spec_info
    plan = scenario.faults
    wire_immune = spec.mailbox
    if not wire_immune and (plan.rules or plan.crashes):
        return frozenset()
    if scenario.omission or scenario.delay_model not in DEGENERATE_DELAYS:
        return frozenset()
    corrupted = set(scenario.adversary_spec().corrupted)
    expected = {"agreement"}
    if spec.single_sender:
        # RBC semantics: liveness and validity are promised only for an
        # honest sender; phase king's fixed round structure always ends.
        sender_honest = scenario.sender not in corrupted
        if sender_honest or scenario.protocol == "phase-king":
            expected.add("termination")
        if sender_honest:
            expected.add("validity")
    else:
        expected.add("termination")
        expected.add("validity")
    return frozenset(expected)


def _violation(kind: str, trial: int, detail: str) -> Dict[str, Any]:
    return {
        "kind": kind,
        "guarantee": GUARANTEE_OF[kind],
        "trial": trial,
        "detail": detail,
    }


def _check_single_sender(
    scenario: Scenario,
    execution: Any,
    inputs: List[int],
    trial: int,
    violations: List[Dict[str, Any]],
) -> Any:
    honest = execution.honest
    outputs = {party: execution.outputs.get(party) for party in honest}
    missing = sorted(party for party, value in outputs.items() if value is None)
    if missing:
        violations.append(
            _violation("timeout", trial, f"honest parties {missing} produced no output")
        )
        return None
    distinct = sorted({repr(value) for value in outputs.values()})
    if len(distinct) > 1:
        violations.append(
            _violation("disagree", trial, f"honest outputs split: {distinct}")
        )
        return None
    value = outputs[honest[0]]
    if scenario.sender not in execution.corrupted and value != inputs[scenario.sender - 1]:
        violations.append(
            _violation(
                "validity",
                trial,
                f"honest sender {scenario.sender} sent"
                f" {inputs[scenario.sender - 1]!r}, parties decided {value!r}",
            )
        )
    return value


def _check_parallel(
    scenario: Scenario,
    execution: Any,
    inputs: List[int],
    trial: int,
    violations: List[Dict[str, Any]],
) -> Optional[Tuple[Any, ...]]:
    try:
        announced = execution.announced_vector()
    except ConsistencyError as exc:
        violations.append(_violation("disagree", trial, str(exc)))
        return None
    crashed = set(scenario.faults.crashed_parties)
    bad = [
        party
        for party in execution.honest
        if party not in crashed and announced[party - 1] != inputs[party - 1]
    ]
    if bad:
        violations.append(
            _violation(
                "validity",
                trial,
                f"honest inputs not preserved at parties {bad}:"
                f" announced={list(announced)}, inputs={inputs}",
            )
        )
    return announced


def run_scenario(scenario: Scenario) -> Dict[str, Any]:
    """Run every trial of one scenario and return its outcome row.

    The row is plain JSON data: scenario identity, detected violations,
    the subset that breaches expected guarantees, and a digest over the
    per-trial records that witnesses cross-run determinism.
    """
    spec = scenario.spec_info
    adversary_spec = scenario.adversary_spec()
    distribution = scenario.distribution_spec()
    expected = expected_guarantees(scenario)
    plan = None if scenario.faults.is_empty() else scenario.faults

    violations: List[Dict[str, Any]] = []
    records: List[List[Any]] = []
    copy_pairs: List[Tuple[Any, Any]] = []
    pair = adversary_spec.copier_pair

    for trial in range(scenario.trials):
        trial_rng = random.Random(scenario.seed * _SEED_MIX + trial)
        inputs = distribution.sample(scenario.n, trial_rng)
        run_seed = trial_rng.getrandbits(48)
        fault_seed = trial_rng.getrandbits(48)
        protocol = scenario.build_protocol()
        adversary = adversary_spec.build(protocol)
        before = len(violations)
        value: Any = None
        try:
            execution = run_protocol(
                protocol,
                inputs,
                adversary=adversary,
                seed=run_seed,
                fault_plan=plan,
                fault_seed=fault_seed,
                timeout_rounds=scenario.timeout(),
                timeout_output=None,
                **scenario.run_kwargs(),
            )
        except ConsistencyError as exc:
            violations.append(_violation("disagree", trial, str(exc)))
        except Exception as exc:  # any escape is, by definition, a crash
            violations.append(
                _violation("crash", trial, f"{type(exc).__name__}: {exc}")
            )
        else:
            if execution.timed_out:
                violations.append(
                    _violation("timeout", trial, "graceful deadline reached")
                )
            elif spec.single_sender:
                value = _check_single_sender(
                    scenario, execution, inputs, trial, violations
                )
            else:
                value = _check_parallel(scenario, execution, inputs, trial, violations)
                if value is not None and pair is not None:
                    copy_pairs.append((value[pair[0] - 1], value[pair[1] - 1]))
        verdict = "ok" if len(violations) == before else violations[-1]["kind"]
        records.append([trial, verdict, repr(value)])

    if (
        pair is not None
        and len(copy_pairs) >= MIN_COPY_TRIALS
        and all(copier == target for copier, target in copy_pairs)
    ):
        violations.append(
            _violation(
                "copy",
                -1,
                f"party {pair[0]}'s announced value equalled party {pair[1]}'s"
                f" in all {len(copy_pairs)} trials",
            )
        )

    unexpected = [v for v in violations if v["guarantee"] in expected]
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    return {
        "id": scenario.scenario_id(),
        "cell": cell_key(scenario),
        "scenario": scenario.to_dict(),
        "trials": scenario.trials,
        "expected": sorted(expected),
        "violations": violations,
        "unexpected": unexpected,
        "verdict": "violation" if violations else "clean",
        "digest": digest,
    }


def violation_kinds(row: Dict[str, Any]) -> FrozenSet[str]:
    """The set of violation kinds in one outcome row (the shrink signature)."""
    return frozenset(v["kind"] for v in row["violations"])
