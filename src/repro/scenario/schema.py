"""Schema validation for the declarative scenario DSL (ROADMAP item 4).

A scenario (and its embedded fault plan) travels as a plain JSON
mapping; this module is the single place that decides whether such a
mapping is well-formed *before* any runtime object is built from it.
Validation is hand-rolled rather than delegated to ``jsonschema`` so the
package stays dependency-free and the error messages can name the exact
field and constraint that failed — the property the ``--faults`` CLI path
and the campaign fuzzer both rely on (malformed plans used to die deep
inside :class:`repro.faults.injector.FaultInjector` with a stack trace
instead of a diagnosis).

Two surfaces:

* :func:`validate_fault_plan_dict` / :func:`load_fault_plan` — the
  ``examples/faultplan.json`` shape (also embedded in scenarios under the
  ``"faults"`` key);
* :func:`validate_scenario_dict` — the full :class:`repro.scenario.Scenario`
  shape, including the cross-field constraints (protocol resilience
  bounds, adversary applicability, network-timing specs).

Every validator collects *all* problems and raises one
:class:`repro.errors.ScenarioError` whose message lists them, one per
line, as ``<field>: <what is wrong>``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..errors import InvalidParameterError, ScenarioError
from ..faults.plan import CORRUPT_MODES, KINDS, FaultPlan

#: Keys a fault-plan mapping may carry.
FAULT_PLAN_KEYS = ("name", "seed", "rules", "crashes")

#: Keys a fault-rule mapping may carry.
FAULT_RULE_KEYS = (
    "kind", "rounds", "senders", "receivers", "tags",
    "probability", "delay", "copies", "mode",
)

#: Keys a crash-fault mapping may carry.
CRASH_KEYS = ("party", "at_round", "recover_at")

#: Keys a scenario mapping may carry (the DSL surface).
SCENARIO_KEYS = (
    "name", "protocol", "n", "t", "security_bits", "sender", "seed",
    "trials", "timeout_rounds", "distribution", "adversary",
    "delay_model", "omission", "faults",
)

#: Upper bound on per-scenario trials — campaigns get breadth from many
#: scenarios, not depth from any single one.
MAX_TRIALS = 64


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(
    errors: List[str],
    field: str,
    value: Any,
    minimum: Optional[int] = None,
    maximum: Optional[int] = None,
) -> Optional[int]:
    if not _is_int(value):
        errors.append(f"{field}: expected an integer, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        errors.append(f"{field}: must be >= {minimum}, got {value}")
        return None
    if maximum is not None and value > maximum:
        errors.append(f"{field}: must be <= {maximum}, got {value}")
        return None
    return value


def _check_int_list(errors: List[str], field: str, value: Any) -> None:
    if not isinstance(value, (list, tuple)):
        errors.append(f"{field}: expected a list of integers, got {value!r}")
        return
    for index, item in enumerate(value):
        if not _is_int(item):
            errors.append(f"{field}[{index}]: expected an integer, got {item!r}")


def _check_unknown_keys(
    errors: List[str], field: str, data: Dict[str, Any], known: tuple
) -> None:
    for key in sorted(set(data) - set(known)):
        errors.append(f"{field}.{key}: unknown key (known keys: {', '.join(known)})")


# -- fault plans --------------------------------------------------------------------


def _validate_rule(errors: List[str], field: str, data: Any) -> None:
    if not isinstance(data, dict):
        errors.append(f"{field}: expected a mapping, got {data!r}")
        return
    _check_unknown_keys(errors, field, data, FAULT_RULE_KEYS)
    kind = data.get("kind")
    if kind not in KINDS:
        errors.append(
            f"{field}.kind: expected one of {list(KINDS)}, got {kind!r}"
        )
    for key in ("rounds", "senders", "receivers"):
        if key in data:
            _check_int_list(errors, f"{field}.{key}", data[key])
    if "tags" in data and not (
        isinstance(data["tags"], (list, tuple))
        and all(isinstance(tag, str) for tag in data["tags"])
    ):
        errors.append(f"{field}.tags: expected a list of strings, got {data['tags']!r}")
    probability = data.get("probability", 1.0)
    if not isinstance(probability, (int, float)) or isinstance(probability, bool) or not (
        0.0 <= probability <= 1.0
    ):
        errors.append(
            f"{field}.probability: expected a number in [0, 1], got {probability!r}"
        )
    if kind == "delay":
        _check_int(errors, f"{field}.delay", data.get("delay", 1), minimum=1)
    if kind == "duplicate":
        _check_int(errors, f"{field}.copies", data.get("copies", 1), minimum=1)
    if kind == "corrupt" and data.get("mode", "garbage") not in CORRUPT_MODES:
        errors.append(
            f"{field}.mode: expected one of {list(CORRUPT_MODES)},"
            f" got {data.get('mode')!r}"
        )


def _validate_crash(errors: List[str], field: str, data: Any) -> None:
    if not isinstance(data, dict):
        errors.append(f"{field}: expected a mapping, got {data!r}")
        return
    _check_unknown_keys(errors, field, data, CRASH_KEYS)
    if "party" not in data:
        errors.append(f"{field}.party: required (1-based party id)")
    else:
        _check_int(errors, f"{field}.party", data["party"], minimum=1)
    at_round = _check_int(errors, f"{field}.at_round", data.get("at_round", 1), minimum=1)
    recover = data.get("recover_at")
    if recover is not None:
        recover = _check_int(errors, f"{field}.recover_at", recover, minimum=2)
        if recover is not None and at_round is not None and recover <= at_round:
            errors.append(
                f"{field}.recover_at: must be after at_round"
                f" ({recover} <= {at_round})"
            )


def fault_plan_errors(data: Any, field: str = "faults") -> List[str]:
    """All schema problems of a fault-plan mapping (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(data, dict):
        return [f"{field}: expected a mapping, got {type(data).__name__}"]
    _check_unknown_keys(errors, field, data, FAULT_PLAN_KEYS)
    if "name" in data and not isinstance(data["name"], str):
        errors.append(f"{field}.name: expected a string, got {data['name']!r}")
    if "seed" in data:
        _check_int(errors, f"{field}.seed", data["seed"], minimum=0)
    for key, validator in (("rules", _validate_rule), ("crashes", _validate_crash)):
        if key not in data:
            continue
        if not isinstance(data[key], list):
            errors.append(f"{field}.{key}: expected a list, got {data[key]!r}")
            continue
        for index, item in enumerate(data[key]):
            validator(errors, f"{field}.{key}[{index}]", item)
    return errors


def validate_fault_plan_dict(data: Any, field: str = "faults") -> Dict[str, Any]:
    """Validate a fault-plan mapping, raising :class:`ScenarioError` on problems."""
    errors = fault_plan_errors(data, field=field)
    if errors:
        raise ScenarioError(
            "invalid fault plan:\n  " + "\n  ".join(errors)
        )
    return data


def load_fault_plan(path: str) -> FaultPlan:
    """Load and schema-validate a JSON fault-plan file.

    This is the ``--faults`` CLI entry point: a malformed plan fails here
    with a field-by-field diagnosis instead of deep inside the injector.
    """
    data = load_structured(path)
    validate_fault_plan_dict(data, field="plan")
    return FaultPlan.from_dict(data)


# -- structured file loading --------------------------------------------------------


def load_structured(path: str) -> Any:
    """Parse a JSON file into plain data, with readable errors."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path!r}: {exc}") from None
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ScenarioError(f"{path!r} is not valid JSON: {exc}") from None


# -- scenarios ----------------------------------------------------------------------


def scenario_errors(data: Any) -> List[str]:
    """All schema problems of a scenario mapping (empty list = valid).

    Field checks first, then the cross-field constraints that need the
    registry (protocol resilience bounds, adversary applicability,
    fault-plan party ranges).
    """
    # Imported here: the registry imports protocol/runtime modules, which
    # must not load just to import this module's fault-plan validators.
    from .registry import (
        ADVERSARIES,
        PROTOCOLS,
        parse_adversary,
        parse_distribution,
    )
    from ..net.runtime import delay_model_from_spec, omission_from_spec

    errors: List[str] = []
    if not isinstance(data, dict):
        return [f"scenario: expected a mapping, got {type(data).__name__}"]
    _check_unknown_keys(errors, "scenario", data, SCENARIO_KEYS)

    if "name" in data and not isinstance(data["name"], str):
        errors.append(f"scenario.name: expected a string, got {data['name']!r}")

    protocol = data.get("protocol")
    spec = None
    if not isinstance(protocol, str) or protocol not in PROTOCOLS:
        errors.append(
            f"scenario.protocol: expected one of {sorted(PROTOCOLS)},"
            f" got {protocol!r}"
        )
    else:
        spec = PROTOCOLS[protocol]

    # Defaults here must mirror the Scenario dataclass defaults exactly,
    # or a canonical to_dict() round trip could validate differently.
    n = _check_int(errors, "scenario.n", data.get("n", 5), minimum=2)
    t = _check_int(errors, "scenario.t", data.get("t", 2), minimum=0)
    if n is not None and t is not None:
        if t >= n:
            errors.append(f"scenario.t: must be < n, got t={t}, n={n}")
        elif spec is not None:
            problem = spec.check_resilience(n, t)
            if problem:
                errors.append(f"scenario.protocol: {problem}")
    _check_int(errors, "scenario.security_bits", data.get("security_bits", 24), minimum=8)
    _check_int(errors, "scenario.seed", data.get("seed", 0), minimum=0)
    _check_int(errors, "scenario.trials", data.get("trials", 4), minimum=1, maximum=MAX_TRIALS)
    if data.get("timeout_rounds") is not None:
        _check_int(errors, "scenario.timeout_rounds", data["timeout_rounds"], minimum=1)

    sender = data.get("sender", 1)
    sender = _check_int(errors, "scenario.sender", sender, minimum=1)
    if spec is not None and n is not None and sender is not None:
        if spec.single_sender and sender > n:
            errors.append(f"scenario.sender: {sender} out of range for n={n}")
        if not spec.single_sender and "sender" in data:
            errors.append(
                f"scenario.sender: protocol {protocol!r} has no designated"
                " sender (parallel broadcast)"
            )

    distribution = data.get("distribution", "uniform")
    if not isinstance(distribution, str):
        errors.append(
            f"scenario.distribution: expected a spec string, got {distribution!r}"
        )
    elif n is not None:
        try:
            parse_distribution(distribution, n)
        except (ScenarioError, InvalidParameterError, ValueError) as exc:
            errors.append(f"scenario.distribution: {exc}")

    adversary = data.get("adversary", "none")
    if not isinstance(adversary, str):
        errors.append(f"scenario.adversary: expected a spec string, got {adversary!r}")
    elif n is not None and t is not None and spec is not None:
        try:
            parsed = parse_adversary(adversary)
            problem = parsed.check(protocol, n, t)
            if problem:
                errors.append(f"scenario.adversary: {problem}")
        except (ScenarioError, InvalidParameterError, ValueError) as exc:
            errors.append(f"scenario.adversary: {exc}")
    elif adversary.split(":", 1)[0] not in ADVERSARIES:
        errors.append(
            f"scenario.adversary: unknown kind {adversary.split(':', 1)[0]!r};"
            f" known: {sorted(ADVERSARIES)}"
        )

    for key, parser in (("delay_model", delay_model_from_spec), ("omission", omission_from_spec)):
        value = data.get(key, "")
        if not value:
            continue
        try:
            parser(value)
        except InvalidParameterError as exc:
            errors.append(f"scenario.{key}: {exc}")

    faults = data.get("faults", {})
    errors.extend(fault_plan_errors(faults, field="scenario.faults"))
    if isinstance(faults, dict) and n is not None:
        for index, crash in enumerate(faults.get("crashes", []) or []):
            if isinstance(crash, dict) and _is_int(crash.get("party")) and crash["party"] > n:
                errors.append(
                    f"scenario.faults.crashes[{index}].party:"
                    f" {crash['party']} out of range for n={n}"
                )
    return errors


def validate_scenario_dict(data: Any) -> Dict[str, Any]:
    """Validate a scenario mapping, raising :class:`ScenarioError` on problems."""
    errors = scenario_errors(data)
    if errors:
        raise ScenarioError("invalid scenario:\n  " + "\n  ".join(errors))
    return data
