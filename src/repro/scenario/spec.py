"""The declarative :class:`Scenario` spec — the DSL's core value type.

A scenario names *everything* one seeded execution cell needs: a
protocol-zoo member, parameters ``(n, t, k)``, an input-distribution
class, an adversary strategy, a :class:`repro.faults.FaultPlan`, the
network timing (optional delay/omission models), a trial count, and a
seed.  It is a superset of ``examples/faultplan.json`` (the plan rides
along under the ``"faults"`` key) and a pure description: cheap to hash,
serialize, ship to pool workers, and shrink.

Entry points — the *only* supported ways to obtain a ``Scenario``:

* :meth:`Scenario.from_dict` / :meth:`Scenario.build` — validate a
  mapping / keyword set against :mod:`repro.scenario.schema`;
* :meth:`Scenario.load` — parse a JSON file and validate;
* the campaign fuzzer (:mod:`repro.scenario.fuzz`) and shrinker
  (:mod:`repro.scenario.shrink`), which construct through the above.

Direct dataclass construction skips the cross-field schema checks and is
flagged by analyzer rule SCN001 outside this package — the DSL stays the
single entry point, so "it validated" is an invariant every downstream
consumer (campaign runner, corpus, CI gates) may assume.

Canonical form: :meth:`to_dict` omits every field at its default, and
:meth:`canonical` renders sorted-key compact JSON — two scenarios are
semantically equal iff their canonical strings match, and
:meth:`scenario_id` (a short content hash) names corpus entries stably
across processes and Python versions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

from ..faults.plan import FaultPlan
from . import schema
from .registry import (
    PROTOCOLS,
    AdversarySpec,
    DistributionSpec,
    build_protocol,
    parse_adversary,
    parse_distribution,
)

#: Default per-scenario trial count — breadth over depth (see schema.MAX_TRIALS).
DEFAULT_TRIALS = 4


@dataclass(frozen=True)
class Scenario:
    """One fully specified, seedable execution cell.  See the module docstring."""

    protocol: str
    n: int = 5
    t: int = 2
    name: str = ""
    security_bits: int = 24
    sender: int = 1
    seed: int = 0
    trials: int = DEFAULT_TRIALS
    timeout_rounds: Optional[int] = None
    distribution: str = "uniform"
    adversary: str = "none"
    delay_model: str = ""
    omission: str = ""
    faults: FaultPlan = field(default_factory=FaultPlan)

    def __post_init__(self):
        # Normalization only — cross-field validation belongs to the DSL
        # entry points (from_dict/build/load), which is what rule
        # SCN001 enforces for out-of-package constructors.
        if isinstance(self.faults, dict):
            object.__setattr__(self, "faults", FaultPlan.from_dict(self.faults))

    # -- construction (the validated entry points) --------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """The canonical constructor: schema-validate, then build."""
        schema.validate_scenario_dict(data)
        kwargs = dict(data)
        if "faults" in kwargs:
            kwargs["faults"] = FaultPlan.from_dict(kwargs["faults"])
        return cls(**kwargs)

    @classmethod
    def build(cls, **kwargs: Any) -> "Scenario":
        """Keyword-argument sugar over :meth:`from_dict` (same validation)."""
        faults = kwargs.get("faults")
        if isinstance(faults, FaultPlan):
            kwargs["faults"] = faults.to_dict()
        return cls.from_dict(kwargs)

    # -- canonical serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The canonical mapping: every field at its default is omitted."""
        data: Dict[str, Any] = {"protocol": self.protocol}
        for spec_field in fields(self):
            if spec_field.name in ("protocol", "faults"):
                continue
            value = getattr(self, spec_field.name)
            default = spec_field.default
            if value != default:
                data[spec_field.name] = value
        if not self.faults.is_empty() or self.faults.seed or self.faults.name:
            data["faults"] = self.faults.to_dict()
        return data

    @classmethod
    def load(cls, path: str) -> "Scenario":
        """Load and validate a JSON scenario file."""
        data = schema.load_structured(path)
        if not isinstance(data, dict):
            raise schema.ScenarioError(
                f"{path!r}: expected a scenario mapping, got {type(data).__name__}"
            )
        return cls.from_dict(data)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    def canonical(self) -> str:
        """Sorted-key compact JSON: the scenario's equality witness."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def scenario_id(self) -> str:
        """A short, process-independent content hash (corpus file names)."""
        digest = hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()
        return digest[:12]

    # -- runtime materialization ---------------------------------------------------

    @property
    def spec_info(self):
        """The registry entry for this scenario's protocol."""
        return PROTOCOLS[self.protocol]

    def build_protocol(self) -> Any:
        """A fresh protocol instance at this scenario's parameters."""
        return build_protocol(
            self.protocol, self.n, self.t, self.security_bits, self.sender
        )

    def adversary_spec(self) -> AdversarySpec:
        return parse_adversary(self.adversary)

    def distribution_spec(self) -> DistributionSpec:
        return parse_distribution(self.distribution, self.n)

    def timeout(self) -> int:
        """The graceful deadline: explicit, or the zoo's 12n + 20 default."""
        return (
            self.timeout_rounds
            if self.timeout_rounds is not None
            else 12 * self.n + 20
        )

    def run_kwargs(self) -> Dict[str, Any]:
        """The timing keywords for :func:`repro.net.network.run_protocol`."""
        kwargs: Dict[str, Any] = {}
        if self.delay_model:
            kwargs["delay_model"] = self.delay_model
        if self.omission:
            kwargs["omission"] = self.omission
        return kwargs

    def __repr__(self) -> str:
        return (
            f"Scenario({self.protocol!r}, n={self.n}, t={self.t},"
            f" adversary={self.adversary!r},"
            f" id={self.scenario_id()})"
        )
