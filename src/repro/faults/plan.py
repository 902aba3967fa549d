"""Declarative fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a pure description of a fault regime — it owns no
runtime state and is cheap to serialize, hash, and ship to worker
processes.  Two fault families exist:

* **message faults** (:class:`FaultRule`) — drop, delay, duplicate, or
  corrupt honest messages matched by round, sender, receiver, and tag;
* **party faults** (:class:`CrashFault`) — crash (send-omission) a party
  from ``at_round`` until ``recover_at`` (exclusive; ``None`` = forever).

Faults model *benign* degradation of the Section 3.1 network, distinct
from the Byzantine :class:`repro.net.adversary.Adversary`: crash faults
are send omissions (the party's program keeps running and receiving, it
just stops being heard), and message faults strike honest traffic before
the rushing adversary observes it.

Broadcast-channel semantics: a rule with an explicit ``receivers`` list
never matches a broadcast message.  The model's broadcast channel delivers
to everyone or no one, so broadcast faults are all-or-nothing — dropping,
delaying, or corrupting a broadcast affects every recipient identically,
which keeps honest views consistent by construction.

Determinism: probabilistic rules draw from the
:class:`~repro.faults.injector.FaultInjector`'s RNG, which is seeded from
``plan.seed`` mixed with a per-execution salt (see
:meth:`FaultPlan.injector_seed`).  A fixed ``(plan, salt)`` pair therefore
yields a bit-identical fault pattern on every run — the property the
replay tests and the ``--jobs`` equivalence gate assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import InvalidParameterError

#: The supported message-fault kinds.
KINDS = ("drop", "delay", "duplicate", "corrupt")

#: The supported payload-corruption modes.
CORRUPT_MODES = ("garbage", "flip")

#: Multiplier mixing the plan seed with a per-execution salt (mirrors
#: :meth:`repro.experiments.common.ExperimentConfig.rng`).
_SEED_MIX = 1_000_003


def _int_tuple(values) -> Optional[Tuple[int, ...]]:
    if values is None:
        return None
    return tuple(int(v) for v in values)


def _str_tuple(values) -> Optional[Tuple[str, ...]]:
    if values is None:
        return None
    return tuple(str(v) for v in values)


@dataclass(frozen=True)
class FaultRule:
    """One declarative message-fault rule.

    ``rounds`` / ``senders`` / ``receivers`` / ``tags`` are match filters;
    ``None`` means "any".  ``probability`` gates each structural match with
    an independent draw from the injector's seeded RNG (1.0 = always).
    """

    kind: str
    rounds: Optional[Tuple[int, ...]] = None
    senders: Optional[Tuple[int, ...]] = None
    receivers: Optional[Tuple[int, ...]] = None
    tags: Optional[Tuple[str, ...]] = None
    probability: float = 1.0
    delay: int = 1
    copies: int = 1
    mode: str = "garbage"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(
                f"unknown fault kind {self.kind!r}; choose from {KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise InvalidParameterError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.kind == "delay" and self.delay < 1:
            raise InvalidParameterError("delay must be >= 1 round")
        if self.kind == "duplicate" and self.copies < 1:
            raise InvalidParameterError("duplicate needs copies >= 1")
        if self.kind == "corrupt" and self.mode not in CORRUPT_MODES:
            raise InvalidParameterError(
                f"unknown corrupt mode {self.mode!r}; choose from {CORRUPT_MODES}"
            )
        # Normalize filter containers to tuples so plans hash and pickle
        # identically however they were constructed.
        object.__setattr__(self, "rounds", _int_tuple(self.rounds))
        object.__setattr__(self, "senders", _int_tuple(self.senders))
        object.__setattr__(self, "receivers", _int_tuple(self.receivers))
        object.__setattr__(self, "tags", _str_tuple(self.tags))
        # Reset knobs the kind never reads, so two semantically identical
        # rules compare (and serialize) identically.
        if self.kind != "delay":
            object.__setattr__(self, "delay", 1)
        if self.kind != "duplicate":
            object.__setattr__(self, "copies", 1)
        if self.kind != "corrupt":
            object.__setattr__(self, "mode", "garbage")

    def matches(self, round_number: int, message) -> bool:
        """Structural match (the probability gate is the injector's job)."""
        if self.rounds is not None and round_number not in self.rounds:
            return False
        if self.senders is not None and message.sender not in self.senders:
            return False
        if self.receivers is not None:
            # Broadcast faults are all-or-nothing: targeting individual
            # receivers of a broadcast would desynchronise honest views.
            if message.is_broadcast:
                return False
            if message.recipient not in self.receivers:
                return False
        if self.tags is not None and message.tag not in self.tags:
            return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        for key in ("rounds", "senders", "receivers", "tags"):
            value = getattr(self, key)
            if value is not None:
                data[key] = list(value)
        if self.probability != 1.0:
            data["probability"] = self.probability
        if self.kind == "delay":
            data["delay"] = self.delay
        if self.kind == "duplicate":
            data["copies"] = self.copies
        if self.kind == "corrupt":
            data["mode"] = self.mode
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRule":
        return cls(
            kind=data["kind"],
            rounds=data.get("rounds"),
            senders=data.get("senders"),
            receivers=data.get("receivers"),
            tags=data.get("tags"),
            probability=float(data.get("probability", 1.0)),
            delay=int(data.get("delay", 1)),
            copies=int(data.get("copies", 1)),
            mode=data.get("mode", "garbage"),
        )


@dataclass(frozen=True)
class CrashFault:
    """Send-omission crash: the party goes silent in ``[at_round, recover_at)``.

    ``recover_at=None`` means the party never recovers.  The party's
    program keeps running and receiving (so it still produces an output);
    only its outbound messages are suppressed — the standard benign-crash
    approximation in a synchronous round model.
    """

    party: int
    at_round: int = 1
    recover_at: Optional[int] = None

    def __post_init__(self):
        if self.party < 1:
            raise InvalidParameterError("crash fault party ids are 1-based")
        if self.at_round < 1:
            raise InvalidParameterError("crash at_round must be >= 1")
        if self.recover_at is not None and self.recover_at <= self.at_round:
            raise InvalidParameterError("recover_at must be after at_round")

    def active(self, round_number: int) -> bool:
        if round_number < self.at_round:
            return False
        return self.recover_at is None or round_number < self.recover_at

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"party": self.party, "at_round": self.at_round}
        if self.recover_at is not None:
            data["recover_at"] = self.recover_at
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CrashFault":
        return cls(
            party=int(data["party"]),
            at_round=int(data.get("at_round", 1)),
            recover_at=data.get("recover_at"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seedable fault regime: message rules plus crash faults."""

    rules: Tuple[FaultRule, ...] = ()
    crashes: Tuple[CrashFault, ...] = ()
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    def is_empty(self) -> bool:
        return not self.rules and not self.crashes

    @property
    def crashed_parties(self) -> Tuple[int, ...]:
        return tuple(sorted({crash.party for crash in self.crashes}))

    def injector_seed(self, salt: int = 0) -> int:
        """The effective RNG seed for one execution's injector.

        Salting mirrors the per-trial RNG streams of
        :class:`repro.experiments.common.TrialPlan`: every trial passes its
        own salt, so a sharded parallel sweep injects exactly the faults a
        serial sweep would, shard partition notwithstanding.
        """
        return self.seed * _SEED_MIX + salt

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self.name:
            data["name"] = self.name
        if self.seed:
            data["seed"] = self.seed
        if self.rules:
            data["rules"] = [rule.to_dict() for rule in self.rules]
        if self.crashes:
            data["crashes"] = [crash.to_dict() for crash in self.crashes]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(
            rules=tuple(FaultRule.from_dict(r) for r in data.get("rules", ())),
            crashes=tuple(CrashFault.from_dict(c) for c in data.get("crashes", ())),
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "")),
        )
