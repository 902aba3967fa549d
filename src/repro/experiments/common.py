"""Shared infrastructure for the reproduction experiments.

Every experiment is a function ``run(config) -> ExperimentResult``; the
result carries a rendered table (what the harness prints), structured
data (what the benchmarks assert on), and a ``passed`` flag meaning "the
measured behaviour matches the paper's claim".
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

from ..adversaries import (
    InputSubstitution,
    PassiveAdversary,
    SequentialCopier,
    XorAttacker,
)
from ..protocols import PiGBroadcast, SequentialBroadcast
from ..scenario.registry import build_protocol


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment.

    ``scale`` shrinks all sample counts uniformly — the benchmarks run at
    scale << 1, the EXPERIMENTS.md numbers at scale = 1.
    """

    n: int = 5
    t: int = 2
    security_bits: int = 24
    security_levels: tuple = (16, 24, 32)
    seed: int = 20050717  # PODC'05 started July 17, 2005.
    scale: float = 1.0
    fault_plan: Any = None
    """An extra :class:`repro.faults.FaultPlan` (from ``--faults PLAN.json``)
    swept by E-FAULT alongside the standard library — measured, never gated."""

    def rng(self, salt: int = 0) -> random.Random:
        return random.Random(self.seed * 1_000_003 + salt)

    def samples(self, base: int, floor: int = 10) -> int:
        return max(floor, int(base * self.scale))


def stable_salt(*parts: Any) -> int:
    """A 16-bit RNG salt derived deterministically from labels.

    Experiments that salt per-(protocol, distribution) cell used to call
    builtin ``hash(...)`` here, which is ``PYTHONHASHSEED``-salted for
    strings — the same invocation on a fresh interpreter drew *different*
    RNG streams, so artifacts could never be replayed across processes
    (analyzer rule DET005).  ``zlib.crc32`` is process-independent.
    """
    text = "\x1f".join(str(part) for part in parts)
    return zlib.crc32(text.encode("utf-8")) & 0xFFFF


# -- deterministic trial sharding ---------------------------------------------------
#
# Salt layout: legacy experiment salts are small integers (every call site
# uses a value < 2**16), while per-trial salts are ``(plan_salt << 32) | trial``
# with ``plan_salt >= 1`` — so the two namespaces can never collide, and two
# plans with different salts can never share a trial stream.

TRIAL_SALT_SHIFT = 32


@dataclass(frozen=True)
class TrialShard:
    """A contiguous slice ``[start, stop)`` of a :class:`TrialPlan`'s trials."""

    plan_salt: int
    start: int
    stop: int

    @property
    def count(self) -> int:
        return self.stop - self.start

    def trials(self) -> range:
        return range(self.start, self.stop)

    def rng(self, config: "ExperimentConfig", trial: int) -> random.Random:
        """The per-trial RNG, computable inside a worker from the shard alone."""
        if not self.start <= trial < self.stop:
            raise IndexError(f"trial {trial} outside shard [{self.start}, {self.stop})")
        return config.rng((self.plan_salt << TRIAL_SALT_SHIFT) | trial)


#: Default fixed shard count per plan — enough to balance an 8-way pool.
DEFAULT_PLAN_PARTS = 8


@dataclass(frozen=True)
class TrialPlan:
    """A fixed batch of independent Monte-Carlo trials with per-trial RNG salts.

    The plan is the unit of determinism for :mod:`repro.parallel`.  Two
    properties make any run bit-identical at any worker count:

    * every trial draws *only* from its own salted RNG
      (``plan.rng(config, trial)``), so no trial can observe another
      trial's stream;
    * the shard partition is **fixed** (``parts``, not the worker count) —
      workers only affect *where* a shard executes, never the shard
      structure, so even per-shard setup work (protocol construction,
      cached field tables) is charged identically in serial and parallel
      runs.
    """

    salt: int
    total: int
    name: str = ""
    parts: int = DEFAULT_PLAN_PARTS

    def __post_init__(self) -> None:
        if self.salt < 1:
            raise ValueError("plan salt must be >= 1 (0 is the legacy default salt)")
        if self.total < 0:
            raise ValueError("trial count must be non-negative")
        if self.parts < 1:
            raise ValueError("plans need at least one part")

    def trial_salt(self, trial: int) -> int:
        if not 0 <= trial < self.total:
            raise IndexError(f"trial {trial} outside plan of {self.total}")
        return (self.salt << TRIAL_SALT_SHIFT) | trial

    def rng(self, config: "ExperimentConfig", trial: int) -> random.Random:
        """The RNG owned exclusively by one trial of this plan."""
        return config.rng(self.trial_salt(trial))

    def shards(self) -> List[TrialShard]:
        """The fixed partition: ``min(parts, total)`` contiguous, balanced shards.

        The partition is exact — shards are disjoint, ordered, and cover
        ``range(total)``; sizes differ by at most one — and depends only on
        the plan, never on how many workers will execute it.
        """
        parts = min(self.parts, self.total) if self.total else 0
        shards = []
        cursor = 0
        for index in range(parts):
            size = self.total // parts + (1 if index < self.total % parts else 0)
            shards.append(TrialShard(self.salt, cursor, cursor + size))
            cursor += size
        return shards

    def trials(self) -> Iterator[int]:
        return iter(range(self.total))


@dataclass
class ExperimentResult:
    experiment_id: str
    title: str
    table: str
    data: Dict[str, Any] = field(default_factory=dict)
    passed: bool = True
    notes: List[str] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    """Measured cost of producing this result (counters/histograms/wall time).

    Populated automatically by :func:`repro.experiments.registry.run_experiment`
    from the :mod:`repro.obs` layer; experiments that take their own
    measurements (e.g. E-COST) may add structured entries of their own.
    """

    def render(self) -> str:
        status = "PASS" if self.passed else "MISMATCH"
        lines = [f"[{self.experiment_id}] {self.title} — {status}", "", self.table]
        if self.notes:
            lines.append("")
            lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON-safe dump of the full result (for ``--json`` artifacts)."""
        from ..obs import jsonable

        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "passed": self.passed,
            "table": self.table,
            "notes": list(self.notes),
            "data": jsonable(self.data),
            "metrics": jsonable(self.metrics),
        }


# -- protocol & adversary shorthands used across experiments ------------------------


def standard_protocols(config: ExperimentConfig) -> Dict[str, Any]:
    """The protocol zoo at the experiment's parameters, built from the
    scenario registry (:data:`repro.scenario.registry.PROTOCOLS`)."""
    n, t, k = config.n, config.t, config.security_bits
    keys = ("sequential", "ideal-sb", "cgma", "chor-rabin", "gennaro", "pi-g")
    return {key: build_protocol(key, n, t, k, sender=1) for key in keys}


def copier_factory(protocol: SequentialBroadcast):
    """The Section 3.2 echo adversary for the sequential baseline."""
    return lambda: SequentialCopier(copier=protocol.n, target=1)


def xor_factory(protocol: PiGBroadcast):
    """A* of Claim 6.6 (corrupts the first two parties)."""
    return lambda: XorAttacker(protocol, corrupted_pair=[1, 2])


def passive_factory(corrupted):
    return lambda: PassiveAdversary(corrupted=list(corrupted))


def substitution_factory(protocol, corrupted, value=0):
    return lambda: InputSubstitution(protocol, corrupted=list(corrupted), substitution=value)


def decision_mark(report) -> str:
    """Short table cell for a report's decision."""
    from ..analysis import Decision

    return {
        Decision.CONSISTENT: "ok",
        Decision.VIOLATED: "VIOLATED",
        Decision.INCONCLUSIVE: "??",
    }[report.decision]
