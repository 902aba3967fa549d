"""Result types shared by the independence estimators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from ..analysis.stats import Decision, decide


@dataclass(frozen=True)
class IndependenceReport:
    """Outcome of testing one definition on one (protocol, adversary, D) triple.

    Attributes:
        definition: "CR", "G", "G*", "G**" or "Sb".
        gap: the estimated defining quantity at the witness (paper-speak:
            the amount by which negligibility fails).
        error: confidence half-width attached to ``gap``.
        samples: total protocol executions consumed.
        witness: human-readable description of the arg-max (which party,
            predicate, conditioning event, ... achieved the gap).
        details: estimator-specific extras.
    """

    definition: str
    gap: float
    error: float
    samples: int
    witness: str = ""
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def decision(self) -> Decision:
        return decide(self.gap, self.error)

    @property
    def violated(self) -> bool:
        return self.decision == Decision.VIOLATED

    def summary(self) -> str:
        return (
            f"{self.definition}: gap={self.gap:.4f}±{self.error:.4f} "
            f"({self.decision.value})"
            + (f" witness: {self.witness}" if self.witness else "")
        )
