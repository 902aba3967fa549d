"""Parallel broadcast protocols: common API and conventions (Section 3.2).

A *parallel broadcast protocol* lets all n parties broadcast a bit at
once; each honest party outputs an n-vector ``B_i`` satisfying

* **consistency** — all honest output vectors agree, and
* **correctness** — honest positions carry the party's actual input.

Every protocol class in this package exposes:

* ``n`` — party count; ``t`` — tolerated corruptions;
* ``name`` — short identifier used by the experiment harness;
* ``setup(rng)`` — per-execution public configuration (group, CRS, PKI);
* ``program(ctx, input_bit)`` — the honest party program.

Inputs are bits (the paper fixes broadcast messages to bits for
simplicity); invalid contributions are announced as the default 0
(footnote 2 of the paper).
"""

from __future__ import annotations

import random
from typing import Any, Optional, Sequence, Tuple

from ..errors import InvalidParameterError
from ..net.adversary import Adversary
from ..net.network import run_protocol
from ..net.transcript import Execution

DEFAULT_BIT = 0
DEFAULT_SECURITY_BITS = 24


def coerce_bit(value: Any, default: int = DEFAULT_BIT) -> int:
    """Map an arbitrary payload to a bit, defaulting on garbage."""
    if value is True:
        return 1
    if value is False:
        return 0
    if isinstance(value, int) and value in (0, 1):
        return value
    return default


class ParallelBroadcastProtocol:
    """Base class for the protocol zoo."""

    name = "abstract"

    def __init__(self, n: int, t: int, security_bits: int = DEFAULT_SECURITY_BITS):
        if n < 2:
            raise InvalidParameterError("parallel broadcast needs at least 2 parties")
        if not 0 <= t < n:
            raise InvalidParameterError(f"t must be in [0, n), got t={t}, n={n}")
        self.n = n
        self.t = t
        self.security_bits = security_bits

    def setup(self, rng) -> Any:
        return None

    def program(self, ctx, value):
        raise NotImplementedError

    # -- convenience ------------------------------------------------------------

    def run(
        self,
        inputs: Sequence[int],
        adversary: Optional[Adversary] = None,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
        fault_plan: Any = None,
        fault_seed: Optional[int] = None,
        timeout_rounds: Optional[int] = None,
        delay_model: Any = None,
        omission: Any = None,
    ) -> Execution:
        """Run once; under ``timeout_rounds`` parties that miss the deadline
        announce the paper's default bit vector instead of aborting."""
        timeout_output = (
            tuple([DEFAULT_BIT] * self.n) if timeout_rounds is not None else None
        )
        return run_protocol(
            self,
            list(inputs),
            adversary=adversary,
            rng=rng,
            seed=seed,
            fault_plan=fault_plan,
            fault_seed=fault_seed,
            timeout_rounds=timeout_rounds,
            timeout_output=timeout_output,
            delay_model=delay_model,
            omission=omission,
        )

    def announced(
        self,
        inputs: Sequence[int],
        adversary: Optional[Adversary] = None,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
        fault_plan: Any = None,
        fault_seed: Optional[int] = None,
        timeout_rounds: Optional[int] = None,
        delay_model: Any = None,
        omission: Any = None,
    ) -> Tuple[int, ...]:
        """Announced^Π_A(x): run once and extract the announced vector."""
        execution = self.run(
            inputs,
            adversary=adversary,
            rng=rng,
            seed=seed,
            fault_plan=fault_plan,
            fault_seed=fault_seed,
            timeout_rounds=timeout_rounds,
            delay_model=delay_model,
            omission=omission,
        )
        return tuple(
            coerce_bit(w) for w in execution.announced_vector(default=DEFAULT_BIT)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, t={self.t}, k={self.security_bits})"
