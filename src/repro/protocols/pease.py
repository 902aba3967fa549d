"""Interactive consistency [18] as a member of the protocol zoo.

Pease, Shostak and Lamport's interactive consistency — n single-sender
Byzantine broadcasts run in parallel — *is* a parallel broadcast protocol
in the sense of Definition 3.1, and the paper's Section 3.2 points out
that neither it nor its more sophisticated descendants guarantee any
independence: all senders speak in the same round, so a rushing adversary
reads the honest round-1 values before corrupted senders commit.

Wrapping it as a :class:`ParallelBroadcastProtocol` lets the definition
estimators score it directly; the companion adversary is
:class:`repro.adversaries.copier.RushedBroadcastCopier`.
"""

from __future__ import annotations

from ..broadcast.interactive_consistency import InteractiveConsistency
from .base import DEFAULT_BIT, ParallelBroadcastProtocol, coerce_bit


class PeaseInteractiveConsistency(ParallelBroadcastProtocol):
    """Parallel broadcast via n simultaneous-start broadcast instances.

    ``primitive`` selects the single-sender substrate: "ideal" (the model's
    channel), "dolev-strong", "eig" or "phase-king", with the corresponding
    resilience bounds enforced by the inner protocol.
    """

    name = "interactive-consistency"

    def __init__(
        self,
        n: int,
        t: int,
        primitive: str = "ideal",
        security_bits: int = 24,
    ):
        super().__init__(n=n, t=t, security_bits=security_bits)
        self.primitive = primitive
        self._inner = InteractiveConsistency(
            n=n, t=t, primitive=primitive, security_bits=security_bits
        )

    def setup(self, rng):
        return self._inner.setup(rng)

    def program(self, ctx, value):
        vector = yield from self._inner.program(ctx, coerce_bit(value))
        return tuple(coerce_bit(entry, default=DEFAULT_BIT) for entry in vector)
