"""Π_G — the deliberately flawed protocol of Lemma 6.4.

On private input ``x_i``, each honest party sets its auxiliary bit
``b_i = 0`` and calls the secure sub-protocol Θ on ``(x_i, b_i)``; the
vector returned by Θ is the protocol output.  Honest executions therefore
announce exactly the inputs (Θ computes g, and g is the identity unless
exactly two auxiliary bits are raised).

The flaw is reachable only by the "controlled misbehaviour" the paper
describes: two corrupted parties raising ``b_i = 1``
(:class:`repro.adversaries.xor_attacker.XorAttacker`).  Then g rigs their
two coordinates to ``r`` and ``r ⊕ y``, making every single corrupted
output uniform (G-Independence survives) while forcing ``⊕_i W_i = 0``
(CR-Independence dies — Claim 6.6).
"""

from __future__ import annotations

from .base import ParallelBroadcastProtocol, coerce_bit
from .theta import ThetaProtocol


class PiGBroadcast(ParallelBroadcastProtocol):
    """Π_G over a pluggable Θ backend ("ideal" or "bgw")."""

    name = "pi-g"

    def __init__(self, n: int, t: int, backend: str = "ideal", security_bits: int = 24):
        super().__init__(n=n, t=t, security_bits=security_bits)
        self.backend = backend
        self._theta = ThetaProtocol(
            n=n, t=t, backend=backend, security_bits=security_bits
        )

    def setup(self, rng):
        return self._theta.setup(rng)

    def program(self, ctx, value):
        result = yield from self._theta.program(
            ctx, (coerce_bit(value), 0)
        )
        return result

    def raised_program(self, ctx, value):
        """The A* deviation: participate honestly but with b = 1.

        Handed to a :class:`repro.net.adversary.ProgramAdversary` for the
        corrupted parties; everything else about the execution is honest.
        """
        result = yield from self._theta.program(
            ctx, (coerce_bit(value), 1)
        )
        return result
