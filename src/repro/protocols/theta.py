"""Protocol Θ: a secure implementation of the function g (Claim 6.5).

Lemma 6.4's flawed protocol Π_G delegates all communication to a
sub-protocol Θ that securely computes ``g``.  Claim 6.5 notes such a Θ
exists by standard techniques for t < n/2; we provide two backends:

* ``"ideal"`` — the ideal process itself (a trusted party evaluating g),
* ``"bgw"``   — real secret-shared evaluation of the compiled g circuit
  over the simulated network (:mod:`repro.mpc.bgw`).

Party inputs are pairs ``(x_i, b_i)``; the output is the public vector w.
"""

from __future__ import annotations

import random
from typing import Tuple

from ..errors import InvalidParameterError
from ..mpc.bgw import bgw_evaluate
from ..mpc.gfunc import GFunctionality, build_g_circuit
from ..mpc.ideal import TrustedPartyMailbox
from .base import ParallelBroadcastProtocol, coerce_bit

BACKENDS = ("ideal", "bgw")


class ThetaProtocol(ParallelBroadcastProtocol):
    """Runnable Θ: each party's input is the pair (x_i, b_i)."""

    name = "theta"

    def __init__(self, n: int, t: int, backend: str = "ideal", security_bits: int = 24):
        super().__init__(n=n, t=t, security_bits=security_bits)
        if backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown Theta backend {backend!r}; choose from {BACKENDS}"
            )
        if backend == "bgw" and 2 * t >= n:
            raise InvalidParameterError("the BGW backend requires t < n/2")
        self.backend = backend
        self._circuit = build_g_circuit(n) if backend == "bgw" else None
        self._functionality = GFunctionality(n)

    def setup(self, rng):
        if self.backend == "ideal":
            return {
                "mailbox": TrustedPartyMailbox(
                    self._functionality, random.Random(rng.getrandbits(64))
                )
            }
        return None

    @staticmethod
    def _coerce_pair(value) -> Tuple[int, int]:
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return (coerce_bit(value[0]), coerce_bit(value[1]))
        return (coerce_bit(value), 0)

    def program(self, ctx, value):
        pair = self._coerce_pair(value)
        if self.backend == "ideal":
            mailbox: TrustedPartyMailbox = ctx.config["mailbox"]
            mailbox.submit(ctx.party_id, pair)
            yield []
            w = mailbox.result(ctx.party_id)
            return tuple(coerce_bit(v) for v in w)
        outputs = yield from bgw_evaluate(
            ctx,
            self._circuit,
            {"x": pair[0], "b": pair[1], "rho": ctx.rng.randrange(2)},
            self.t,
            instance="theta",
        )
        return tuple(coerce_bit(v) for v in outputs)
