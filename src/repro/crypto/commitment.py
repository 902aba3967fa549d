"""Commitment schemes: hash-based, Pedersen, and trapdoor (equivocable).

Three schemes with one interface, because the simultaneous-broadcast
protocols differ in which flavour they need:

* :class:`HashCommitment` — computationally hiding and binding in the
  random-oracle model; what the Chor--Rabin-style protocol uses.
* :class:`PedersenCommitment` — perfectly hiding, computationally binding
  under discrete log; used by Pedersen VSS.
* :class:`TrapdoorCommitment` — a Pedersen commitment whose setup exposes
  the trapdoor ``log_g(h)``; the simulator for the Gennaro-style CRS
  protocol uses the trapdoor to equivocate.

A commitment is a pair (commit message, opening); ``verify`` checks an
opening against a commit message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from .. import fastpath
from ..errors import CommitmentError, InvalidParameterError
from ..obs import runtime as _obs
from .group import GroupElement, SchnorrGroup
from .prg import random_oracle

NONCE_BYTES = 32

#: Minimum batch size before the RLC batch-verification path kicks in.
BATCH_MIN_OPENINGS = 3


@dataclass(frozen=True)
class Opening:
    """The de-commitment data: the committed value and the randomness."""

    value: Any
    randomness: Any


class HashCommitment:
    """Random-oracle commitment: C = H(tag, value, nonce)."""

    def __init__(self, tag: str = "hash-commit"):
        self.tag = tag

    def commit(self, value: Any, rng) -> Tuple[bytes, Opening]:
        nonce = bytes(rng.getrandbits(8) for _ in range(NONCE_BYTES))
        commitment = random_oracle(self.tag, value, nonce)
        return commitment, Opening(value, nonce)

    def verify(self, commitment: bytes, opening: Opening) -> bool:
        expected = random_oracle(self.tag, opening.value, opening.randomness)
        return expected == commitment

    def check(self, commitment: bytes, opening: Opening) -> Any:
        """Verify and return the committed value, raising on mismatch."""
        if not self.verify(commitment, opening):
            raise CommitmentError("hash commitment failed to verify")
        return opening.value


@dataclass(frozen=True)
class PedersenParameters:
    """Public parameters (group, g, h) with log_g(h) unknown."""

    group: SchnorrGroup
    g: GroupElement
    h: GroupElement

    @classmethod
    def generate(cls, group: SchnorrGroup, seed: bytes = b"pedersen") -> "PedersenParameters":
        return cls(group=group, g=group.generator, h=group.hash_to_element(seed))


class PedersenCommitment:
    """Pedersen commitment C = g^m * h^r over a Schnorr group."""

    def __init__(self, parameters: PedersenParameters):
        self.parameters = parameters

    @property
    def group(self) -> SchnorrGroup:
        return self.parameters.group

    def commit(self, value: int, rng) -> Tuple[GroupElement, Opening]:
        message = int(value) % self.group.q
        randomness = self.group.random_exponent(rng)
        return self.commit_with_randomness(message, randomness), Opening(message, randomness)

    def commit_with_randomness(self, value: int, randomness: int) -> GroupElement:
        """``g**value * h**randomness`` via the fixed-base tables for g and h.

        Charged at its logical cost: two exponentiations and one
        multiplication.
        """
        params = self.parameters
        group = self.group
        if _obs.metrics is not None:
            _obs.metrics.inc("crypto.group.exp", 2)
            _obs.metrics.inc("crypto.group.mul")
        return GroupElement(
            group,
            fastpath.pedersen_commit(
                group.p,
                group.q,
                params.g.value,
                params.h.value,
                group.normalize_exponent(value),
                group.normalize_exponent(randomness),
            ),
        )

    def verify(self, commitment: GroupElement, opening: Opening) -> bool:
        try:
            expected = self.commit_with_randomness(opening.value, opening.randomness)
        except (TypeError, ValueError):
            return False
        return expected == commitment

    def verify_batch(
        self, pairs: Sequence[Tuple[GroupElement, Opening]]
    ) -> List[bool]:
        """Per-pair verdicts, batched: one RLC multi-exp instead of m commits.

        Equivalent to ``[self.verify(c, o) for c, o in pairs]`` including
        the charged ``crypto.*`` counter totals.  A batch accept vouches
        for every pair (soundness error ~2**-COMBINER_BITS, see
        :mod:`repro.fastpath.batch`); a batch reject falls back to silent
        per-item kernel checks for exact individual verdicts.
        """
        pairs = list(pairs)
        count = len(pairs)
        if count < BATCH_MIN_OPENINGS:
            return [self.verify(commitment, opening) for commitment, opening in pairs]
        group = self.group
        params = self.parameters
        verdicts: List[Optional[bool]] = [None] * count
        batchable: List[Tuple[int, int, int, int]] = []
        for index, (commitment, opening) in enumerate(pairs):
            try:
                value = group.normalize_exponent(opening.value)
                randomness = group.normalize_exponent(opening.randomness)
            except (TypeError, ValueError):
                verdicts[index] = False
                continue
            batchable.append((index, commitment.value, value, randomness))
        if batchable:
            _, commitments, values, randoms = (list(c) for c in zip(*batchable, strict=True))
            if fastpath.pedersen_batch_verify(
                group.p, group.q, params.g.value, params.h.value,
                commitments, values, randoms,
            ):
                for index, _, _, _ in batchable:
                    verdicts[index] = True
            else:
                for index, commitment, value, randomness in batchable:
                    verdicts[index] = commitment == fastpath.pedersen_commit(
                        group.p, group.q, params.g.value, params.h.value,
                        value, randomness,
                    )
        if _obs.metrics is not None:
            # The per-pair cost of commit_with_randomness (two
            # exponentiations and one multiplication each).
            _obs.metrics.inc("crypto.group.exp", 2 * count)
            _obs.metrics.inc("crypto.group.mul", count)
        return [bool(v) for v in verdicts]

    def check(self, commitment: GroupElement, opening: Opening) -> int:
        if not self.verify(commitment, opening):
            raise CommitmentError("Pedersen commitment failed to verify")
        return opening.value

    def combine(self, left: GroupElement, right: GroupElement) -> GroupElement:
        """Homomorphic combination: Com(m1, r1) * Com(m2, r2) = Com(m1+m2, r1+r2)."""
        return left * right


class TrapdoorCommitment(PedersenCommitment):
    """A Pedersen commitment with a known trapdoor t = log_g(h).

    With the trapdoor one can open a commitment to *any* value:
    given C = g^m h^r and a target m', choose r' = r + (m - m') / t.
    The honest interface is identical to :class:`PedersenCommitment`.
    """

    def __init__(self, group: SchnorrGroup, trapdoor: Optional[int] = None, rng=None):
        if trapdoor is None:
            if rng is None:
                raise InvalidParameterError("either trapdoor or rng must be given")
            trapdoor = rng.randrange(1, group.q)
        if not 0 < trapdoor < group.q:
            raise InvalidParameterError("trapdoor must be in (0, q)")
        parameters = PedersenParameters(
            group=group, g=group.generator, h=group.power(trapdoor)
        )
        super().__init__(parameters)
        self.trapdoor = trapdoor

    def equivocate(self, opening: Opening, new_value: int) -> Opening:
        """Produce an opening of the same commitment to ``new_value``."""
        q = self.group.q
        delta = (int(opening.value) - int(new_value)) % q
        new_randomness = (opening.randomness + delta * pow(self.trapdoor, -1, q)) % q
        return Opening(int(new_value) % q, new_randomness)
