"""A Fiat--Shamir proof of knowledge of a Pedersen commitment opening.

The Gennaro-style protocol has parties prove *knowledge* of their
committed values before anything is revealed; that is what rules out the
copy-attack (a copier cannot prove knowledge of a value it only saw a
commitment to).  The proof is the Okamoto-style two-base Schnorr sigma
protocol, made non-interactive by deriving its challenge from the random
oracle over a context (session, committer) that the verifier re-binds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .commitment import PedersenParameters
from .group import GroupElement, SchnorrGroup
from .prg import random_oracle_int


@dataclass(frozen=True)
class OpeningProof:
    """Proof of knowledge of (m, r) with C = g^m h^r (Okamoto protocol)."""

    commitment: GroupElement
    response_value: int
    response_blinding: int


def prove_opening(
    parameters: PedersenParameters,
    value: int,
    blinding: int,
    rng,
    context: Any = "",
) -> OpeningProof:
    group = parameters.group
    nonce_value = rng.randrange(1, group.q)
    nonce_blinding = rng.randrange(1, group.q)
    commitment = (parameters.g ** nonce_value) * (parameters.h ** nonce_blinding)
    statement = (parameters.g ** (value % group.q)) * (parameters.h ** (blinding % group.q))
    challenge = _challenge(group, "opening", statement, commitment, context)
    return OpeningProof(
        commitment=commitment,
        response_value=(nonce_value + challenge * (value % group.q)) % group.q,
        response_blinding=(nonce_blinding + challenge * (blinding % group.q)) % group.q,
    )


def verify_opening(
    parameters: PedersenParameters,
    statement: GroupElement,
    proof: OpeningProof,
    context: Any = "",
) -> bool:
    group = parameters.group
    try:
        challenge = _challenge(group, "opening", statement, proof.commitment, context)
        left = (parameters.g ** proof.response_value) * (
            parameters.h ** proof.response_blinding
        )
        right = proof.commitment * (statement ** challenge)
    except (TypeError, ValueError, AttributeError):
        return False
    return left == right


def _challenge(
    group: SchnorrGroup, tag: str, statement: GroupElement, commitment: GroupElement, context: Any
) -> int:
    return random_oracle_int(
        "sigma",
        tag,
        group.p,
        int(statement),
        int(commitment),
        context,
        modulus=group.q,
    )
