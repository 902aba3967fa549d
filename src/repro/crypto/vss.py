"""Verifiable secret sharing: Feldman and Pedersen variants.

VSS is the engine of the CGMA-style simultaneous broadcast protocol [7]:
each sender deals its input verifiably *before* any value is revealed, so
a rushing adversary learns nothing it can correlate with.

* Feldman VSS publishes ``g^{a_j}`` for every coefficient of the dealing
  polynomial — computationally hiding (discrete log), perfectly binding.
* Pedersen VSS publishes ``g^{a_j} h^{b_j}`` using a companion polynomial —
  perfectly hiding, computationally binding.

Both expose ``deal`` / ``verify_share`` / ``reconstruct``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .. import fastpath
from ..errors import InvalidParameterError, ShareError
from ..obs import runtime as _obs
from .commitment import PedersenCommitment, PedersenParameters
from .field import FieldElement
from .group import GroupElement, SchnorrGroup
from .polynomial import lagrange_coefficients_at_zero
from .secret_sharing import ShamirSharing, Share


#: Minimum batch size before the RLC batch-verification path kicks in;
#: below this the per-item kernels are at least as fast.
BATCH_MIN_SHARES = 3


def _expected_from_commitments(
    group: SchnorrGroup, commitments: Sequence[GroupElement], x: int
) -> GroupElement:
    """``prod_j commitments[j] ** (x**j mod q)``, charged at its logical cost.

    The kernel computes the product in one pass (Horner / shared ladder);
    the cost model charges what the textbook loop performs — one
    exponentiation and one multiplication per commitment.
    """
    if _obs.metrics is not None:
        _obs.metrics.inc("crypto.group.exp", len(commitments))
        _obs.metrics.inc("crypto.group.mul", len(commitments))
    value = fastpath.vss_expected(
        group.p, group.q, [c.value for c in commitments], x
    )
    return GroupElement(group, value)


@dataclass(frozen=True)
class FeldmanDealing:
    """Public commitments plus the private per-party shares of one dealing."""

    commitments: Tuple[GroupElement, ...]
    shares: Dict[int, Share]


@dataclass(frozen=True)
class PedersenShare:
    """A Pedersen VSS share: evaluations of both the value and blinding polynomials."""

    x: int
    value: FieldElement
    blinding: FieldElement


@dataclass(frozen=True)
class PedersenDealing:
    commitments: Tuple[GroupElement, ...]
    shares: Dict[int, PedersenShare]


class FeldmanVSS:
    """Feldman verifiable secret sharing over a Schnorr group."""

    def __init__(self, group: SchnorrGroup, threshold: int, parties: int):
        self.group = group
        self.field = group.exponent_field
        self.sharing = ShamirSharing(self.field, threshold, parties)
        self.threshold = threshold
        self.parties = parties

    def deal(self, secret: int, rng) -> FeldmanDealing:
        if _obs.metrics is not None:
            _obs.metrics.inc("crypto.vss.deals")
        polynomial, shares = self.sharing.share(secret, rng)
        coefficients = list(polynomial.coefficients)
        # Pad so the commitment vector always has threshold+1 entries even if
        # trailing coefficients happen to be zero.
        while len(coefficients) < self.threshold + 1:
            coefficients.append(self.field.zero())
        commitments = tuple(self.group.power(c.value) for c in coefficients)
        return FeldmanDealing(commitments=commitments, shares=shares)

    def verify_share(self, commitments: Sequence[GroupElement], share: Share) -> bool:
        """Check g^{f(i)} against the committed coefficients."""
        if _obs.metrics is not None:
            _obs.metrics.inc("crypto.vss.shares_verified")
        if len(commitments) != self.threshold + 1:
            if _obs.metrics is not None:
                _obs.metrics.inc("crypto.vss.shares_rejected")
            return False
        expected = _expected_from_commitments(self.group, commitments, share.x)
        ok = self.group.power(share.value.value) == expected
        if not ok and _obs.metrics is not None:
            _obs.metrics.inc("crypto.vss.shares_rejected")
        return ok

    def verify_shares(
        self, commitments: Sequence[GroupElement], shares: Sequence[Share]
    ) -> List[bool]:
        """Per-share verdicts, batched: one RLC multi-exp instead of m checks.

        Equivalent to ``[self.verify_share(commitments, s) for s in shares]``
        including the charged ``crypto.*`` counter totals — batching is a
        cost optimization, not a semantics change.  A batch *accept* vouches
        for every share (soundness error ~2**-COMBINER_BITS, see
        :mod:`repro.fastpath.batch`); a batch *reject* falls back to silent
        per-item kernel checks so the individual verdicts are exact.
        """
        shares = list(shares)
        count = len(shares)
        if count < BATCH_MIN_SHARES or len(commitments) != self.threshold + 1:
            return [self.verify_share(commitments, s) for s in shares]
        group = self.group
        generator = group.generator.value
        commitment_values = [c.value for c in commitments]
        values = [group.normalize_exponent(s.value.value) for s in shares]
        xs = [s.x for s in shares]
        if fastpath.feldman_batch_verify(
            group.p, group.q, generator, commitment_values, xs, values
        ):
            verdicts = [True] * count
        else:
            verdicts = [
                fastpath.pow_mod(group.p, group.q, generator, value)
                == fastpath.vss_expected(group.p, group.q, commitment_values, x)
                for x, value in zip(xs, values, strict=True)
            ]
        if _obs.metrics is not None:
            # The per-share cost of verify_share: threshold+2 exponentiations
            # and threshold+1 multiplications each, plus the verdict counters.
            _obs.metrics.inc("crypto.vss.shares_verified", count)
            _obs.metrics.inc("crypto.group.exp", count * (self.threshold + 2))
            _obs.metrics.inc("crypto.group.mul", count * (self.threshold + 1))
            rejected = verdicts.count(False)
            if rejected:
                _obs.metrics.inc("crypto.vss.shares_rejected", rejected)
        return verdicts

    def commitment_to_secret(self, commitments: Sequence[GroupElement]) -> GroupElement:
        """The implied commitment g^s to the shared secret (x = 0)."""
        if not commitments:
            raise InvalidParameterError("empty commitment vector")
        return commitments[0]

    def reconstruct(
        self, commitments: Sequence[GroupElement], shares: Iterable[Share]
    ) -> FieldElement:
        """Reconstruct from shares, discarding any that fail verification."""
        shares = list(shares)
        verdicts = self.verify_shares(commitments, shares)
        valid = [s for s, ok in zip(shares, verdicts, strict=True) if ok]
        seen = {}
        for share in valid:
            seen.setdefault(share.x, share)
        unique = list(seen.values())
        if len(unique) < self.threshold + 1:
            raise ShareError(
                f"only {len(unique)} valid shares; need {self.threshold + 1}"
            )
        return self.sharing.reconstruct(unique)


class PedersenVSS:
    """Pedersen verifiable secret sharing (perfectly hiding)."""

    def __init__(
        self,
        parameters: PedersenParameters,
        threshold: int,
        parties: int,
    ):
        self.parameters = parameters
        self.group = parameters.group
        self.scheme = PedersenCommitment(parameters)
        self.field = self.group.exponent_field
        self.sharing = ShamirSharing(self.field, threshold, parties)
        self.threshold = threshold
        self.parties = parties

    def deal(self, secret: int, rng) -> PedersenDealing:
        if _obs.metrics is not None:
            _obs.metrics.inc("crypto.vss.deals")
        value_poly, value_shares = self.sharing.share(secret, rng)
        blind_poly, blind_shares = self.sharing.share(self.field.random(rng), rng)
        value_coeffs = list(value_poly.coefficients)
        blind_coeffs = list(blind_poly.coefficients)
        while len(value_coeffs) < self.threshold + 1:
            value_coeffs.append(self.field.zero())
        while len(blind_coeffs) < self.threshold + 1:
            blind_coeffs.append(self.field.zero())
        commitments = tuple(
            (self.parameters.g ** a.value) * (self.parameters.h ** b.value)
            for a, b in zip(value_coeffs, blind_coeffs, strict=True)
        )
        shares = {
            i: PedersenShare(
                x=i, value=value_shares[i].value, blinding=blind_shares[i].value
            )
            for i in range(1, self.parties + 1)
        }
        return PedersenDealing(commitments=commitments, shares=shares)

    def verify_share(
        self, commitments: Sequence[GroupElement], share: PedersenShare
    ) -> bool:
        if _obs.metrics is not None:
            _obs.metrics.inc("crypto.vss.shares_verified")
        if len(commitments) != self.threshold + 1:
            if _obs.metrics is not None:
                _obs.metrics.inc("crypto.vss.shares_rejected")
            return False
        expected = _expected_from_commitments(self.group, commitments, share.x)
        actual = self.scheme.commit_with_randomness(share.value.value, share.blinding.value)
        ok = actual == expected
        if not ok and _obs.metrics is not None:
            _obs.metrics.inc("crypto.vss.shares_rejected")
        return ok

    def verify_shares(
        self, commitments: Sequence[GroupElement], shares: Sequence[PedersenShare]
    ) -> List[bool]:
        """Per-share verdicts via RLC batching (see :meth:`FeldmanVSS.verify_shares`)."""
        shares = list(shares)
        count = len(shares)
        if count < BATCH_MIN_SHARES or len(commitments) != self.threshold + 1:
            return [self.verify_share(commitments, s) for s in shares]
        group = self.group
        g = self.parameters.g.value
        h = self.parameters.h.value
        commitment_values = [c.value for c in commitments]
        values = [group.normalize_exponent(s.value.value) for s in shares]
        blindings = [group.normalize_exponent(s.blinding.value) for s in shares]
        xs = [s.x for s in shares]
        if fastpath.pedersen_vss_batch_verify(
            group.p, group.q, g, h, commitment_values, xs, values, blindings
        ):
            verdicts = [True] * count
        else:
            verdicts = [
                fastpath.pedersen_commit(group.p, group.q, g, h, value, blinding)
                == fastpath.vss_expected(group.p, group.q, commitment_values, x)
                for x, value, blinding in zip(xs, values, blindings, strict=True)
            ]
        if _obs.metrics is not None:
            # The per-share cost of verify_share: threshold+3 exponentiations
            # and threshold+2 multiplications each, plus the verdict counters.
            _obs.metrics.inc("crypto.vss.shares_verified", count)
            _obs.metrics.inc("crypto.group.exp", count * (self.threshold + 3))
            _obs.metrics.inc("crypto.group.mul", count * (self.threshold + 2))
            rejected = verdicts.count(False)
            if rejected:
                _obs.metrics.inc("crypto.vss.shares_rejected", rejected)
        return verdicts

    def reconstruct(
        self, commitments: Sequence[GroupElement], shares: Iterable[PedersenShare]
    ) -> FieldElement:
        shares = list(shares)
        verdicts = self.verify_shares(commitments, shares)
        valid = [s for s, ok in zip(shares, verdicts, strict=True) if ok]
        seen = {}
        for share in valid:
            seen.setdefault(share.x, share)
        unique = list(seen.values())
        if len(unique) < self.threshold + 1:
            raise ShareError(
                f"only {len(unique)} valid shares; need {self.threshold + 1}"
            )
        subset = unique[: self.threshold + 1]
        coefficients = lagrange_coefficients_at_zero(self.field, [s.x for s in subset])
        secret = self.field.zero()
        for coefficient, share in zip(coefficients, subset, strict=True):
            secret = secret + coefficient * share.value
        return secret
