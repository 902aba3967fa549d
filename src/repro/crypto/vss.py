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
from ..errors import ShareError
from ..obs import runtime as _obs
from .commitment import PedersenCommitment, PedersenParameters
from .group import GroupElement, SchnorrGroup
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
    """A Pedersen VSS share: the value and blinding polynomials' residues at x."""

    x: int
    value: int
    blinding: int


@dataclass(frozen=True)
class PedersenDealing:
    commitments: Tuple[GroupElement, ...]
    shares: Dict[int, PedersenShare]


class _VerifiableSharing:
    """What Feldman and Pedersen VSS share: batched verdicts and reconstruction.

    Subclasses supply :meth:`_batch_verdicts` (the RLC kernel plus its
    per-item fallback), :meth:`_share_key` (a share's full content) and
    :attr:`_CHECK_COST`, the exponentiations (and multiplications) one
    share check costs beyond the threshold+1 of the commitment product.
    """

    _CHECK_COST: int

    def __init__(self, group: SchnorrGroup, threshold: int, parties: int):
        self.group = group
        self.field = group.exponent_field
        self.sharing = ShamirSharing(self.field, threshold, parties)
        self.threshold = threshold
        self.parties = parties
        #: Per-share verdicts of every batched reconstruction so far, keyed
        #: by its full content; see :meth:`reconstruct`.
        self._verdicts: Dict[Tuple, List[bool]] = {}

    def _batch_verdicts(self, commitment_values: List[int], shares: List) -> List[bool]:
        raise NotImplementedError

    @staticmethod
    def _share_key(share) -> Tuple:
        raise NotImplementedError

    def _deal(self, secret: int, rng) -> Tuple[List[int], List[int]]:
        """One Shamir dealing of ``secret`` mod q: its coefficients, padded
        with 0 to the commitment vector's threshold+1 entries, and its points."""
        coefficients, points = self.sharing.deal(secret % self.field.modulus, rng)
        return coefficients + [0] * (self.threshold + 1 - len(coefficients)), points

    def _batched(self, commitments: Sequence[GroupElement], shares: List) -> bool:
        """Whether ``shares`` take the batch path (else one check per share)."""
        return len(shares) >= BATCH_MIN_SHARES and len(commitments) == self.threshold + 1

    def _charge_batch(self, verdicts: List[bool]) -> None:
        """Charge what one ``verify_share`` per verdict would have charged."""
        if _obs.metrics is not None:
            count = len(verdicts)
            _obs.metrics.inc("crypto.vss.shares_verified", count)
            _obs.metrics.inc("crypto.group.exp", count * (self.threshold + 1 + self._CHECK_COST))
            _obs.metrics.inc("crypto.group.mul", count * (self.threshold + self._CHECK_COST))
            rejected = verdicts.count(False)
            if rejected:
                _obs.metrics.inc("crypto.vss.shares_rejected", rejected)

    def verify_shares(self, commitments: Sequence[GroupElement], shares: Sequence) -> List[bool]:
        """Per-share verdicts, batched: one RLC multi-exp instead of m checks.

        Equivalent to ``[self.verify_share(commitments, s) for s in shares]``
        including the charged ``crypto.*`` counter totals — batching is a
        cost optimization, not a semantics change.  A batch *accept* vouches
        for every share (soundness error ~2**-COMBINER_BITS, see
        :mod:`repro.fastpath.batch`); a batch *reject* falls back to silent
        per-item kernel checks so the individual verdicts are exact.
        """
        shares = list(shares)
        if not self._batched(commitments, shares):
            return [self.verify_share(commitments, s) for s in shares]
        verdicts = self._batch_verdicts([c.value for c in commitments], shares)
        self._charge_batch(verdicts)
        return verdicts

    def reconstruct(self, commitments: Sequence[GroupElement], shares: Iterable) -> int:
        """Reconstruct from shares, discarding any that fail verification.

        In a reveal every party reconstructs every dealer's secret from the
        same broadcast shares, so the batch verdicts are memoized on this
        instance, keyed by the full content: the commitment values and the
        ordered share contents.  The verdicts are a pure function of that
        content (the batch combiners are hashed from it), so a hit is
        exact, and it is charged what a recomputation would be.  One
        instance serves one execution, so the memo needs no cap.
        """
        shares = list(shares)
        if not self._batched(commitments, shares):
            verdicts = self.verify_shares(commitments, shares)
        else:
            key = (tuple(c.value for c in commitments), tuple(map(self._share_key, shares)))
            verdicts = self._verdicts.get(key)
            if verdicts is None:
                verdicts = self._batch_verdicts([c.value for c in commitments], shares)
                self._verdicts[key] = verdicts
            self._charge_batch(verdicts)
        seen = {}
        for share, ok in zip(shares, verdicts, strict=True):
            if ok:
                seen.setdefault(share.x, share)
        unique = list(seen.values())
        if len(unique) < self.threshold + 1:
            raise ShareError(
                f"only {len(unique)} valid shares; need {self.threshold + 1}"
            )
        return self.sharing.reconstruct(unique)


class FeldmanVSS(_VerifiableSharing):
    """Feldman verifiable secret sharing over a Schnorr group."""

    # The share check computes g**v against the commitment product.
    _CHECK_COST = 1

    def deal(self, secret: int, rng) -> FeldmanDealing:
        if _obs.metrics is not None:
            _obs.metrics.inc("crypto.vss.deals")
        coefficients, points = self._deal(secret, rng)
        commitments = tuple(self.group.power(c) for c in coefficients)
        shares = {i: Share(i, value) for i, value in enumerate(points, 1)}
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
        ok = self.group.power(share.value) == expected
        if not ok and _obs.metrics is not None:
            _obs.metrics.inc("crypto.vss.shares_rejected")
        return ok

    @staticmethod
    def _share_key(share: Share) -> Tuple:
        return (share.x, share.value)

    def _batch_verdicts(self, commitment_values: List[int], shares: List[Share]) -> List[bool]:
        group = self.group
        generator = group.generator.value
        values = [group.normalize_exponent(s.value) for s in shares]
        xs = [s.x for s in shares]
        if fastpath.feldman_batch_verify(
            group.p, group.q, generator, commitment_values, xs, values
        ):
            return [True] * len(shares)
        return [
            fastpath.pow_mod(group.p, group.q, generator, value)
            == fastpath.vss_expected(group.p, group.q, commitment_values, x)
            for x, value in zip(xs, values, strict=True)
        ]


class PedersenVSS(_VerifiableSharing):
    """Pedersen verifiable secret sharing (perfectly hiding)."""

    # The share check computes g**v * h**b: one exponentiation and one
    # multiplication more than Feldman.
    _CHECK_COST = 2

    def __init__(
        self,
        parameters: PedersenParameters,
        threshold: int,
        parties: int,
    ):
        super().__init__(parameters.group, threshold, parties)
        self.parameters = parameters
        self.scheme = PedersenCommitment(parameters)

    def deal(self, secret: int, rng) -> PedersenDealing:
        if _obs.metrics is not None:
            _obs.metrics.inc("crypto.vss.deals")
        value_coeffs, values = self._deal(secret, rng)
        blind_coeffs, blindings = self._deal(self.field.random(rng), rng)
        commitments = tuple(
            (self.parameters.g ** a) * (self.parameters.h ** b)
            for a, b in zip(value_coeffs, blind_coeffs, strict=True)
        )
        shares = {
            i: PedersenShare(x=i, value=value, blinding=blinding)
            for i, (value, blinding) in enumerate(zip(values, blindings, strict=True), 1)
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
        actual = self.scheme.commit_with_randomness(share.value, share.blinding)
        ok = actual == expected
        if not ok and _obs.metrics is not None:
            _obs.metrics.inc("crypto.vss.shares_rejected")
        return ok

    @staticmethod
    def _share_key(share: PedersenShare) -> Tuple:
        return (share.x, share.value, share.blinding)

    def _batch_verdicts(
        self, commitment_values: List[int], shares: List[PedersenShare]
    ) -> List[bool]:
        group = self.group
        g = self.parameters.g.value
        h = self.parameters.h.value
        values = [group.normalize_exponent(s.value) for s in shares]
        blindings = [group.normalize_exponent(s.blinding) for s in shares]
        xs = [s.x for s in shares]
        if fastpath.pedersen_vss_batch_verify(
            group.p, group.q, g, h, commitment_values, xs, values, blindings
        ):
            return [True] * len(shares)
        return [
            fastpath.pedersen_commit(group.p, group.q, g, h, value, blinding)
            == fastpath.vss_expected(group.p, group.q, commitment_values, x)
            for x, value, blinding in zip(xs, values, blindings, strict=True)
        ]
