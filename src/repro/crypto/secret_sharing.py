"""Shamir secret sharing over GF(p).

A (t, n) sharing hides a secret in the constant term of a random degree-t
polynomial; any t+1 shares reconstruct, any t reveal nothing.  Party i
holds the evaluation at x = i (1-based, so x = 0 is reserved for the
secret itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .. import fastpath
from ..errors import InvalidParameterError, ShareError
from ..obs import runtime as _obs
from .field import FieldElement, IntoElement, PrimeField
from .polynomial import Polynomial, lagrange_coefficients_at_zero


@dataclass(frozen=True)
class Share:
    """One party's share: the evaluation point x and the value f(x)."""

    x: int
    value: FieldElement


class ShamirSharing:
    """A (threshold, n) Shamir scheme over a given prime field."""

    def __init__(self, field: PrimeField, threshold: int, parties: int):
        if parties < 1:
            raise InvalidParameterError("need at least one party")
        if not 0 <= threshold < parties:
            raise InvalidParameterError(
                f"threshold must be in [0, parties), got t={threshold}, n={parties}"
            )
        if field.modulus <= parties:
            raise InvalidParameterError(
                f"field modulus {field.modulus} too small for {parties} parties"
            )
        self.field = field
        self.threshold = threshold
        self.parties = parties

    def share(self, secret: IntoElement, rng) -> Tuple[Polynomial, Dict[int, Share]]:
        """Share a secret; returns the dealing polynomial and per-party shares.

        :meth:`deal` boxed.  The polynomial is returned so verifiable
        schemes (VSS) can commit to its coefficients; plain callers should
        discard it.
        """
        field = self.field
        coefficients, points = self.deal(field.residue(secret), rng)
        shares = {
            i: Share(i, FieldElement(field, value)) for i, value in enumerate(points, 1)
        }
        return Polynomial(field, coefficients), shares

    def deal(self, secret: int, rng) -> Tuple[List[int], List[int]]:
        """One dealing on residues: ``(coefficients, [f(1), ..., f(parties)])``.

        ``secret`` is a residue in ``[0, p)``.  The coefficients are drawn
        exactly as ``Polynomial.random`` draws them (``threshold + 1``
        calls to ``rng.randrange(p)``, the first overwritten by the
        secret) and returned lowest degree first with trailing zeros
        stripped, as the ``Polynomial`` constructor stores them.  Horner's
        rule charges one ``crypto.field.mul`` per stripped coefficient and
        party, as evaluating the boxed polynomial would.
        """
        modulus = self.field.modulus
        coefficients = [rng.randrange(modulus) for _ in range(self.threshold + 1)]
        coefficients[0] = secret
        while coefficients and not coefficients[-1]:
            coefficients.pop()
        if coefficients and _obs.metrics is not None:
            _obs.metrics.inc("crypto.field.mul", len(coefficients) * self.parties)
        return coefficients, fastpath.shamir_points(modulus, coefficients, self.parties)

    def reconstruct(self, shares: Iterable[Share]) -> FieldElement:
        """Reconstruct the secret from at least threshold+1 shares."""
        share_list = list(shares)
        if len({s.x for s in share_list}) != len(share_list):
            raise ShareError("duplicate shares supplied")
        if len(share_list) < self.threshold + 1:
            raise ShareError(
                f"need {self.threshold + 1} shares, got {len(share_list)}"
            )
        subset = share_list[: self.threshold + 1]
        field = self.field
        coefficients = lagrange_coefficients_at_zero(field, [s.x for s in subset])
        total = sum(
            coefficient.value * field.residue(share.value)
            for coefficient, share in zip(coefficients, subset, strict=True)
        )
        if _obs.metrics is not None:
            _obs.metrics.inc("crypto.field.mul", len(subset))
        return FieldElement(field, total % field.modulus)
