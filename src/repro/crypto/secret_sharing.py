"""Shamir secret sharing over GF(p), and Lagrange coefficients at zero.

A (t, n) sharing hides a secret in the constant term of a random degree-t
polynomial; any t+1 shares reconstruct, any t reveal nothing.  Party i
holds the evaluation at x = i (1-based, so x = 0 is reserved for the
secret itself).  Secrets, coefficients and shares are int residues in
``[0, p)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .. import fastpath
from ..errors import InvalidParameterError, ShareError
from ..obs import runtime as _obs
from .field import PrimeField


@dataclass(frozen=True)
class Share:
    """One party's share: the evaluation point x and the residue f(x)."""

    x: int
    value: int


def lagrange_coefficients_at_zero(field: PrimeField, xs: Sequence[int]) -> Tuple[int, ...]:
    """Residues lambda_i with sum_i lambda_i * f(x_i) = f(0) for the points ``xs``.

    Used for Shamir reconstruction and BGW degree reduction without
    building the interpolating polynomial.  Coefficient sets are memoized
    per ``(modulus, point tuple)``, since reconstruction calls the same
    point sets over and over (every party, every dealing).  Each call
    charges ``crypto.field.mul`` with the computing loop's count, on a
    memo hit and a miss alike: ``2m^2 - m`` for ``m`` points, two per
    ordered pair plus one division each.
    """
    modulus = field.modulus
    points = tuple(x % modulus for x in xs)
    if len(set(points)) != len(points):
        raise ShareError("duplicate x-coordinates")
    if _obs.metrics is not None:
        m = len(points)
        _obs.metrics.inc("crypto.field.mul", 2 * m * m - m)
    cached = fastpath.lagrange_cache_get(modulus, points)
    if cached is not None:
        return cached
    coefficients = []
    for i, xi in enumerate(points):
        numerator = denominator = 1
        for j, xj in enumerate(points):
            if i != j:
                numerator = numerator * -xj % modulus
                denominator = denominator * (xi - xj) % modulus
        coefficients.append(numerator * field.inverse(denominator) % modulus)
    result = tuple(coefficients)
    fastpath.lagrange_cache_put(modulus, points, result)
    return result


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

    def deal(self, secret: int, rng) -> Tuple[List[int], List[int]]:
        """One dealing: ``(coefficients, [f(1), ..., f(parties)])``.

        ``secret`` is a residue in ``[0, p)``.  The coefficients are
        ``threshold + 1`` draws of ``rng.randrange(p)``, the first
        overwritten by the secret, returned lowest degree first with
        trailing zeros stripped.  Horner's rule charges one
        ``crypto.field.mul`` per stripped coefficient and party.
        """
        modulus = self.field.modulus
        coefficients = [rng.randrange(modulus) for _ in range(self.threshold + 1)]
        coefficients[0] = secret
        while coefficients and not coefficients[-1]:
            coefficients.pop()
        if coefficients and _obs.metrics is not None:
            _obs.metrics.inc("crypto.field.mul", len(coefficients) * self.parties)
        return coefficients, fastpath.shamir_points(modulus, coefficients, self.parties)

    def reconstruct(self, shares: Iterable[Share]) -> int:
        """Reconstruct the secret from at least threshold+1 shares (the first threshold+1).

        Charges one ``crypto.field.mul`` per share it sums, on top of the
        Lagrange coefficients' own charge.
        """
        share_list = list(shares)
        if len({s.x for s in share_list}) != len(share_list):
            raise ShareError("duplicate shares supplied")
        if len(share_list) < self.threshold + 1:
            raise ShareError(
                f"need {self.threshold + 1} shares, got {len(share_list)}"
            )
        subset = share_list[: self.threshold + 1]
        coefficients = lagrange_coefficients_at_zero(self.field, [s.x for s in subset])
        if _obs.metrics is not None:
            _obs.metrics.inc("crypto.field.mul", len(subset))
        total = sum(c * s.value for c, s in zip(coefficients, subset, strict=True))
        return total % self.field.modulus
