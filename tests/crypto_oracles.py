"""Textbook crypto loops: the oracles the fastpath kernels are tested against.

Production code computes group exponentiations, Pedersen commitments, VSS
share-check products and Lagrange coefficients through the
:mod:`repro.fastpath` kernels (fixed-base tables, Horner ladders,
multi-exponentiation, memoized coefficient sets).  Each function here
computes the same value the plain way: ``GroupElement`` values, one
built-in ``pow`` per term, no tables and no caches.  The property tests in
``tests/test_fastpath.py`` compare the two, and
``benchmarks/test_bench_fastpath.py`` times these loops as the naive leg.

The group oracles charge no ``crypto.group.exp`` counts (``GroupElement``
multiplication still charges ``crypto.group.mul``), so run them outside an
observed registry.  The field oracles at the end are the boxed
``FieldElement`` loops that Shamir sharing and BGW's degree reduction
replaced with int arithmetic; every boxed multiplication charges
``crypto.field.mul``, so their totals are the counts production must
charge.
"""

from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.crypto.commitment import PedersenParameters
from repro.crypto.field import FieldElement, PrimeField
from repro.crypto.group import GroupElement, SchnorrGroup
from repro.crypto.polynomial import Polynomial
from repro.crypto.secret_sharing import ShamirSharing, Share


def group_exp(element: GroupElement, exponent) -> GroupElement:
    """``element ** exponent`` by one built-in ``pow`` (exponent taken mod q)."""
    group = element.group
    return GroupElement(group, pow(element.value, group.normalize_exponent(exponent), group.p))


def pedersen_commit(params: PedersenParameters, value, randomness) -> GroupElement:
    """``g**value * h**randomness``, one ``pow`` per generator."""
    return group_exp(params.g, value) * group_exp(params.h, randomness)


def vss_expected(
    group: SchnorrGroup, commitments: Sequence[GroupElement], x: int
) -> GroupElement:
    """``prod_j commitments[j] ** (x**j mod q)``, one ``pow`` per commitment."""
    expected = GroupElement(group, 1)
    x_power = 1
    for commitment in commitments:
        expected = expected * group_exp(commitment, x_power)
        x_power = x_power * x % group.q
    return expected


def lagrange_coefficients_at_zero(
    field: PrimeField, xs: Sequence[int]
) -> Tuple[FieldElement, ...]:
    """Lagrange coefficients at zero for the points ``xs``, uncached."""
    points = [field.element(x) for x in xs]
    coefficients = []
    for i, xi in enumerate(points):
        numerator = field.one()
        denominator = field.one()
        for j, xj in enumerate(points):
            if i == j:
                continue
            numerator = numerator * (-xj)
            denominator = denominator * (xi - xj)
        coefficients.append(numerator / denominator)
    return tuple(coefficients)


def shamir_shares(polynomial: Polynomial, parties: int) -> Dict[int, Share]:
    """The dealing's shares by Horner's rule on boxed elements (``Polynomial.__call__``)."""
    return {i: Share(i, polynomial(i)) for i in range(1, parties + 1)}


def shamir_reconstruct(sharing: ShamirSharing, shares: Iterable[Share]) -> FieldElement:
    """The secret of the first threshold+1 shares, as a boxed Lagrange sum."""
    subset = list(shares)[: sharing.threshold + 1]
    coefficients = lagrange_coefficients_at_zero(sharing.field, [s.x for s in subset])
    secret = sharing.field.zero()
    for coefficient, share in zip(coefficients, subset, strict=True):
        secret = secret + coefficient * share.value
    return secret


def bgw_recombine(
    field: PrimeField, lagrange: Sequence[FieldElement], received: Mapping[int, FieldElement]
) -> FieldElement:
    """BGW's degree reduction, boxed: ``sum_j lagrange[j-1] * received[j]``."""
    reduced = field.zero()
    for j in range(1, len(lagrange) + 1):
        reduced = reduced + lagrange[j - 1] * received[j]
    return reduced
