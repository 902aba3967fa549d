"""Textbook crypto loops: the oracles the fastpath kernels are tested against.

Production code computes group exponentiations, Pedersen commitments, VSS
share-check products and Lagrange coefficients through the
:mod:`repro.fastpath` kernels (fixed-base tables, Horner ladders,
multi-exponentiation, memoized coefficient sets).  Each function here
computes the same value the plain way: ``GroupElement`` values, one
built-in ``pow`` per term, no tables and no caches.  The property tests in
``tests/test_fastpath.py`` compare the two, and
``benchmarks/test_bench_fastpath.py`` times these loops as the naive leg.

The oracles charge no ``crypto.group.exp`` counts (``GroupElement``
multiplication still charges ``crypto.group.mul``), so run them outside an
observed registry.
"""

from typing import Sequence, Tuple

from repro.crypto.commitment import PedersenParameters
from repro.crypto.field import FieldElement, PrimeField
from repro.crypto.group import GroupElement, SchnorrGroup


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
    expected = group.identity()
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
