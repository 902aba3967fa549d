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
observed registry.  The field oracles at the end are the textbook GF(p)
loops of Shamir sharing and BGW's degree reduction, on int residues mod
``p``: each one that multiplies returns its value and the number of
products it performed, counted one at a time inside its loop, and that
count is what production must charge as ``crypto.field.mul``.
"""

from typing import Iterable, List, Mapping, Sequence, Tuple

from repro.crypto.commitment import PedersenParameters
from repro.crypto.group import GroupElement, SchnorrGroup
from repro.crypto.secret_sharing import Share


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


def shamir_coefficients(p: int, degree: int, rng, secret: int) -> List[int]:
    """A dealing's coefficients, lowest degree first: ``degree + 1`` draws of
    ``rng.randrange(p)``, the first replaced by ``secret``, then every
    trailing zero dropped.  It multiplies nothing."""
    coefficients = [rng.randrange(p) for _ in range(degree + 1)]
    coefficients[0] = secret
    while coefficients and coefficients[-1] == 0:
        del coefficients[-1]
    return coefficients


def shamir_shares(p: int, coefficients: Sequence[int], parties: int) -> Tuple[List[int], int]:
    """``[f(1), ..., f(parties)]``, each point by its own Horner loop, and the products."""
    points, products = [], 0
    for x in range(1, parties + 1):
        value = 0
        for coefficient in reversed(coefficients):
            value = (value * x + coefficient) % p
            products += 1
        points.append(value)
    return points, products


def lagrange_coefficients_at_zero(p: int, xs: Iterable[int]) -> Tuple[Tuple[int, ...], int]:
    """The Lagrange coefficients at zero for the points ``xs``, uncached, and the products.

    Coefficient i is ``prod_{j != i} (0 - x_j) / (x_i - x_j)``: two
    products per other point, then one ``pow(d, -1, p)`` and one product
    for the division.
    """
    points = [x % p for x in xs]
    coefficients, products = [], 0
    for i, xi in enumerate(points):
        numerator = denominator = 1
        for j, xj in enumerate(points):
            if i == j:
                continue
            numerator = numerator * (0 - xj) % p
            products += 1
            denominator = denominator * (xi - xj) % p
            products += 1
        coefficients.append(numerator * pow(denominator, -1, p) % p)
        products += 1
    return tuple(coefficients), products


def shamir_reconstruct(p: int, threshold: int, shares: Iterable[Share]) -> Tuple[int, int]:
    """The secret of the first threshold+1 shares, as a Lagrange sum, and the products."""
    subset = list(shares)[: threshold + 1]
    coefficients, products = lagrange_coefficients_at_zero(p, [s.x for s in subset])
    secret = 0
    for coefficient, share in zip(coefficients, subset, strict=True):
        secret = (secret + coefficient * share.value) % p
        products += 1
    return secret, products


def bgw_recombine(
    p: int, lagrange: Sequence[int], received: Mapping[int, int]
) -> Tuple[int, int]:
    """BGW's degree reduction, ``sum_j lagrange[j-1] * received[j]``, and the products."""
    reduced, products = 0, 0
    for j in range(1, len(lagrange) + 1):
        reduced = (reduced + lagrange[j - 1] * received[j]) % p
        products += 1
    return reduced, products
