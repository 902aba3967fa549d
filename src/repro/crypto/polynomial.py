"""Polynomials over GF(p) with Lagrange interpolation.

These are the backbone of Shamir secret sharing, Feldman/Pedersen VSS and
the BGW degree-reduction step.  Polynomials are immutable, represented by
their coefficient tuple in increasing-degree order with no trailing zeros
(so the zero polynomial has an empty coefficient tuple and degree -1).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from .. import fastpath
from ..errors import InvalidParameterError, ShareError
from ..obs import runtime as _obs
from .field import FieldElement, IntoElement, PrimeField


class Polynomial:
    """An immutable polynomial over a :class:`PrimeField`."""

    __slots__ = ("field", "coefficients")

    def __init__(self, field: PrimeField, coefficients: Iterable[IntoElement]):
        coeffs = tuple(field.element(c) for c in coefficients)
        while coeffs and coeffs[-1].value == 0:
            coeffs = coeffs[:-1]
        self.field = field
        self.coefficients: Tuple[FieldElement, ...] = coeffs

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def constant(cls, field: PrimeField, value: IntoElement) -> "Polynomial":
        return cls(field, (value,))

    @classmethod
    def random(
        cls,
        field: PrimeField,
        degree: int,
        rng,
        constant_term: IntoElement = None,
    ) -> "Polynomial":
        """Sample a uniform polynomial of exactly the given degree bound.

        If ``constant_term`` is provided it is fixed as the coefficient of
        x^0 (this is how Shamir sharing hides a secret).
        """
        if degree < 0:
            raise InvalidParameterError("degree must be non-negative")
        coefficients = [field.random(rng) for _ in range(degree + 1)]
        if constant_term is not None:
            coefficients[0] = field.element(constant_term)
        return cls(field, coefficients)

    # -- basic queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, point: IntoElement) -> FieldElement:
        """Evaluate by Horner's rule."""
        x = self.field.element(point)
        result = self.field.zero()
        for coefficient in reversed(self.coefficients):
            result = result * x + coefficient
        return result

    def evaluate_many(self, points: Sequence[IntoElement]) -> Tuple[FieldElement, ...]:
        return tuple(self(point) for point in points)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_field(other)
        length = max(len(self.coefficients), len(other.coefficients))
        coeffs = []
        for i in range(length):
            a = self.coefficients[i] if i < len(self.coefficients) else self.field.zero()
            b = other.coefficients[i] if i < len(other.coefficients) else self.field.zero()
            coeffs.append(a + b)
        return Polynomial(self.field, coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_field(other)
        return self + (other * self.field.element(-1))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_same_field(other)
            if not self.coefficients or not other.coefficients:
                return Polynomial.zero(self.field)
            coeffs = [self.field.zero()] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                for j, b in enumerate(other.coefficients):
                    coeffs[i + j] = coeffs[i + j] + a * b
            return Polynomial(self.field, coeffs)
        scalar = self.field.element(other)
        return Polynomial(self.field, [c * scalar for c in self.coefficients])

    __rmul__ = __mul__

    def _check_same_field(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise InvalidParameterError("polynomials over different fields")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash((self.field.modulus, tuple(c.value for c in self.coefficients)))

    def __repr__(self) -> str:
        if not self.coefficients:
            return "Polynomial(0)"
        terms = " + ".join(
            f"{c.value}x^{i}" if i else str(c.value)
            for i, c in enumerate(self.coefficients)
        )
        return f"Polynomial({terms} over GF({self.field.modulus}))"


def lagrange_interpolate(
    field: PrimeField,
    points: Sequence[Tuple[IntoElement, IntoElement]],
) -> Polynomial:
    """Return the unique polynomial of degree < len(points) through ``points``.

    Raises:
        ShareError: if two points share an x-coordinate.
    """
    xs = [field.element(x) for x, _ in points]
    ys = [field.element(y) for _, y in points]
    if len({x.value for x in xs}) != len(xs):
        raise ShareError("duplicate x-coordinates in interpolation points")
    result = Polynomial.zero(field)
    for i, (xi, yi) in enumerate(zip(xs, ys, strict=True)):
        basis = Polynomial.constant(field, 1)
        denominator = field.one()
        for j, xj in enumerate(xs):
            if i == j:
                continue
            basis = basis * Polynomial(field, [-xj.value, 1])
            denominator = denominator * (xi - xj)
        result = result + basis * (yi / denominator)
    return result


def lagrange_coefficients_at_zero(
    field: PrimeField, xs: Sequence[IntoElement]
) -> Tuple[FieldElement, ...]:
    """Lagrange coefficients lambda_i with sum_i lambda_i * f(x_i) = f(0).

    Used for Shamir reconstruction and BGW degree reduction without building
    the full interpolating polynomial.  Coefficient sets are memoized per
    ``(modulus, frozen point tuple)`` — reconstruction calls the same point
    sets over and over (every party, every dealing) — and a cache hit
    charges the ``crypto.field.mul`` counter with exactly the computing
    loop's multiplication count (``2m^2 - m`` for ``m`` points: two per
    ordered pair plus one division each), so the logical cost does not
    depend on cache warmth.
    """
    points = [field.element(x) for x in xs]
    if len({p.value for p in points}) != len(points):
        raise ShareError("duplicate x-coordinates")
    key = tuple(p.value for p in points)
    cached = fastpath.lagrange_cache_get(field.modulus, key)
    if cached is not None:
        if _obs.metrics is not None:
            m = len(points)
            _obs.metrics.inc("crypto.field.mul", 2 * m * m - m)
        return tuple(FieldElement(field, value) for value in cached)
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
    fastpath.lagrange_cache_put(field.modulus, key, tuple(c.value for c in coefficients))
    return tuple(coefficients)
