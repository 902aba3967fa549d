"""Prime fields GF(p) and primality utilities.

The protocols in this library do arithmetic over two kinds of prime fields:

* small fields (p > 2n) used by the BGW secure-evaluation substrate, and
* large fields (the exponent group Z_q of a Schnorr group) used by the
  commitment and VSS layers.

Field elements are immutable value objects supporting the usual operator
protocol, so protocol code reads like the maths in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..errors import InvalidParameterError
from ..obs import runtime as _obs

IntoElement = Union["FieldElement", int]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)


def is_probable_prime(candidate: int, rounds: int = 40) -> bool:
    """Miller--Rabin primality test with deterministic witness schedule.

    The witnesses are derived deterministically from the candidate so the
    whole library stays reproducible without a global RNG.
    """
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    # Write candidate - 1 = 2^s * d with d odd.
    d = candidate - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for i in range(rounds):
        witness = (_SMALL_PRIMES[i % len(_SMALL_PRIMES)] + i * 7919) % (candidate - 3) + 2
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def next_prime(floor: int) -> int:
    """Return the smallest prime >= ``floor``."""
    candidate = max(2, floor)
    if candidate % 2 == 0 and candidate != 2:
        candidate += 1
    while not is_probable_prime(candidate):
        candidate += 2 if candidate > 2 else 1
    return candidate


class PrimeField:
    """The finite field GF(p) for a prime modulus p."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int, check_prime: bool = True):
        if modulus < 2:
            raise InvalidParameterError(f"field modulus must be >= 2, got {modulus}")
        if check_prime and not is_probable_prime(modulus):
            raise InvalidParameterError(f"field modulus {modulus} is not prime")
        self.modulus = modulus

    # -- element construction -------------------------------------------------

    def element(self, value: IntoElement) -> "FieldElement":
        """Coerce ``value`` into this field (reducing integers mod p)."""
        return FieldElement(self, self.residue(value))

    def residue(self, value: IntoElement) -> int:
        """``self.element(value).value`` without building the element.

        Raises:
            InvalidParameterError: for an element of a different field.
        """
        if isinstance(value, FieldElement):
            if value.field is not self and value.field.modulus != self.modulus:
                raise InvalidParameterError(
                    f"element of GF({value.field.modulus}) used in GF({self.modulus})"
                )
            return value.value
        return value % self.modulus

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def random(self, rng) -> "FieldElement":
        """Sample a uniform element using ``rng`` (a ``random.Random``)."""
        return FieldElement(self, rng.randrange(self.modulus))

    # -- identity --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.modulus})"

    def __contains__(self, item: object) -> bool:
        return isinstance(item, FieldElement) and item.field == self


@dataclass(frozen=True)
class FieldElement:
    """An immutable element of a :class:`PrimeField`."""

    field: PrimeField
    value: int

    def _coerce(self, other: IntoElement) -> "FieldElement":
        return self.field.element(other)

    def __add__(self, other: IntoElement) -> "FieldElement":
        rhs = self._coerce(other)
        return FieldElement(self.field, (self.value + rhs.value) % self.field.modulus)

    __radd__ = __add__

    def __sub__(self, other: IntoElement) -> "FieldElement":
        rhs = self._coerce(other)
        return FieldElement(self.field, (self.value - rhs.value) % self.field.modulus)

    def __rsub__(self, other: IntoElement) -> "FieldElement":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: IntoElement) -> "FieldElement":
        rhs = self._coerce(other)
        if _obs.metrics is not None:
            _obs.metrics.inc("crypto.field.mul")
        return FieldElement(self.field, (self.value * rhs.value) % self.field.modulus)

    __rmul__ = __mul__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, (-self.value) % self.field.modulus)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse in a field")
        return FieldElement(self.field, pow(self.value, -1, self.field.modulus))

    def __truediv__(self, other: IntoElement) -> "FieldElement":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: IntoElement) -> "FieldElement":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "FieldElement":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return FieldElement(self.field, pow(self.value, exponent, self.field.modulus))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.modulus, self.value))

    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.field.modulus})"
