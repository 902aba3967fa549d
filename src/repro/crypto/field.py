"""Prime fields GF(p) and primality utilities.

The protocols in this library do arithmetic over two kinds of prime fields:

* small fields (p > 2n) used by the BGW secure-evaluation substrate, and
* large fields (the exponent group Z_q of a Schnorr group) used by the
  commitment and VSS layers.

A field value is a plain ``int`` residue in ``[0, p)``;
:class:`PrimeField` holds the validated modulus.  No field operation
charges a counter: every caller that multiplies field values charges
``crypto.field.mul`` itself (DESIGN.md §7, "The logical cost model").
"""

from __future__ import annotations

from ..errors import InvalidParameterError

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
    """The finite field GF(p) for a prime modulus p; its values are int residues."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int, check_prime: bool = True):
        if modulus < 2:
            raise InvalidParameterError(f"field modulus must be >= 2, got {modulus}")
        if check_prime and not is_probable_prime(modulus):
            raise InvalidParameterError(f"field modulus {modulus} is not prime")
        self.modulus = modulus

    def random(self, rng) -> int:
        """A uniform residue drawn with ``rng`` (a ``random.Random``)."""
        return rng.randrange(self.modulus)

    def inverse(self, value: int) -> int:
        """The residue whose product with ``value`` is 1 mod p.

        Raises:
            ZeroDivisionError: for a value congruent to 0.
        """
        if value % self.modulus == 0:
            raise ZeroDivisionError("0 has no inverse in a field")
        return pow(value, -1, self.modulus)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.modulus})"
