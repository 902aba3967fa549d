"""Schnorr groups: prime-order subgroups of Z_p^* with deterministic setup.

A :class:`SchnorrGroup` is the order-q subgroup of Z_p^* where p = 2q + 1 is
a safe prime.  The discrete-log problem in this subgroup is the hardness
assumption behind the Pedersen commitments, Feldman VSS, Schnorr signatures
and sigma protocols built on top.

Parameters are generated *deterministically* from the security parameter k
(the bit length of q), so every run of the library agrees on the group for
a given k and results stay reproducible.  Small k values (24--64 bits) keep
simulation runs fast; they are simulation-grade, not deployment-grade, and
the library measures "negligible in k" as a trend across several k values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .. import fastpath
from ..errors import InvalidParameterError
from ..obs import runtime as _obs
from . import backend as _backend
from .field import PrimeField, is_probable_prime

MIN_SECURITY_BITS = 8
MAX_SECURITY_BITS = 512


def _candidate_stream(bits: int, label: bytes):
    """Deterministic stream of odd ``bits``-bit candidates derived from a label."""
    counter = 0
    while True:
        digest = hashlib.sha256(label + counter.to_bytes(8, "big")).digest()
        value = int.from_bytes(digest * ((bits // 256) + 1), "big")
        value &= (1 << bits) - 1
        value |= (1 << (bits - 1)) | 1  # force exact bit length and oddness
        yield value
        counter += 1


# Explicit dicts rather than functools.lru_cache so the parallel engine can
# snapshot a warm process's parameters and seed them into pool workers
# (repro.parallel.warmup) without re-running the prime search per worker.
_SAFE_PRIME_CACHE: Dict[int, Tuple[int, int]] = {}
_GROUP_CACHE: Dict[int, "SchnorrGroup"] = {}


def safe_prime_parameters(security_bits: int) -> Tuple[int, int]:
    """Return (p, q) with p = 2q + 1, both prime, q of ``security_bits`` bits.

    Deterministic in ``security_bits``.
    """
    cached = _SAFE_PRIME_CACHE.get(security_bits)
    if cached is not None:
        return cached
    if not MIN_SECURITY_BITS <= security_bits <= MAX_SECURITY_BITS:
        raise InvalidParameterError(
            f"security_bits must be in [{MIN_SECURITY_BITS}, {MAX_SECURITY_BITS}]"
        )
    label = b"simbcast-safe-prime-v1:" + str(security_bits).encode()
    for q in _candidate_stream(security_bits, label):
        if not is_probable_prime(q):
            continue
        p = 2 * q + 1
        if is_probable_prime(p):
            _SAFE_PRIME_CACHE[security_bits] = (p, q)
            return p, q
    raise AssertionError("unreachable: candidate stream is infinite")


def cached_safe_primes() -> List[Tuple[int, int, int]]:
    """Every (security_bits, p, q) this process has computed (warm-state export)."""
    return [(bits, p, q) for bits, (p, q) in sorted(_SAFE_PRIME_CACHE.items())]


def seed_safe_primes(entries: Iterable[Tuple[int, int, int]]) -> None:
    """Install parameters computed elsewhere (pool-worker warm start).

    Entries are re-verified cheaply (shape only, not primality — the prime
    search is deterministic, so a well-formed entry from a peer process is
    the same one this process would derive).
    """
    for bits, p, q in entries:
        if p == 2 * q + 1 and q.bit_length() == bits:
            _SAFE_PRIME_CACHE.setdefault(bits, (p, q))


def clear_parameter_caches() -> None:
    """Drop the memoized parameters and groups (test isolation hook)."""
    _SAFE_PRIME_CACHE.clear()
    _GROUP_CACHE.clear()


@dataclass(frozen=True)
class GroupElement:
    """An element of a :class:`SchnorrGroup` (a quadratic residue mod p)."""

    group: "SchnorrGroup"
    value: int

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self.group._check_member(other)
        if _obs.metrics is not None:
            _obs.metrics.inc("crypto.group.mul")
        return GroupElement(self.group, (self.value * other.value) % self.group.p)

    def __pow__(self, exponent) -> "GroupElement":
        group = self.group
        exp = group.normalize_exponent(exponent)
        if _obs.metrics is not None:
            _obs.metrics.inc("crypto.group.exp")
        return GroupElement(group, fastpath.pow_mod(group.p, group.q, self.value, exp))

    def inverse(self) -> "GroupElement":
        if _obs.metrics is not None:
            _obs.metrics.inc("crypto.group.inv")
        return GroupElement(self.group, _backend.active().invert(self.value, self.group.p))

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        return self * other.inverse()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.group.p == other.group.p
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.group.p, self.value))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"GroupElement({self.value} mod {self.group.p})"


class SchnorrGroup:
    """The order-q subgroup of Z_p^* for a safe prime p = 2q + 1."""

    __slots__ = ("p", "q", "_generator_value", "exponent_field")

    def __init__(self, p: int, q: int):
        if p != 2 * q + 1:
            raise InvalidParameterError("p must equal 2q + 1")
        if not (is_probable_prime(p) and is_probable_prime(q)):
            raise InvalidParameterError("p and q must both be prime")
        self.p = p
        self.q = q
        self.exponent_field = PrimeField(q, check_prime=False)
        self._generator_value = self._find_generator()

    @classmethod
    def for_security(cls, security_bits: int) -> "SchnorrGroup":
        """Deterministically build the canonical group for a security level.

        Memoized per process: the group is immutable and construction
        re-runs two Miller--Rabin certifications, which protocols would
        otherwise pay on every instantiation.
        """
        group = _GROUP_CACHE.get(security_bits)
        if group is None:
            p, q = safe_prime_parameters(security_bits)
            group = _GROUP_CACHE[security_bits] = cls(p, q)
        return group

    def _find_generator(self) -> int:
        # Any quadratic residue != 1 generates the order-q subgroup since q
        # is prime.  Square successive small integers until one works.
        for base in range(2, 1000):
            candidate = pow(base, 2, self.p)
            if candidate != 1:
                return candidate
        raise InvalidParameterError("could not find a generator (p too small)")

    # -- elements ---------------------------------------------------------------

    @property
    def generator(self) -> GroupElement:
        return GroupElement(self, self._generator_value)

    def identity(self) -> GroupElement:
        return GroupElement(self, 1)

    def element(self, value: int) -> GroupElement:
        """Wrap an integer already known to be a subgroup member."""
        reduced = value % self.p
        if not self.is_member(reduced):
            raise InvalidParameterError(f"{value} is not in the order-{self.q} subgroup")
        return GroupElement(self, reduced)

    def is_member(self, value: int) -> bool:
        return 0 < value < self.p and _backend.active().powmod(value, self.q, self.p) == 1

    def normalize_exponent(self, exponent) -> int:
        """Reduce any exponent-like value (int, FieldElement, negative, >= q)
        into the canonical range ``[0, q)``.

        This is the *single* normalization point shared by
        :meth:`GroupElement.__pow__`, :meth:`power`, and every fastpath
        kernel, so the two public exponentiation entry points can never
        disagree about how out-of-range exponents are interpreted.
        """
        return int(exponent) % self.q

    def power(self, exponent) -> GroupElement:
        """g ** exponent for the canonical generator."""
        return self.generator ** exponent

    def random_exponent(self, rng) -> int:
        return rng.randrange(self.q)

    def random_element(self, rng) -> GroupElement:
        return self.power(self.random_exponent(rng))

    def hash_to_element(self, seed: bytes) -> GroupElement:
        """Derive a subgroup element from a seed with unknown discrete log.

        Used to produce the independent second generator ``h`` for Pedersen
        commitments: nobody knows log_g(h) because h is a hash output.
        """
        counter = 0
        while True:
            digest = hashlib.sha256(b"simbcast-h2g:" + seed + counter.to_bytes(4, "big"))
            candidate = int.from_bytes(digest.digest(), "big") % self.p
            squared = pow(candidate, 2, self.p)
            if squared != 1 and squared != 0:
                return GroupElement(self, squared)
            counter += 1

    def _check_member(self, element: GroupElement) -> None:
        if element.group.p != self.p:
            raise InvalidParameterError("mixing elements of different groups")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SchnorrGroup) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("SchnorrGroup", self.p))

    def __repr__(self) -> str:
        return f"SchnorrGroup(p={self.p}, q={self.q})"
