"""Random-linear-combination batch verification kernels.

Verifying m Pedersen openings (or VSS share checks) one at a time costs
m full verifications.  The standard batching trick collapses them into
~one multi-exponentiation: draw small random coefficients γ_1..γ_m and
check the single aggregated identity

    prod_i C_i ** γ_i  ==  g ** (Σ γ_i m_i mod q) * h ** (Σ γ_i r_i mod q)

(for Pedersen openings; the VSS variants aggregate the share checks the
same way).  **Completeness is exact**: when every item verifies, both
sides are the same subgroup element for *any* coefficients, because the
per-item identities multiply together.  **Soundness is probabilistic**:
if at least one item is invalid, the aggregate accepts only when the
coefficients hit a specific linear relation, which happens with
probability ≤ 1 / 2**:data:`COMBINER_BITS` over the coefficient space.
Callers therefore treat a batch *reject* as authoritative only after
re-checking items individually (the batch never decides which item is
bad), and a batch *accept* as the verdict.

Determinism: coefficients are derived by hashing the batch content
(Fiat–Shamir style) — never from wall-clock entropy, and deliberately
*not* from the trial RNG stream, because existing call sites
(``vss.reconstruct``) must not shift RNG consumption and move
bit-identical artifacts.  Same batch, same coefficients, same verdict,
on every process topology.  Tests may inject an explicit
``rng`` to exercise the combiner distribution.

Telemetry lands in the process-local ``fastpath.batch.*`` counters
(:data:`repro.fastpath.kernels.STATS`); the deterministic ``crypto.*``
counters are charged by the *call sites* in :mod:`repro.crypto`, not
here.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Sequence

from .kernels import STATS, multi_pow, pow_mod

#: Bits per random-linear-combination coefficient.  Soundness error of a
#: single batched check is ~2**-16; small coefficients keep the shared
#: multi-exp ladder short, which is where the batch speedup comes from.
COMBINER_BITS = 16


def _combiner_seed(domain: bytes, payload: Sequence[int]) -> bytes:
    """A content hash binding the coefficients to the exact batch.

    Encoding is injective: every value is serialized at one shared fixed
    width (wide enough for the batch maximum), and the width and count
    ride in the header — so no two distinct payloads share a digest.
    One ``join`` + one hash keeps the seed an order of magnitude cheaper
    than per-value hasher updates, which matters because combiner
    derivation is pure overhead on top of the aggregated check.
    """
    values = [int(value) for value in payload]
    width = ((max(values).bit_length() + 7) // 8 or 1) if values else 1
    blob = b"".join(value.to_bytes(width, "big") for value in values)
    header = domain + width.to_bytes(2, "big") + len(values).to_bytes(4, "big")
    return hashlib.sha256(header + blob).digest()


def combiner_coefficients(
    domain: bytes, payload: Iterable[int], count: int, rng: Optional[object] = None
) -> List[int]:
    """``count`` nonzero combiner coefficients in ``[1, 2**COMBINER_BITS]``.

    Deterministic (SHA-256 of ``domain`` + length-prefixed ``payload``)
    unless an explicit ``rng`` is supplied for tests.
    """
    if rng is not None:
        return [1 + rng.getrandbits(COMBINER_BITS) for _ in range(count)]
    seed = _combiner_seed(domain, payload)
    coefficients: List[int] = []
    block_index = 0
    width = COMBINER_BITS // 8
    while len(coefficients) < count:
        block = hashlib.sha256(seed + block_index.to_bytes(4, "big")).digest()
        block_index += 1
        for offset in range(0, len(block) - width + 1, width):
            if len(coefficients) >= count:
                break
            coefficients.append(1 + int.from_bytes(block[offset : offset + width], "big"))
    return coefficients


def _record(kind: str, count: int, ok: bool) -> None:
    STATS.inc("fastpath.batch.calls")
    STATS.inc("fastpath.batch.items", count)
    STATS.inc(f"fastpath.batch.{kind}.calls")
    STATS.inc("fastpath.batch.accepts" if ok else "fastpath.batch.rejects")


def pedersen_batch_verify(
    p: int,
    q: int,
    g: int,
    h: int,
    commitments: Sequence[int],
    values: Sequence[int],
    randomness: Sequence[int],
    rng: Optional[object] = None,
) -> bool:
    """Batch-check ``C_i == g**values[i] * h**randomness[i]`` for all i.

    Exponents must be pre-normalized to ``[0, q)`` by the caller (the
    same contract as :func:`repro.fastpath.kernels.pedersen_commit`).
    """
    count = len(commitments)
    if not count == len(values) == len(randomness):
        raise ValueError("batch components must have equal length")
    if count == 0:
        return True
    payload = [p, q, g, h, *commitments, *values, *randomness]
    gammas = combiner_coefficients(b"pedersen-open", payload, count, rng)
    aggregated = multi_pow(p, list(commitments), gammas)
    value_exp = sum(gamma * value for gamma, value in zip(gammas, values, strict=True)) % q
    blind_exp = sum(gamma * rand for gamma, rand in zip(gammas, randomness, strict=True)) % q
    expected = pow_mod(p, q, g, value_exp) * pow_mod(p, q, h, blind_exp) % p
    ok = aggregated % p == expected
    _record("pedersen", count, ok)
    return ok


def _aggregate_commitment_exponents(
    q: int, degree_plus_one: int, xs: Sequence[int], gammas: Sequence[int]
) -> List[int]:
    """``e_j = Σ_i γ_i * (x_i**j mod q) mod q`` for ``j < degree_plus_one``.

    These mirror the per-item exponents of the textbook share check
    (``x**j mod q``), aggregated under the combiner — all small-int
    arithmetic, no group operations.
    """
    exponents: List[int] = []
    x_powers = [1] * len(xs)
    for _ in range(degree_plus_one):
        exponents.append(sum(g * xp for g, xp in zip(gammas, x_powers, strict=True)) % q)
        x_powers = [xp * x % q for xp, x in zip(x_powers, xs, strict=True)]
    return exponents


def feldman_batch_verify(
    p: int,
    q: int,
    generator: int,
    commitments: Sequence[int],
    xs: Sequence[int],
    values: Sequence[int],
    rng: Optional[object] = None,
) -> bool:
    """Batch the Feldman share checks ``g**v_i == prod_j c_j**(x_i**j mod q)``.

    ``values`` must be pre-normalized to ``[0, q)``; ``xs`` are the raw
    share indices.
    """
    count = len(xs)
    if count != len(values):
        raise ValueError("batch components must have equal length")
    if count == 0:
        return True
    payload = [p, q, generator, *commitments, *xs, *values]
    gammas = combiner_coefficients(b"feldman-share", payload, count, rng)
    value_exp = sum(gamma * value for gamma, value in zip(gammas, values, strict=True)) % q
    actual = pow_mod(p, q, generator, value_exp)
    exponents = _aggregate_commitment_exponents(q, len(commitments), xs, gammas)
    expected = multi_pow(p, list(commitments), exponents)
    ok = actual % p == expected % p
    _record("feldman", count, ok)
    return ok


def pedersen_vss_batch_verify(
    p: int,
    q: int,
    g: int,
    h: int,
    commitments: Sequence[int],
    xs: Sequence[int],
    values: Sequence[int],
    blindings: Sequence[int],
    rng: Optional[object] = None,
) -> bool:
    """Batch the Pedersen VSS checks ``g**v_i h**b_i == prod_j C_j**(x_i**j)``."""
    count = len(xs)
    if not count == len(values) == len(blindings):
        raise ValueError("batch components must have equal length")
    if count == 0:
        return True
    payload = [p, q, g, h, *commitments, *xs, *values, *blindings]
    gammas = combiner_coefficients(b"pedersen-share", payload, count, rng)
    value_exp = sum(gamma * value for gamma, value in zip(gammas, values, strict=True)) % q
    blind_exp = sum(gamma * blind for gamma, blind in zip(gammas, blindings, strict=True)) % q
    actual = pow_mod(p, q, g, value_exp) * pow_mod(p, q, h, blind_exp) % p
    exponents = _aggregate_commitment_exponents(q, len(commitments), xs, gammas)
    expected = multi_pow(p, list(commitments), exponents)
    ok = actual == expected % p
    _record("pedersen_vss", count, ok)
    return ok
