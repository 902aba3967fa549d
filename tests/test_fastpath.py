"""The fastpath contract: same bits, fewer cycles.

Three layers of defence for the ``repro.fastpath`` kernels:

* **property tests** (hypothesis) — each kernel against its textbook
  oracle (``tests/crypto_oracles.py``) over adversarial inputs: negative
  / oversized exponents, non-subgroup bases, degenerate sizes;
* **the cost model** — the ambient ``crypto.*`` counters of a fixed
  workload are pinned to literal counts (measured-cost artifacts embed
  these counters verbatim), and its values are checked against the
  oracles;
* **integration equivalence** — scheduler bucketing vs the per-party
  scan it replaced, warm-state export/replay, and a parallel-engine
  smoke run.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.crypto.commitment import PedersenCommitment, PedersenParameters
from repro.crypto.field import PrimeField
from repro.crypto.group import (
    GroupElement,
    SchnorrGroup,
    cached_safe_primes,
    seed_safe_primes,
)
from repro.crypto.polynomial import lagrange_coefficients_at_zero
from repro.crypto.secret_sharing import ShamirSharing
from repro.crypto.vss import FeldmanVSS, PedersenVSS
from repro.net.message import Message
from repro.net.scheduler import bucket_by_recipient
from repro.obs import Metrics
from repro.obs import runtime as _obs_runtime
from repro.parallel import ExperimentEngine
from repro.parallel.warmup import apply_warm_state, export_warm_state, prewarm

from . import crypto_oracles as oracles

SECURITY_LEVELS = (16, 24, 48)
GROUPS = {bits: SchnorrGroup.for_security(bits) for bits in SECURITY_LEVELS}


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each test starts cold so promotion/warm-up behaviour is its own."""
    fastpath.clear_caches()
    yield
    fastpath.clear_caches()


# -- kernel properties ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    bits=st.sampled_from(SECURITY_LEVELS),
    base_seed=st.integers(min_value=2, max_value=2**64),
    exponent=st.integers(min_value=-(2**80), max_value=2**80),
)
def test_pow_mod_matches_builtin_pow(bits, base_seed, exponent):
    group = GROUPS[bits]
    base = base_seed % group.p or 2
    reduced = group.normalize_exponent(exponent)
    expected = pow(base, reduced, group.p)
    # Repeat past the promotion threshold so both the cold path and the
    # windowed table path are exercised on the same inputs.
    for _ in range(fastpath.kernels.PROMOTION_THRESHOLD + 2):
        assert fastpath.pow_mod(group.p, group.q, base, reduced) == expected


@settings(max_examples=40, deadline=None)
@given(
    bits=st.sampled_from(SECURITY_LEVELS),
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=2, max_value=2**64),
            st.integers(min_value=0, max_value=2**64),
        ),
        min_size=0,
        max_size=7,
    ),
)
def test_multi_pow_matches_product_of_pows(bits, pairs):
    group = GROUPS[bits]
    bases = [b % group.p or 2 for b, _ in pairs]
    exponents = [e % group.q for _, e in pairs]
    expected = 1
    for base, exponent in zip(bases, exponents, strict=True):
        expected = (expected * pow(base, exponent, group.p)) % group.p
    assert fastpath.multi_pow(group.p, bases, exponents) == expected


@settings(max_examples=40, deadline=None)
@given(
    bits=st.sampled_from(SECURITY_LEVELS),
    values=st.lists(st.integers(min_value=1, max_value=2**64), min_size=1, max_size=6),
    x=st.integers(min_value=0, max_value=2**64),
)
def test_vss_expected_matches_naive_product(bits, values, x):
    """Includes non-subgroup commitment values and x >= q: the kernel must
    agree with the oracle loop (which reduces each x-power mod q) exactly."""
    group = GROUPS[bits]
    commitment_values = [v % group.p or 2 for v in values]
    commitments = [GroupElement(group, value) for value in commitment_values]
    expected = oracles.vss_expected(group, commitments, x).value
    assert fastpath.vss_expected(group.p, group.q, commitment_values, x) == expected


@settings(max_examples=30, deadline=None)
@given(
    bits=st.sampled_from(SECURITY_LEVELS),
    xs=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=8, unique=True),
)
def test_cached_lagrange_matches_uncached(bits, xs):
    field = GROUPS[bits].exponent_field
    reference = oracles.lagrange_coefficients_at_zero(field, xs)
    first = lagrange_coefficients_at_zero(field, xs)  # fills the memo
    second = lagrange_coefficients_at_zero(field, xs)  # hits the memo
    assert first == reference
    assert second == reference


def test_lagrange_cache_hit_charges_identical_field_muls():
    field = PrimeField(GROUPS[24].q)
    xs = [1, 2, 3, 4, 5]
    with _obs_runtime.observed(metrics=Metrics()) as (_, cold):
        lagrange_coefficients_at_zero(field, xs)
    with _obs_runtime.observed(metrics=Metrics()) as (_, warm):
        lagrange_coefficients_at_zero(field, xs)
    assert cold.snapshot()["counters"] == warm.snapshot()["counters"]
    m = len(xs)
    assert warm.snapshot()["counters"]["crypto.field.mul"] == 2 * m * m - m


# -- exponent normalization (satellite b) --------------------------------------------


def test_exponent_normalization_negative_and_oversized():
    group = GROUPS[24]
    g = group.generator
    assert g ** -1 == g ** (group.q - 1)
    assert g ** (group.q + 5) == g**5
    assert g**0 == group.identity()
    assert group.power(-3) == group.power(group.q - 3)
    element = group.exponent_field.element(7)
    assert g**element == g**7  # FieldElement exponents normalize too
    for exponent in (-1, -3, group.q + 5, 2 * group.q + 7, element):
        assert g**exponent == oracles.group_exp(g, exponent)


def test_power_and_dunder_pow_agree():
    group = GROUPS[16]
    for exponent in (-5, 0, 3, group.q - 1, group.q, group.q + 11, 2 * group.q + 7):
        assert group.power(exponent) == group.generator**exponent


# -- the logical cost model ---------------------------------------------------------


def _crypto_workload(bits):
    rng = random.Random(1234)
    group = SchnorrGroup.for_security(bits)
    params = PedersenParameters.generate(group)
    scheme = PedersenCommitment(params)
    values = {}
    commitment, opening = scheme.commit(41, rng)
    values["verify"] = scheme.verify(commitment, opening)
    feldman = FeldmanVSS(group, threshold=2, parties=5)
    dealing = feldman.deal(17, rng)
    values["feldman"] = [
        feldman.verify_share(dealing.commitments, share)
        for share in dealing.shares.values()
    ]
    values["feldman_secret"] = feldman.reconstruct(
        dealing.commitments, dealing.shares.values()
    ).value
    pedersen = PedersenVSS(params, threshold=2, parties=5)
    pdealing = pedersen.deal(23, rng)
    values["pedersen"] = [
        pedersen.verify_share(pdealing.commitments, share)
        for share in pdealing.shares.values()
    ]
    values["pedersen_secret"] = pedersen.reconstruct(
        pdealing.commitments, pdealing.shares.values()
    ).value
    values["commitment"] = commitment.value
    values["commitments"] = [c.value for c in dealing.commitments]
    return values


def _oracle_workload(bits):
    """``_crypto_workload``'s values recomputed on the oracles, draw for draw."""
    rng = random.Random(1234)
    group = SchnorrGroup.for_security(bits)
    params = PedersenParameters.generate(group)
    field = group.exponent_field
    sharing = ShamirSharing(field, 2, 5)

    def padded(polynomial):
        coefficients = [c.value for c in polynomial.coefficients]
        return coefficients + [0] * (3 - len(coefficients))

    def secret(shares):
        subset = list(shares)[:3]
        lambdas = oracles.lagrange_coefficients_at_zero(field, [s.x for s in subset])
        return sum(c * s.value for c, s in zip(lambdas, subset, strict=True)).value

    values = {}
    randomness = group.random_exponent(rng)  # PedersenCommitment.commit's one draw
    commitment = oracles.pedersen_commit(params, 41, randomness)
    values["verify"] = commitment == oracles.pedersen_commit(params, 41, randomness)
    polynomial, shares = sharing.share(17, rng)
    commitments = [oracles.group_exp(group.generator, a) for a in padded(polynomial)]
    values["feldman"] = [
        oracles.group_exp(group.generator, s.value.value)
        == oracles.vss_expected(group, commitments, s.x)
        for s in shares.values()
    ]
    values["feldman_secret"] = secret(shares.values())
    value_poly, value_shares = sharing.share(23, rng)
    blind_poly, blind_shares = sharing.share(field.random(rng), rng)
    pedersen_commitments = [
        oracles.pedersen_commit(params, a, b)
        for a, b in zip(padded(value_poly), padded(blind_poly), strict=True)
    ]
    values["pedersen"] = [
        oracles.pedersen_commit(params, value_shares[x].value.value, blind_shares[x].value.value)
        == oracles.vss_expected(group, pedersen_commitments, x)
        for x in value_shares
    ]
    values["pedersen_secret"] = secret(value_shares.values())
    values["commitment"] = commitment.value
    values["commitments"] = [c.value for c in commitments]
    return values


#: The ``crypto.*`` counters of ``_crypto_workload(24)``: the logical cost
#: model (textbook operation counts), independent of kernels and caches.
PINNED_WORKLOAD_COUNTERS = {
    "crypto.field.mul": 81,
    "crypto.group.exp": 103,
    "crypto.group.mul": 75,
    "crypto.vss.deals": 2,
    "crypto.vss.shares_verified": 20,
}


def test_crypto_cost_model_pinned_and_values_match_oracle():
    with _obs_runtime.observed(metrics=Metrics()) as (_, cold_metrics):
        values = _crypto_workload(24)
    with _obs_runtime.observed(metrics=Metrics()) as (_, warm_metrics):
        assert _crypto_workload(24) == values
    assert cold_metrics.snapshot()["counters"] == PINNED_WORKLOAD_COUNTERS
    assert warm_metrics.snapshot()["counters"] == PINNED_WORKLOAD_COUNTERS
    assert values == _oracle_workload(24)


def test_fastpath_stats_stay_out_of_ambient_metrics():
    """Topology-dependent telemetry must never leak into artifact counters."""
    with _obs_runtime.observed(metrics=Metrics()) as (_, metrics):
        _crypto_workload(16)
    assert not any(
        key.startswith("fastpath.") for key in metrics.snapshot()["counters"]
    )
    assert fastpath.stats()["counters"]  # ...but the local registry saw traffic


def test_reset_stats_snapshots_then_clears():
    """reset_stats() brackets one workload in a long-lived process: it
    returns the pre-clear snapshot and empties only the counters — the
    kernel caches (and their warmth) survive."""
    _crypto_workload(16)
    assert fastpath.stats()["counters"]
    warm_caches = fastpath.cache_sizes()
    before = fastpath.reset_stats()
    assert before["counters"]  # the snapshot captured the traffic...
    assert not fastpath.stats()["counters"]  # ...and the registry is clean
    assert fastpath.cache_sizes() == warm_caches  # caches untouched
    _crypto_workload(16)
    bracketed = fastpath.stats()["counters"]
    assert bracketed  # fresh traffic lands in the cleared registry
    for name, value in bracketed.items():
        assert value <= before["counters"].get(name, float("inf")) + value


# -- scheduler bucketing -------------------------------------------------------------


def test_bucket_by_recipient_matches_naive_scan():
    rng = random.Random(7)
    messages = [
        Message(
            sender=rng.randrange(1, 8),
            recipient=rng.choice([-1, 1, 2, 3, 4, 5, 6, 7]),
            payload=i,
        )
        for i in range(200)
    ]
    recipients = {2, 5, 7}
    buckets = bucket_by_recipient(messages, recipients)
    assert set(buckets) == recipients
    for party in recipients:
        assert buckets[party] == [m for m in messages if m.addressed_to(party)]


def test_bucket_by_recipient_empty_cases():
    assert bucket_by_recipient([], {1, 2}) == {1: [], 2: []}
    broadcast = Message(sender=1, recipient=-1, payload="x")
    assert bucket_by_recipient([broadcast], set()) == {}


def test_message_slots_reject_stray_attributes():
    message = Message(sender=1, recipient=2, payload="p")
    with pytest.raises((AttributeError, TypeError)):
        message.extra = 1  # type: ignore[attr-defined]


# -- warm-state export / replay ------------------------------------------------------


def test_warm_state_round_trip():
    prewarm([16, 24])
    payload = export_warm_state()
    assert {bits for bits, _, _ in payload["safe_primes"]} >= {16, 24}
    assert payload["tables"]  # generator + pedersen h tables resident
    before = set(cached_safe_primes())
    fastpath.clear_caches()
    apply_warm_state(payload)
    assert set(cached_safe_primes()) == before
    assert set(fastpath.cached_table_keys()) == set(payload["tables"])


def test_seed_safe_primes_ignores_malformed_entries():
    seed_safe_primes([(999, 36, 17)])  # p != 2q + 1: silently dropped
    seed_safe_primes([(999, 35, 17)])  # q.bit_length() != 999: silently dropped
    assert all(bits != 999 for bits, _, _ in cached_safe_primes())


def _square(x):
    return x * x


def test_engine_parallel_map_matches_serial():
    with ExperimentEngine(jobs=2) as engine:
        assert engine.map(_square, [(i,) for i in range(12)]) == [
            i * i for i in range(12)
        ]
        # Pool persists across map calls on the same engine.
        assert engine.map(_square, [(i,) for i in range(5)]) == [
            i * i for i in range(5)
        ]
