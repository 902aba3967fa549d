"""The fastpath contract: same bits, fewer cycles.

Three layers of defence for the ``repro.fastpath`` kernels:

* **property tests** (hypothesis) — each kernel against its textbook
  oracle (``tests/crypto_oracles.py``) over adversarial inputs: negative
  / oversized exponents, non-subgroup bases, degenerate sizes;
* **the cost model** — the ambient counters of a fixed workload (group
  and field crypto, a Shamir dealing and a 3-party BGW evaluation) and of
  one Θ-over-BGW evaluation of g (every gate kind) are pinned to literal
  counts (measured-cost artifacts embed these counters verbatim), and
  their values are checked against the oracles and ``g_reference``;
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
from repro.crypto.secret_sharing import ShamirSharing, Share, lagrange_coefficients_at_zero
from repro.crypto.vss import FeldmanVSS, PedersenVSS
from repro.mpc.bgw import BGWProtocol, recombine
from repro.mpc.circuit import Circuit
from repro.mpc.gfunc import g_reference
from repro.net.message import Message
from repro.net.network import run_protocol
from repro.net.scheduler import bucket_by_recipient
from repro.obs import Metrics
from repro.obs import runtime as _obs_runtime
from repro.parallel import ExperimentEngine
from repro.parallel.warmup import apply_warm_state, export_warm_state, prewarm
from repro.protocols.theta import ThetaProtocol

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
    reference, _ = oracles.lagrange_coefficients_at_zero(field.modulus, xs)
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
    _, products = oracles.lagrange_coefficients_at_zero(field.modulus, xs)
    assert warm.snapshot()["counters"]["crypto.field.mul"] == products == 2 * m * m - m


# -- GF(p) loops: Shamir sharing and BGW recombination -------------------------------

#: BGW's small fields, where a zero top coefficient comes about once in p
#: dealings, and a Mersenne prime where it almost never does.
FIELD_MODULI = (7, 11, 13, 2**61 - 1)


class _ScriptedRng:
    """Feeds a dealing (or the textbook draw) the coefficient draws a test chose."""

    def __init__(self, draws):
        self._draws = list(draws)

    def randrange(self, modulus):
        return self._draws.pop(0) % modulus


@st.composite
def _dealings(draw):
    """``(p, degree, parties, secret, coefficient draws)`` for one Shamir dealing."""
    p = draw(st.sampled_from(FIELD_MODULI))
    degree = draw(st.integers(min_value=0, max_value=4))
    parties = draw(st.integers(min_value=degree + 1, max_value=min(p - 1, degree + 5)))
    residue = st.integers(min_value=0, max_value=p - 1)
    # Zero is drawn often: a zero top coefficient is what a dealing strips.
    maybe_zero = st.one_of(st.just(0), residue)
    secret = draw(maybe_zero)
    middle = draw(st.lists(residue, min_size=max(degree - 1, 0), max_size=max(degree - 1, 0)))
    top = [draw(maybe_zero)] if degree else []
    # A dealing draws degree+1 coefficients and overwrites the first.
    return p, degree, parties, secret, [0, *middle, *top]


def _stripped(coefficients):
    while coefficients and coefficients[-1] == 0:
        coefficients = coefficients[:-1]
    return coefficients


def _counted(fn, *args):
    """``fn(*args)`` and the ``crypto.field.mul`` it charged."""
    with _obs_runtime.observed(metrics=Metrics()) as (_, metrics):
        result = fn(*args)
    snapshot = metrics.snapshot()
    assert set(snapshot["counters"]) <= {"crypto.field.mul"} and not snapshot["histograms"]
    return result, snapshot["counters"].get("crypto.field.mul", 0)


@settings(max_examples=150, deadline=None)
@given(dealing=_dealings(), data=st.data())
def test_field_loops_match_the_textbook_oracles(dealing, data):
    """Dealt coefficients and shares, secrets and recombined BGW shares
    equal the textbook loops', stripped top coefficients included, and
    each charges ``crypto.field.mul`` with exactly the oracle's product
    count."""
    p, degree, parties, secret, draws = dealing
    field = PrimeField(p)
    sharing = ShamirSharing(field, degree, parties)
    coefficients = oracles.shamir_coefficients(p, degree, _ScriptedRng(draws), secret)
    assert coefficients == _stripped([secret, *draws[1:]])
    expected, products = oracles.shamir_shares(p, coefficients, parties)
    (dealt, points), charged = _counted(sharing.deal, secret, _ScriptedRng(draws))
    assert dealt == coefficients
    assert points == expected
    assert charged == products
    # ...drawing from a real generator exactly as often as the textbook draw.
    seed = data.draw(st.integers(min_value=0, max_value=2**64))
    dealer, reference = random.Random(seed), random.Random(seed)
    dealt, _ = sharing.deal(secret, dealer)
    assert dealt == oracles.shamir_coefficients(p, degree, reference, secret)
    assert dealer.getstate() == reference.getstate()

    order = data.draw(st.permutations([Share(x, y) for x, y in enumerate(points, 1)]))
    recovered, charged = _counted(sharing.reconstruct, order)
    expected, products = oracles.shamir_reconstruct(p, degree, order)
    assert type(recovered) is int and recovered == expected == secret
    assert charged == products

    residue = st.integers(min_value=0, max_value=p - 1)
    received = {j: data.draw(residue) for j in range(1, parties + 1)}
    lagrange, _ = oracles.lagrange_coefficients_at_zero(p, range(1, parties + 1))
    reduced, charged = _counted(
        recombine, field, lagrange, [received[j] for j in range(1, parties + 1)]
    )
    expected, products = oracles.bgw_recombine(p, lagrange, received)
    assert type(reduced) is int and reduced == expected
    assert charged == products


# -- exponent normalization (satellite b) --------------------------------------------


def test_exponent_normalization_negative_and_oversized():
    group = GROUPS[24]
    g = group.generator
    assert g ** -1 == g ** (group.q - 1)
    assert g ** (group.q + 5) == g**5
    assert int(g**0) == 1
    assert group.power(-3) == group.power(group.q - 3)
    for exponent in (-1, -3, group.q + 5, 2 * group.q + 7):
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
    values["feldman_secret"] = feldman.reconstruct(dealing.commitments, dealing.shares.values())
    pedersen = PedersenVSS(params, threshold=2, parties=5)
    pdealing = pedersen.deal(23, rng)
    values["pedersen"] = [
        pedersen.verify_share(pdealing.commitments, share)
        for share in pdealing.shares.values()
    ]
    values["pedersen_secret"] = pedersen.reconstruct(pdealing.commitments, pdealing.shares.values())
    values["commitment"] = commitment.value
    values["commitments"] = [c.value for c in dealing.commitments]
    sharing = ShamirSharing(PrimeField(13), 2, 5)
    _, values["shamir"] = sharing.deal(7, rng)
    shares = [Share(x, y) for x, y in enumerate(values["shamir"], 1)]
    values["shamir_secret"] = sharing.reconstruct(shares[1:])
    execution = run_protocol(
        BGWProtocol(_bgw_circuit(), n=3, t=1), BGW_INPUTS, seed=rng.randrange(2**32)
    )
    values["bgw"] = execution.outputs
    return values


#: ``(x1 * x2) * x3 + x2`` over GF(11): two multiplication rounds.
BGW_INPUTS = ({"v": 4}, {"v": 9}, {"v": 5})


def _bgw_circuit():
    circuit = Circuit(PrimeField(11))
    x1, x2, x3 = (circuit.input(owner, "v") for owner in (1, 2, 3))
    circuit.mark_output(circuit.add(circuit.mul(circuit.mul(x1, x2), x3), x2))
    return circuit


def _oracle_workload(bits):
    """``_crypto_workload``'s values recomputed on the oracles, draw for draw."""
    rng = random.Random(1234)
    group = SchnorrGroup.for_security(bits)
    params = PedersenParameters.generate(group)
    q = group.q

    def dealing(p, secret):
        """A (2, 5) dealing: its coefficients padded with 0 to three, and its shares."""
        coefficients = oracles.shamir_coefficients(p, 2, rng, secret)
        points, _ = oracles.shamir_shares(p, coefficients, 5)
        padded = coefficients + [0] * (3 - len(coefficients))
        return padded, [Share(x, y) for x, y in enumerate(points, 1)]

    values = {}
    randomness = group.random_exponent(rng)  # PedersenCommitment.commit's one draw
    commitment = oracles.pedersen_commit(params, 41, randomness)
    values["verify"] = commitment == oracles.pedersen_commit(params, 41, randomness)
    coefficients, shares = dealing(q, 17)
    commitments = [oracles.group_exp(group.generator, a) for a in coefficients]
    values["feldman"] = [
        oracles.group_exp(group.generator, s.value) == oracles.vss_expected(group, commitments, s.x)
        for s in shares
    ]
    values["feldman_secret"], _ = oracles.shamir_reconstruct(q, 2, shares)
    value_coefficients, value_shares = dealing(q, 23)
    blind_coefficients, blind_shares = dealing(q, rng.randrange(q))  # the blinding secret first
    pedersen_commitments = [
        oracles.pedersen_commit(params, a, b)
        for a, b in zip(value_coefficients, blind_coefficients, strict=True)
    ]
    values["pedersen"] = [
        oracles.pedersen_commit(params, v.value, b.value)
        == oracles.vss_expected(group, pedersen_commitments, v.x)
        for v, b in zip(value_shares, blind_shares, strict=True)
    ]
    values["pedersen_secret"], _ = oracles.shamir_reconstruct(q, 2, value_shares)
    values["commitment"] = commitment.value
    values["commitments"] = [c.value for c in commitments]
    _, shamir = dealing(13, 7)
    values["shamir"] = [share.value for share in shamir]
    values["shamir_secret"], _ = oracles.shamir_reconstruct(13, 2, shamir[1:])
    rng.randrange(2**32)  # the BGW run's seed
    clear = _bgw_circuit().evaluate({(i, "v"): v["v"] for i, v in enumerate(BGW_INPUTS, 1)})
    values["bgw"] = {i: tuple(clear) for i in (1, 2, 3)}
    return values


#: The counters of ``_crypto_workload(24)``: the logical cost model
#: (textbook operation counts), independent of kernels and caches.  The
#: Shamir dealing's degree-2 coefficient is 0, so its stripped polynomial
#: charges 2 multiplications per share.
PINNED_WORKLOAD_COUNTERS = {
    "crypto.field.mul": 256,
    "crypto.group.exp": 103,
    "crypto.group.mul": 75,
    "crypto.vss.deals": 2,
    "crypto.vss.shares_verified": 20,
    "mpc.bgw.evaluations": 3,
    "mpc.bgw.input_wires_shared": 3,
    "mpc.bgw.mul_gates": 6,
    "mpc.bgw.mul_rounds": 6,
    "net.bytes.sent": 1440,
    "net.bytes.sent.party.1": 480,
    "net.bytes.sent.party.2": 480,
    "net.bytes.sent.party.3": 480,
    "net.messages.corrupted": 0,
    "net.messages.delivered": 36,
    "net.messages.honest": 36,
    "net.messages.sent": 36,
    "net.messages.sent.party.1": 12,
    "net.messages.sent.party.2": 12,
    "net.messages.sent.party.3": 12,
    "net.rounds": 5,
}


def test_crypto_cost_model_pinned_and_values_match_oracle():
    with _obs_runtime.observed(metrics=Metrics()) as (_, cold_metrics):
        values = _crypto_workload(24)
    with _obs_runtime.observed(metrics=Metrics()) as (_, warm_metrics):
        assert _crypto_workload(24) == values
    assert cold_metrics.snapshot()["counters"] == PINNED_WORKLOAD_COUNTERS
    assert warm_metrics.snapshot()["counters"] == PINNED_WORKLOAD_COUNTERS
    assert values == _oracle_workload(24)


#: Θ's inputs ``(x_i, b_i)``: parties 2 and 4 raise their auxiliary bit,
#: so g rigs their coordinates to ``r`` and ``r XOR y`` with ``y = 1``.
THETA_INPUTS = ((1, 0), (0, 1), (1, 0), (1, 1), (1, 0))

#: The counters of one Θ-over-BGW evaluation of g at n = 5, t = 2, seed 7:
#: a circuit with every gate kind (58 ``MUL``, 34 ``SUB``, 23 ``ADD``,
#: 10 ``SCALE``, 6 ``CONST``) and multiplicative depth 12, so 12 resharing
#: rounds.  Each party sends in (1 input + 12 mul + 1 output) = 14 rounds,
#: to all 5 parties: 70 messages.  Of the 305 dealings, four draw both
#: random coefficients as 0, so each charges 5 multiplications for a
#: nonzero product and none for a zero one.
PINNED_THETA_COUNTERS = {
    "crypto.field.mul": 6875,
    "mpc.bgw.evaluations": 5,
    "mpc.bgw.input_wires_shared": 15,
    "mpc.bgw.mul_gates": 290,
    "mpc.bgw.mul_rounds": 60,
    "net.bytes.sent": 54300,
    "net.bytes.sent.party.1": 10860,
    "net.bytes.sent.party.2": 10860,
    "net.bytes.sent.party.3": 10860,
    "net.bytes.sent.party.4": 10860,
    "net.bytes.sent.party.5": 10860,
    "net.messages.corrupted": 0,
    "net.messages.delivered": 350,
    "net.messages.honest": 350,
    "net.messages.sent": 350,
    "net.messages.sent.party.1": 70,
    "net.messages.sent.party.2": 70,
    "net.messages.sent.party.3": 70,
    "net.messages.sent.party.4": 70,
    "net.messages.sent.party.5": 70,
    "net.rounds": 15,
}


class _Coin:
    """A stand-in rng for ``g_reference`` whose one draw is a given bit."""

    def __init__(self, bit):
        self.bit = bit

    def randrange(self, stop):
        return self.bit


def test_building_theta_over_bgw_charges_nothing():
    """g's circuit is public: building it (the equality indicator's
    denominator included) is no protocol operation, so it charges no
    counter wherever the protocol object is built."""
    with _obs_runtime.observed(metrics=Metrics()) as (_, metrics):
        ThetaProtocol(n=5, t=2, backend="bgw")
    assert metrics.snapshot()["counters"] == {}


def test_theta_over_bgw_cost_model_pinned_on_every_gate_kind():
    """Cold (schedule not yet derived, caches empty) and warm, one
    evaluation of g charges the same literal counts, and every party
    outputs g: pass-through for the honest coordinates, ``r`` and
    ``r XOR y`` for the raised pair, with ``r`` the circuit's coin."""
    protocol = ThetaProtocol(n=5, t=2, backend="bgw")
    runs = []
    for _ in range(2):
        with _obs_runtime.observed(metrics=Metrics()) as (_, metrics):
            outputs = run_protocol(protocol, list(THETA_INPUTS), seed=7).outputs
        assert metrics.snapshot()["counters"] == PINNED_THETA_COUNTERS
        runs.append(outputs)
    assert runs[0] == runs[1]
    w = runs[0][1]
    assert set(runs[0].values()) == {w}
    assert w == g_reference(THETA_INPUTS, _Coin(w[1]))
    assert w[1] != THETA_INPUTS[1][0] and w[3] != THETA_INPUTS[3][0]


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
