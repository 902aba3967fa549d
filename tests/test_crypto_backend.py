"""Tests for the crypto arithmetic primitives, RLC batch kernels, and shm tables.

Three layers under the crypto kernels, each with its own contract:

* :mod:`repro.crypto.backend` and ``multi_pow`` — equality with the
  built-in ``pow`` on adversarial inputs (hypothesis-driven);
* :mod:`repro.fastpath.batch` — combiner determinism and the soundness
  property the batch verifiers rest on: a single corrupted item in a
  batch of m is rejected, and the public ``verify_batch`` /
  ``verify_shares`` wrappers return exactly the per-item verdict lists;
* :mod:`repro.parallel.shm` — publish/attach/release round trip for the
  shared-memory warm-table export.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.crypto import backend
from repro.crypto.commitment import PedersenCommitment, PedersenParameters
from repro.crypto.group import SchnorrGroup
from repro.crypto.vss import FeldmanVSS, PedersenVSS
from repro.fastpath import (
    COMBINER_BITS,
    combiner_coefficients,
    feldman_batch_verify,
    pedersen_batch_verify,
    pedersen_vss_batch_verify,
)
from repro.parallel import shm

odd_moduli = st.integers(min_value=3, max_value=1 << 80).map(lambda n: n | 1)
any_ints = st.integers(min_value=-(1 << 80), max_value=1 << 80)
exponents = st.integers(min_value=0, max_value=1 << 80)


# -- the arithmetic primitives -------------------------------------------------------


class TestPythonBackendEquivalence:
    @given(base=any_ints, exponent=exponents, modulus=odd_moduli)
    @settings(max_examples=120, deadline=None)
    def test_powmod_matches_builtin(self, base, exponent, modulus):
        assert backend.active().powmod(base, exponent, modulus) == pow(base, exponent, modulus)

    @given(value=any_ints, modulus=odd_moduli)
    @settings(max_examples=120, deadline=None)
    def test_invert_matches_builtin(self, value, modulus):
        try:
            expected = pow(value, -1, modulus)
        except ValueError:
            with pytest.raises(ValueError):
                backend.active().invert(value, modulus)
            return
        assert backend.active().invert(value, modulus) == expected


class TestMultiPowStrategies:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_product(self, data):
        # Covers both code paths: <= 4 bases (subset ladder) and > 4
        # bases (bucket method).
        modulus = data.draw(odd_moduli)
        count = data.draw(st.integers(min_value=0, max_value=12))
        bases = data.draw(
            st.lists(any_ints, min_size=count, max_size=count)
        )
        exps = data.draw(
            st.lists(exponents, min_size=count, max_size=count)
        )
        want = 1 % modulus
        for b, e in zip(bases, exps, strict=True):
            want = want * pow(b, e, modulus) % modulus
        assert fastpath.multi_pow(modulus, bases, exps) == want

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            fastpath.multi_pow(101, [2, 3], [4])


# -- combiner + batch soundness ------------------------------------------------------


class TestCombiner:
    def test_deterministic_and_in_range(self):
        payload = [17, 23, 99, 2**64 + 5]
        first = combiner_coefficients(b"test", payload, 40)
        second = combiner_coefficients(b"test", payload, 40)
        assert first == second
        assert all(1 <= g <= 2**COMBINER_BITS for g in first)

    def test_binds_payload_and_domain(self):
        payload = [17, 23, 99]
        base = combiner_coefficients(b"test", payload, 8)
        assert combiner_coefficients(b"test", [17, 23, 100], 8) != base
        assert combiner_coefficients(b"other", payload, 8) != base

    def test_rng_override(self):
        reference = random.Random(7)
        want = [1 + reference.getrandbits(COMBINER_BITS) for _ in range(5)]
        assert combiner_coefficients(b"test", [1], 5, rng=random.Random(7)) == want


@pytest.fixture(scope="module")
def batch_setup():
    group = SchnorrGroup.for_security(48)
    params = PedersenParameters.generate(group)
    return group, params


class TestBatchSoundness:
    M = 16

    def test_pedersen_single_corruption_rejected(self, batch_setup):
        group, params = batch_setup
        rng = random.Random(3)
        scheme = PedersenCommitment(params)
        pairs = [scheme.commit(rng.randrange(group.q), rng) for _ in range(self.M)]
        commitments = [c.value for c, _ in pairs]
        values = [o.value % group.q for _, o in pairs]
        randomness = [o.randomness % group.q for _, o in pairs]
        assert pedersen_batch_verify(
            group.p, group.q, params.g.value, params.h.value,
            commitments, values, randomness,
        )
        for bad_index in range(self.M):
            corrupted = list(values)
            corrupted[bad_index] = (corrupted[bad_index] + 1) % group.q
            assert not pedersen_batch_verify(
                group.p, group.q, params.g.value, params.h.value,
                commitments, corrupted, randomness,
            ), f"corruption at index {bad_index} slipped through"

    def test_feldman_single_corruption_rejected(self, batch_setup):
        group, _ = batch_setup
        rng = random.Random(5)
        vss = FeldmanVSS(group, threshold=3, parties=self.M)
        dealing = vss.deal(rng.randrange(group.q), rng)
        xs = list(range(1, self.M + 1))
        values = [
            group.normalize_exponent(dealing.shares[x].value.value) for x in xs
        ]
        commitments = [c.value for c in dealing.commitments]
        assert feldman_batch_verify(
            group.p, group.q, group.generator.value, commitments, xs, values
        )
        corrupted = list(values)
        corrupted[7] = (corrupted[7] + 1) % group.q
        assert not feldman_batch_verify(
            group.p, group.q, group.generator.value, commitments, xs, corrupted
        )

    def test_pedersen_vss_single_corruption_rejected(self, batch_setup):
        group, params = batch_setup
        rng = random.Random(9)
        vss = PedersenVSS(params, threshold=3, parties=self.M)
        dealing = vss.deal(rng.randrange(group.q), rng)
        xs = list(range(1, self.M + 1))
        values = [
            group.normalize_exponent(dealing.shares[x].value.value) for x in xs
        ]
        blinds = [
            group.normalize_exponent(dealing.shares[x].blinding.value) for x in xs
        ]
        commitments = [c.value for c in dealing.commitments]
        assert pedersen_vss_batch_verify(
            group.p, group.q, params.g.value, params.h.value,
            commitments, xs, values, blinds,
        )
        corrupted = list(blinds)
        corrupted[0] = (corrupted[0] + 1) % group.q
        assert not pedersen_vss_batch_verify(
            group.p, group.q, params.g.value, params.h.value,
            commitments, xs, values, corrupted,
        )

    def test_soundness_over_random_combiners(self, batch_setup):
        # The RLC argument itself: for a fixed corrupted batch, a random
        # combiner accepts with probability ~2**-COMBINER_BITS — 200
        # independent draws must all reject.
        group, params = batch_setup
        rng = random.Random(13)
        scheme = PedersenCommitment(params)
        pairs = [scheme.commit(rng.randrange(group.q), rng) for _ in range(8)]
        commitments = [c.value for c, _ in pairs]
        values = [o.value % group.q for _, o in pairs]
        randomness = [o.randomness % group.q for _, o in pairs]
        values[3] = (values[3] + 1) % group.q
        for trial in range(200):
            assert not pedersen_batch_verify(
                group.p, group.q, params.g.value, params.h.value,
                commitments, values, randomness,
                rng=random.Random(trial),
            )

    def test_empty_batches_accept(self, batch_setup):
        group, params = batch_setup
        assert pedersen_batch_verify(
            group.p, group.q, params.g.value, params.h.value, [], [], []
        )
        assert feldman_batch_verify(
            group.p, group.q, group.generator.value, [], [], []
        )

    def test_length_mismatch_raises(self, batch_setup):
        group, params = batch_setup
        with pytest.raises(ValueError):
            pedersen_batch_verify(
                group.p, group.q, params.g.value, params.h.value, [1], [1], []
            )


class TestBatchedVerdictEquivalence:
    """The public wrappers must agree with per-item loops, verdict by verdict."""

    def test_pedersen_verify_batch(self, batch_setup):
        group, params = batch_setup
        rng = random.Random(21)
        scheme = PedersenCommitment(params)
        pairs = [scheme.commit(rng.randrange(group.q), rng) for _ in range(12)]
        # Corrupt two openings and break a third with a non-integer value.
        pairs[2] = (pairs[2][0], type(pairs[2][1])(pairs[2][1].value + 1,
                                                  pairs[2][1].randomness))
        pairs[5] = (pairs[5][0], type(pairs[5][1])(pairs[5][1].value,
                                                   pairs[5][1].randomness + 3))
        pairs[9] = (pairs[9][0], type(pairs[9][1])("junk", pairs[9][1].randomness))
        want = [scheme.verify(c, o) for c, o in pairs]
        assert scheme.verify_batch(pairs) == want
        assert want.count(False) == 3

    def test_feldman_verify_shares(self, batch_setup):
        group, _ = batch_setup
        rng = random.Random(23)
        vss = FeldmanVSS(group, threshold=2, parties=10)
        dealing = vss.deal(rng.randrange(group.q), rng)
        shares = [dealing.shares[x] for x in range(1, 11)]
        bad = shares[4]
        shares[4] = type(bad)(x=bad.x, value=bad.value + bad.value.field.one())
        want = [vss.verify_share(dealing.commitments, s) for s in shares]
        assert vss.verify_shares(dealing.commitments, shares) == want
        assert want.count(False) == 1

    def test_pedersen_vss_verify_shares(self, batch_setup):
        group, params = batch_setup
        rng = random.Random(27)
        vss = PedersenVSS(params, threshold=2, parties=10)
        dealing = vss.deal(rng.randrange(group.q), rng)
        shares = [dealing.shares[x] for x in range(1, 11)]
        bad = shares[7]
        shares[7] = type(bad)(
            x=bad.x, value=bad.value, blinding=bad.blinding + bad.blinding.field.one()
        )
        want = [vss.verify_share(dealing.commitments, s) for s in shares]
        assert vss.verify_shares(dealing.commitments, shares) == want
        assert want.count(False) == 1


# -- shared-memory warm tables -------------------------------------------------------


class TestShmTables:
    def _sample_tables(self):
        group = SchnorrGroup.for_security(48)
        fastpath.clear_caches()
        fastpath.ensure_table(group.p, group.q, group.generator.value)
        tables = fastpath.export_tables()
        assert tables
        return tables

    def test_publish_attach_round_trip(self):
        tables = self._sample_tables()
        published = shm.publish_tables(tables)
        if published is None:
            pytest.skip("shared memory unavailable on this platform")
        try:
            attached = shm.attach_tables(published.descriptor())
            assert attached == tables
        finally:
            shm.release_tables(published)

    def test_release_is_idempotent_and_unlinks(self):
        published = shm.publish_tables(self._sample_tables())
        if published is None:
            pytest.skip("shared memory unavailable on this platform")
        descriptor = published.descriptor()
        shm.release_tables(published)
        shm.release_tables(published)
        assert shm.attach_tables(descriptor) is None

    def test_attach_garbage_descriptor_returns_none(self):
        assert shm.attach_tables({"name": "repro-nonexistent", "size": 64}) is None
        assert shm.attach_tables({}) is None

    def test_empty_tables_not_published(self):
        assert shm.publish_tables({}) is None

    def test_install_round_trip_rebuilds_nothing(self):
        tables = self._sample_tables()
        before = fastpath.stats().get("fastpath.table.builds", 0)
        fastpath.clear_caches()
        for (p, base), rows in tables.items():
            assert fastpath.install_table(p, base, rows)
        assert fastpath.export_tables() == tables
        assert fastpath.stats().get("fastpath.table.builds", 0) == before
