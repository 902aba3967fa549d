"""Tests for Pedersen and trapdoor commitments."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.commitment import (
    Opening,
    PedersenCommitment,
    PedersenParameters,
    TrapdoorCommitment,
)
from repro.crypto.group import SchnorrGroup
from repro.errors import InvalidParameterError

GROUP = SchnorrGroup.for_security(24)
PARAMS = PedersenParameters.generate(GROUP)


class TestPedersenCommitment:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, value, seed):
        scheme = PedersenCommitment(PARAMS)
        commitment, opening = scheme.commit(value, random.Random(seed))
        assert scheme.verify(commitment, opening)
        assert scheme.check(commitment, opening) == value % GROUP.q

    def test_binding_to_value(self):
        scheme = PedersenCommitment(PARAMS)
        commitment, opening = scheme.commit(7, random.Random(0))
        assert not scheme.verify(commitment, Opening(8, opening.randomness))

    def test_binding_to_randomness(self):
        scheme = PedersenCommitment(PARAMS)
        commitment, opening = scheme.commit(7, random.Random(0))
        assert not scheme.verify(
            commitment, Opening(7, (opening.randomness + 1) % GROUP.q)
        )

    def test_homomorphism(self):
        scheme = PedersenCommitment(PARAMS)
        rng = random.Random(3)
        c1, o1 = scheme.commit(4, rng)
        c2, o2 = scheme.commit(9, rng)
        combined = c1 * c2
        joint_opening = Opening(
            (o1.value + o2.value) % GROUP.q,
            (o1.randomness + o2.randomness) % GROUP.q,
        )
        assert scheme.verify(combined, joint_opening)

    def test_value_reduced_mod_q(self):
        scheme = PedersenCommitment(PARAMS)
        assert scheme.commit_with_randomness(GROUP.q + 3, 5) == scheme.commit_with_randomness(3, 5)

    def test_malformed_opening_returns_false(self):
        scheme = PedersenCommitment(PARAMS)
        commitment, _ = scheme.commit(7, random.Random(0))
        assert not scheme.verify(commitment, Opening("junk", "junk"))


class TestTrapdoorCommitment:
    def test_requires_trapdoor_or_rng(self):
        with pytest.raises(InvalidParameterError):
            TrapdoorCommitment(GROUP)

    def test_trapdoor_range_validated(self):
        with pytest.raises(InvalidParameterError):
            TrapdoorCommitment(GROUP, trapdoor=0)
        with pytest.raises(InvalidParameterError):
            TrapdoorCommitment(GROUP, trapdoor=GROUP.q)

    def test_honest_use_matches_pedersen(self):
        scheme = TrapdoorCommitment(GROUP, rng=random.Random(0))
        commitment, opening = scheme.commit(3, random.Random(1))
        assert scheme.verify(commitment, opening)
