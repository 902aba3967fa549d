"""Tests for Schnorr signatures, the PKI directory, and the opening proof."""

import random

import pytest

from repro.crypto.commitment import PedersenParameters
from repro.crypto.group import SchnorrGroup
from repro.crypto.sigma import OpeningProof, prove_opening, verify_opening
from repro.crypto.signatures import KeyDirectory, KeyPair, Signature, sign, verify
from repro.errors import InvalidParameterError, SignatureError

GROUP = SchnorrGroup.for_security(24)
PARAMS = PedersenParameters.generate(GROUP)


class TestSignatures:
    def setup_method(self):
        self.rng = random.Random(11)
        self.keys = KeyPair.generate(GROUP, self.rng)

    def test_sign_verify_roundtrip(self):
        signature = sign(self.keys, ("msg", 1), self.rng)
        assert verify(GROUP, self.keys.public_key, ("msg", 1), signature)

    def test_wrong_message_rejected(self):
        signature = sign(self.keys, "hello", self.rng)
        assert not verify(GROUP, self.keys.public_key, "goodbye", signature)

    def test_wrong_key_rejected(self):
        other = KeyPair.generate(GROUP, self.rng)
        signature = sign(self.keys, "hello", self.rng)
        assert not verify(GROUP, other.public_key, "hello", signature)

    def test_tampered_signature_rejected(self):
        signature = sign(self.keys, "hello", self.rng)
        tampered = Signature(signature.challenge, (signature.response + 1) % GROUP.q)
        assert not verify(GROUP, self.keys.public_key, "hello", tampered)

    def test_malformed_signature_rejected_not_raised(self):
        assert not verify(GROUP, self.keys.public_key, "hello", Signature("x", "y"))

    def test_signatures_are_randomized(self):
        s1 = sign(self.keys, "m", random.Random(1))
        s2 = sign(self.keys, "m", random.Random(2))
        assert s1 != s2
        assert verify(GROUP, self.keys.public_key, "m", s1)
        assert verify(GROUP, self.keys.public_key, "m", s2)


class TestKeyDirectory:
    def setup_method(self):
        self.rng = random.Random(12)
        self.directory = KeyDirectory.generate(GROUP, 4, self.rng)

    def test_sign_and_verify_by_index(self):
        signature = self.directory.sign(2, "payload", self.rng)
        assert self.directory.verify(2, "payload", signature)
        self.directory.check(2, "payload", signature)

    def test_cross_party_verification_fails(self):
        signature = self.directory.sign(2, "payload", self.rng)
        assert not self.directory.verify(3, "payload", signature)
        with pytest.raises(SignatureError):
            self.directory.check(3, "payload", signature)

    def test_unknown_party_rejected(self):
        with pytest.raises(InvalidParameterError):
            self.directory.public_key(99)

    def test_all_parties_have_distinct_keys(self):
        keys = {int(self.directory.public_key(i)) for i in range(1, 5)}
        assert len(keys) == 4


class TestOpeningProof:
    def test_roundtrip(self):
        rng = random.Random(15)
        value, blinding = 5, 777
        statement = (PARAMS.g ** value) * (PARAMS.h ** blinding)
        proof = prove_opening(PARAMS, value, blinding, rng, context="c")
        assert verify_opening(PARAMS, statement, proof, context="c")

    def test_wrong_statement_rejected(self):
        rng = random.Random(15)
        proof = prove_opening(PARAMS, 5, 777, rng)
        wrong = (PARAMS.g ** 6) * (PARAMS.h ** 777)
        assert not verify_opening(PARAMS, wrong, proof)

    def test_tampered_proof_rejected(self):
        rng = random.Random(15)
        statement = (PARAMS.g ** 5) * (PARAMS.h ** 777)
        proof = prove_opening(PARAMS, 5, 777, rng)
        tampered = OpeningProof(
            proof.commitment,
            (proof.response_value + 1) % GROUP.q,
            proof.response_blinding,
        )
        assert not verify_opening(PARAMS, statement, tampered)

    def test_context_binding(self):
        rng = random.Random(16)
        statement = (PARAMS.g ** 3) * (PARAMS.h ** 9)
        proof = prove_opening(PARAMS, 3, 9, rng, context="a")
        assert not verify_opening(PARAMS, statement, proof, context="b")
