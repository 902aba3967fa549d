"""Tests specific to the Pedersen-VSS CGMA ablation and protocol base helpers."""

import pytest

from repro.adversaries import Adversary
from repro.errors import InvalidParameterError
from repro.net.message import broadcast as bc
from repro.net.message import send
from repro.protocols import CGMAPedersen, coerce_bit
from repro.protocols.base import ParallelBroadcastProtocol


class TestCoerceBit:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, 0), (1, 1), (True, 1), (False, 0), (2, 0), (-1, 0), ("x", 0), (None, 0)],
    )
    def test_coercion(self, value, expected):
        assert coerce_bit(value) == expected

    def test_custom_default(self):
        assert coerce_bit("junk", default=None) is None
        assert coerce_bit(1, default=None) == 1


class TestBaseValidation:
    def test_n_and_t_validated(self):
        with pytest.raises(InvalidParameterError):
            ParallelBroadcastProtocol(1, 0)
        with pytest.raises(InvalidParameterError):
            ParallelBroadcastProtocol(3, 3)

    def test_program_abstract(self):
        protocol = ParallelBroadcastProtocol(3, 1)
        with pytest.raises(NotImplementedError):
            protocol.program(None, 0)

    def test_repr(self):
        assert "n=3" in repr(ParallelBroadcastProtocol(3, 1))


class TestCGMAPedersen:
    def test_honest_roundtrip(self):
        protocol = CGMAPedersen(5, 2, security_bits=16)
        for inputs in [(1, 0, 1, 1, 0), (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)]:
            assert protocol.announced(inputs, seed=1) == inputs

    def test_silent_dealer_disqualified(self):
        protocol = CGMAPedersen(5, 2, security_bits=16)
        announced = protocol.announced(
            (1, 1, 1, 1, 1), adversary=Adversary(corrupted=[3]), seed=2
        )
        assert announced == (1, 1, 0, 1, 1)

    def test_share_serialization_is_pair(self):
        protocol = CGMAPedersen(5, 2, security_bits=16)
        execution = protocol.run((1, 0, 1, 1, 0), seed=3)
        share_messages = [
            m for m in execution.rounds[0].messages if m.tag == "cgma:1:share"
        ]
        assert share_messages
        for message in share_messages:
            value, blinding = message.payload
            assert isinstance(value, int) and isinstance(blinding, int)

    def test_commitments_hide_dealt_bit_perfectly(self):
        """With Pedersen VSS the commitment to the secret is not g^s: the
        same public commitment vector structure arises for either bit."""
        protocol = CGMAPedersen(5, 2, security_bits=16)
        execution = protocol.run((1, 0, 1, 1, 0), seed=4)
        group = execution.config["group"]
        commitments = [
            m.payload
            for m in execution.rounds[0].messages
            if m.tag == "cgma:1:com"
        ][0]
        # Feldman would put g^1 at index 0 for a dealt 1; Pedersen must not.
        assert commitments[0] != int(group.generator)

    def test_bad_share_complaint_resolution_with_pairs(self):
        """A corrupted Pedersen dealer that shortchanges a party and then
        resolves the complaint correctly survives."""

        class BadShareResolver(Adversary):
            def setup(self, n, config, corrupted_inputs, rng, session=""):
                super().setup(n, config, corrupted_inputs, rng, session)
                from repro.crypto.commitment import PedersenParameters
                from repro.crypto.vss import PedersenVSS

                parameters = PedersenParameters.generate(
                    config["group"], seed=b"cgma-pedersen"
                )
                self.vss = PedersenVSS(parameters, 2, 5)
                self.dealing = self.vss.deal(1, rng)
                self.complainers = set()

            def _serialize(self, share):
                return (int(share.value), int(share.blinding))

            def act(self, round_number, rushed):
                if round_number == 4:  # dealer 2's dealing round
                    drafts = [
                        bc(
                            tuple(int(c) for c in self.dealing.commitments),
                            tag="cgma:2:com",
                        )
                    ]
                    for j in (1, 3, 4, 5):
                        payload = self._serialize(self.dealing.shares[j])
                        if j == 4:
                            payload = (payload[0] + 1, payload[1])  # corrupt one
                        drafts.append(send(j, payload, tag="cgma:2:share"))
                    return {2: drafts}
                if round_number == 5:
                    self.complainers = {
                        m.sender
                        for m in rushed[2].broadcasts(tag="cgma:2:complain")
                    }
                    return {2: []}
                if round_number == 6:
                    published = tuple(
                        (j, self._serialize(self.dealing.shares[j]))
                        for j in sorted(self.complainers)
                    )
                    return {2: [bc(published, tag="cgma:2:resolve")]}
                return {2: []}

        protocol = CGMAPedersen(5, 2, security_bits=16)
        announced = protocol.announced(
            (1, 1, 1, 1, 1), adversary=BadShareResolver(corrupted=[2]), seed=5
        )
        assert announced == (1, 1, 1, 1, 1)

    def test_malformed_share_payload_triggers_complaint(self):
        """Garbage share payloads parse to None and are complained about."""

        class GarbageShares(Adversary):
            def setup(self, n, config, corrupted_inputs, rng, session=""):
                super().setup(n, config, corrupted_inputs, rng, session)
                from repro.crypto.commitment import PedersenParameters
                from repro.crypto.vss import PedersenVSS

                parameters = PedersenParameters.generate(
                    config["group"], seed=b"cgma-pedersen"
                )
                self.vss = PedersenVSS(parameters, 2, 5)
                self.dealing = self.vss.deal(1, rng)

            def act(self, round_number, rushed):
                if round_number == 4:
                    drafts = [
                        bc(
                            tuple(int(c) for c in self.dealing.commitments),
                            tag="cgma:2:com",
                        )
                    ]
                    drafts += [
                        send(j, "not-a-share", tag="cgma:2:share")
                        for j in (1, 3, 4, 5)
                    ]
                    return {2: drafts}
                return {2: []}  # never resolves the complaints

        protocol = CGMAPedersen(5, 2, security_bits=16)
        announced = protocol.announced(
            (1, 1, 1, 1, 1), adversary=GarbageShares(corrupted=[2]), seed=6
        )
        assert announced == (1, 0, 1, 1, 1)
