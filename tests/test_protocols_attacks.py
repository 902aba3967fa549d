"""Adversarial behaviour of the protocol zoo.

Each protocol is exercised against the attack the paper (or our ablation)
associates with it: the sequential copy attack of Section 3.2, the
commitment copy/maul/echo attacks on commit-then-reveal, VSS misbehaviour
against CGMA, and the A* XOR attack of Claim 6.6 against Π_G.
"""

import pytest

from repro import fastpath
from repro.adversaries import (
    Adversary,
    CommitEchoAdversary,
    InputSubstitution,
    SequentialCopier,
    XorAttacker,
)
from repro.crypto.vss import FeldmanVSS
from repro.errors import InvalidParameterError
from repro.net.adversary import PassiveAdversary
from repro.net.message import broadcast as bc
from repro.obs import Metrics
from repro.obs import runtime as obs_runtime
from repro.protocols import (
    CGMABroadcast,
    CGMAPedersen,
    ChorRabinBroadcast,
    GennaroBroadcast,
    IdealSimultaneousBroadcast,
    NaiveCommitReveal,
    PiGBroadcast,
    SequentialBroadcast,
)


class TestSequentialCopyAttack:
    """Section 3.2: the i-th and n-th announced entries become equal."""

    def test_copier_tracks_target_exactly(self):
        protocol = SequentialBroadcast(4, 1)
        for x1 in (0, 1):
            for seed in range(4):
                announced = protocol.announced(
                    (x1, 1, 0, 0),
                    adversary=SequentialCopier(copier=4, target=1),
                    seed=seed,
                )
                assert announced[3] == x1
                assert announced[:3] == (x1, 1, 0)

    def test_anticorrelating_copier(self):
        protocol = SequentialBroadcast(4, 1)
        for x1 in (0, 1):
            announced = protocol.announced(
                (x1, 0, 0, 0),
                adversary=SequentialCopier(
                    copier=4, target=1, transform=lambda b: 1 - b
                ),
                seed=1,
            )
            assert announced[3] == 1 - x1

    def test_copier_must_follow_target(self):
        with pytest.raises(ValueError):
            SequentialCopier(copier=1, target=3)


class TestCommitRevealAttacks:
    def test_naive_protocol_is_broken_by_echo(self):
        """The ablation: verbatim copy + rushed reveal echo succeeds."""
        protocol = NaiveCommitReveal(4, 1)
        for x1 in (0, 1):
            announced = protocol.announced(
                (x1, 1, 0, 0),
                adversary=CommitEchoAdversary(copier=4, target=1),
                seed=2,
            )
            assert announced[3] == x1  # perfect copy

    def test_gennaro_resists_echo(self):
        """The context-bound NIZK rejects a replayed commitment."""
        protocol = GennaroBroadcast(4, 1, security_bits=16)
        for x1 in (0, 1):
            announced = protocol.announced(
                (x1, 1, 0, 0),
                adversary=CommitEchoAdversary(
                    copier=4,
                    target=1,
                    commit_tag="gen:commit",
                    reveal_tag="gen:reveal",
                ),
                seed=3,
            )
            assert announced[3] == 0  # disqualified, constant default
            assert announced[:3] == (x1, 1, 0)

    def test_chor_rabin_resists_echo(self):
        """Copied commitment passes no proof of knowledge and carries the
        wrong identity tag; the copier is announced as the default."""
        protocol = ChorRabinBroadcast(4, 1, security_bits=16)
        for x1 in (0, 1):
            announced = protocol.announced(
                (x1, 1, 0, 0),
                adversary=CommitEchoAdversary(
                    copier=4,
                    target=1,
                    commit_tag="cr:commit",
                    reveal_tag="cr:reveal",
                ),
                seed=4,
            )
            assert announced[3] == 0
            assert announced[:3] == (x1, 1, 0)

    def test_gennaro_resists_maul(self):
        """Shifting the commitment group element invalidates the proof."""
        protocol = GennaroBroadcast(4, 1, security_bits=16)

        def shift_commitment(payload):
            raw_commitment, raw_proof = payload
            return (raw_commitment * 2, raw_proof)

        announced = protocol.announced(
            (1, 1, 0, 0),
            adversary=CommitEchoAdversary(
                copier=4,
                target=1,
                commit_tag="gen:commit",
                reveal_tag="gen:reveal",
                transform_commit=shift_commitment,
            ),
            seed=5,
        )
        assert announced[3] == 0

    def test_silent_committer_defaults(self):
        for protocol in (
            GennaroBroadcast(4, 1, security_bits=16),
            ChorRabinBroadcast(4, 1, security_bits=16),
            NaiveCommitReveal(4, 1),
        ):
            announced = protocol.announced(
                (1, 1, 1, 1), adversary=Adversary(corrupted=[3]), seed=6
            )
            assert announced == (1, 1, 0, 1)


class TestCGMAAttacks:
    def test_silent_dealer_disqualified(self):
        protocol = CGMABroadcast(5, 2, security_bits=16)
        announced = protocol.announced(
            (1, 1, 1, 1, 1), adversary=Adversary(corrupted=[2]), seed=7
        )
        assert announced == (1, 0, 1, 1, 1)

    def test_commitment_copier_disqualified(self):
        """A dealer that replays party 1's commitment vector cannot produce
        consistent shares and is disqualified (announced 0), for both values
        of the victim's bit."""

        class CommitmentCopier(Adversary):
            def __init__(self):
                super().__init__(corrupted=[3])
                self._copied = None

            def act(self, round_number, rushed):
                for message in rushed[3].broadcasts(tag="cgma:1:com"):
                    if message.sender == 1:
                        self._copied = message.payload
                # Dealer 3's dealing round is 3 * 2 + 1 = 7.
                if round_number == 7 and self._copied is not None:
                    return {3: [bc(self._copied, tag="cgma:3:com")]}
                return {3: []}

        protocol = CGMABroadcast(5, 2, security_bits=16)
        for x1 in (0, 1):
            announced = protocol.announced(
                (x1, 0, 1, 0, 1), adversary=CommitmentCopier(), seed=8
            )
            assert announced[2] == 0
            assert announced[0] == x1

    def test_bad_shares_resolved_by_complaints(self):
        """A dealer that shortchanges one party must publish the share; the
        complaining party adopts it and the protocol completes."""

        class OneBadShare(Adversary):
            """Dealer 2 deals honestly except party 4 gets a corrupted share."""

            def setup(self, n, config, corrupted_inputs, rng, session=""):
                super().setup(n, config, corrupted_inputs, rng, session)
                from repro.crypto.vss import FeldmanVSS

                self.vss = FeldmanVSS(config["group"], 2, 5)
                self.dealing = self.vss.deal(1, rng)

            def act(self, round_number, rushed):
                from repro.net.message import send

                if round_number == 4:  # dealer 2's dealing round
                    drafts = [
                        bc(
                            tuple(int(c) for c in self.dealing.commitments),
                            tag="cgma:2:com",
                        )
                    ]
                    for j in (1, 3, 4, 5):
                        value = int(self.dealing.shares[j].value)
                        if j == 4:
                            value = (value + 1) % self.vss.field.modulus
                        drafts.append(send(j, value, tag="cgma:2:share"))
                    return {2: drafts}
                if round_number == 5:  # complaints are rushed to us here
                    self.complainers = {
                        m.sender
                        for m in rushed[2].broadcasts(tag="cgma:2:complain")
                    }
                    return {2: []}
                if round_number == 6:  # dealer 2's resolution round
                    published = tuple(
                        (j, int(self.dealing.shares[j].value))
                        for j in sorted(self.complainers)
                    )
                    return {2: [bc(published, tag="cgma:2:resolve")]}
                return {2: []}

        protocol = CGMABroadcast(5, 2, security_bits=16)
        announced = protocol.announced(
            (1, 1, 1, 1, 1), adversary=OneBadShare(corrupted=[2]), seed=9
        )
        assert announced == (1, 1, 1, 1, 1)

    def test_unresolved_complaint_disqualifies(self):
        """Same as above but the dealer ignores the complaint."""

        class BadShareNoResolve(Adversary):
            def setup(self, n, config, corrupted_inputs, rng, session=""):
                super().setup(n, config, corrupted_inputs, rng, session)
                from repro.crypto.vss import FeldmanVSS

                self.vss = FeldmanVSS(config["group"], 2, 5)
                self.dealing = self.vss.deal(1, rng)

            def act(self, round_number, rushed):
                from repro.net.message import send

                if round_number == 4:
                    drafts = [
                        bc(
                            tuple(int(c) for c in self.dealing.commitments),
                            tag="cgma:2:com",
                        )
                    ]
                    for j in (1, 3, 4, 5):
                        value = int(self.dealing.shares[j].value)
                        if j == 4:
                            value = (value + 1) % self.vss.field.modulus
                        drafts.append(send(j, value, tag="cgma:2:share"))
                    return {2: drafts}
                return {2: []}

        protocol = CGMABroadcast(5, 2, security_bits=16)
        announced = protocol.announced(
            (1, 1, 1, 1, 1), adversary=BadShareNoResolve(corrupted=[2]), seed=10
        )
        assert announced == (1, 0, 1, 1, 1)

    @pytest.mark.parametrize(
        "protocol_cls,seed,crypto",
        [
            (
                CGMABroadcast,
                5,
                {
                    "crypto.field.mul": 525,
                    "crypto.group.exp": 595,
                    "crypto.group.mul": 435,
                    "crypto.vss.deals": 5,
                    "crypto.vss.shares_rejected": 10,
                    "crypto.vss.shares_verified": 145,
                },
            ),
            (
                CGMAPedersen,
                6,
                {
                    "crypto.field.mul": 600,
                    "crypto.group.exp": 755,
                    "crypto.group.mul": 595,
                    "crypto.vss.deals": 5,
                    "crypto.vss.shares_rejected": 10,
                    "crypto.vss.shares_verified": 145,
                },
            ),
        ],
    )
    def test_tampered_reveal_shares_are_discarded(self, protocol_cls, seed, crypto):
        """Party 2 deals and complains honestly, then bumps its reveal shares
        of dealers 1 and 3.  Every party rejects those two shares (the per-item
        fallback after a batch reject) and announces the inputs.  The literals
        were taken when every party re-verified every reveal; with the reveal
        memo, parties 2..5 reuse party 1's verdicts and are charged the same."""

        class RevealTamperer(PassiveAdversary):
            def act(self, round_number, rushed):
                outboxes = super().act(round_number, rushed)
                for drafts in outboxes.values():
                    for k, draft in enumerate(drafts):
                        if draft.tag == "cgma:reveal":
                            entries = tuple(
                                (dealer, _bump(raw) if dealer in (1, 3) else raw)
                                for dealer, raw in draft.payload
                            )
                            drafts[k] = bc(entries, tag=draft.tag)
                return outboxes

        def _bump(raw):
            return (raw[0] + 1, raw[1]) if isinstance(raw, tuple) else raw + 1

        protocol = protocol_cls(5, 2, security_bits=16)
        fastpath.reset_stats()
        with obs_runtime.observed(metrics=Metrics()) as (_, metrics):
            execution = protocol.run(
                (1, 0, 1, 1, 0), adversary=RevealTamperer(corrupted=[2]), seed=seed
            )
        assert execution.outputs == {i: (1, 0, 1, 1, 0) for i in (1, 3, 4, 5)}
        counters = metrics.snapshot()["counters"]
        assert {k: v for k, v in counters.items() if k.startswith("crypto.")} == crypto
        # One batch check per dealer's reveal, not one per party and dealer.
        assert fastpath.stats()["counters"]["fastpath.batch.calls"] == 5

    def test_every_execution_builds_its_own_vss(self):
        protocol = CGMABroadcast(5, 2, security_bits=16)
        first, second = (protocol.run((1, 0, 1, 1, 0), seed=3) for _ in range(2))
        assert first.outputs == second.outputs
        assert isinstance(first.config["vss"], FeldmanVSS)
        assert first.config["vss"] is not second.config["vss"]


class TestPiGXorAttack:
    """Claim 6.6: under A*, the announced bits always XOR to zero."""

    @pytest.mark.parametrize("backend", ["ideal", "bgw"])
    def test_xor_invariant(self, backend):
        protocol = PiGBroadcast(5, 2, backend=backend)
        attacker = XorAttacker(protocol, corrupted_pair=[2, 4])
        for seed in range(6):
            inputs = [(seed >> i) & 1 for i in range(5)]
            announced = protocol.announced(inputs, adversary=attacker, seed=seed)
            xor = 0
            for w in announced:
                xor ^= w
            assert xor == 0
            # Honest coordinates are untouched.
            assert announced[0] == inputs[0]
            assert announced[2] == inputs[2]
            assert announced[4] == inputs[4]

    def test_rigged_bits_are_random_across_seeds(self):
        protocol = PiGBroadcast(5, 2, backend="ideal")
        attacker = XorAttacker(protocol, corrupted_pair=[2, 4])
        values = set()
        for seed in range(20):
            announced = protocol.announced((0, 0, 0, 0, 0), adversary=attacker, seed=seed)
            values.add(announced[1])
        assert values == {0, 1}

    def test_attacker_needs_exactly_two_parties(self):
        protocol = PiGBroadcast(5, 2)
        with pytest.raises(InvalidParameterError):
            XorAttacker(protocol, corrupted_pair=[2])
        with pytest.raises(InvalidParameterError):
            XorAttacker(protocol, corrupted_pair=[1, 2, 3])

    def test_attacker_requires_deviation_hook(self):
        with pytest.raises(InvalidParameterError):
            XorAttacker(SequentialBroadcast(5, 2), corrupted_pair=[1, 2])


class TestInputSubstitution:
    """The ideal-model-legal deviation must work everywhere."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SequentialBroadcast(4, 1),
            lambda: IdealSimultaneousBroadcast(4, 1),
            lambda: CGMABroadcast(4, 1, security_bits=16),
            lambda: ChorRabinBroadcast(4, 1, security_bits=16),
            lambda: GennaroBroadcast(4, 1, security_bits=16),
            lambda: PiGBroadcast(4, 1, backend="ideal"),
        ],
    )
    def test_constant_substitution(self, factory):
        protocol = factory()
        announced = protocol.announced(
            (1, 1, 1, 1),
            adversary=InputSubstitution(protocol, corrupted=[2], substitution=0),
            seed=11,
        )
        assert announced == (1, 0, 1, 1)

    def test_flipper(self):
        protocol = GennaroBroadcast(4, 1, security_bits=16)
        announced = protocol.announced(
            (1, 1, 0, 1),
            adversary=InputSubstitution(
                protocol, corrupted=[3], substitution=lambda _party, original: 1 - original
            ),
            seed=12,
        )
        assert announced == (1, 1, 1, 1)

    def test_mapping_substitution(self):
        protocol = SequentialBroadcast(4, 1)
        announced = protocol.announced(
            (1, 1, 1, 1),
            adversary=InputSubstitution(
                protocol, corrupted=[2, 3], substitution={2: 0}
            ),
            seed=13,
        )
        assert announced == (1, 0, 1, 1)


class TestInteractiveConsistencyIndependence:
    """Section 3.2's closing remark: parallel-composed broadcast — even over
    a real Byzantine broadcast substrate — provides no independence."""

    def test_honest_roundtrip_over_dolev_strong(self):
        from repro.protocols import PeaseInteractiveConsistency

        protocol = PeaseInteractiveConsistency(
            4, 1, primitive="dolev-strong", security_bits=16
        )
        assert protocol.announced((1, 0, 0, 1), seed=21) == (1, 0, 0, 1)

    def test_rushing_copier_breaks_independence(self):
        from repro.adversaries import RushedBroadcastCopier
        from repro.core import g_star_star_report
        from repro.protocols import PeaseInteractiveConsistency
        import random

        protocol = PeaseInteractiveConsistency(4, 1, primitive="ideal")
        copier = lambda: RushedBroadcastCopier(
            copier=4, target=1, source_tag="ideal:ic1", own_tag="ideal:ic4"
        )
        for x1 in (0, 1):
            announced = protocol.announced(
                (x1, 1, 0, None), adversary=copier(), seed=22
            )
            assert announced[3] == x1  # perfect correlation with party 1
        report = g_star_star_report(
            protocol,
            copier,
            samples_per_point=30,
            rng=random.Random(23),
            honest_assignments=[(0, 0, 0), (1, 0, 0)],
            corrupted_assignments=[(0,)],
        )
        assert report.violated
        assert report.gap == 1.0
