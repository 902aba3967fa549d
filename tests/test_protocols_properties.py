"""Property-based tests: Definition 3.1 invariants across the protocol zoo.

Hypothesis drives random inputs, seeds, corruption patterns and adversary
behaviours through every protocol, checking the two parallel-broadcast
properties (consistency, correctness) plus protocol-specific invariants.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import InputSubstitution, PassiveAdversary
from repro.net.adversary import Adversary
from repro.protocols import (
    CGMABroadcast,
    CGMAParallelDealing,
    ChorRabinBroadcast,
    GennaroBroadcast,
    IdealSimultaneousBroadcast,
    PiGBroadcast,
    SequentialBroadcast,
)

N, T = 4, 1

input_vectors = st.lists(
    st.integers(min_value=0, max_value=1), min_size=N, max_size=N
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

FAST_FACTORIES = [
    lambda: SequentialBroadcast(N, T),
    lambda: IdealSimultaneousBroadcast(N, T),
    lambda: PiGBroadcast(N, T, backend="ideal"),
]
CRYPTO_FACTORIES = [
    lambda: CGMABroadcast(N, T, security_bits=16),
    lambda: CGMAParallelDealing(N, T, security_bits=16),
    lambda: ChorRabinBroadcast(N, T, security_bits=16),
    lambda: GennaroBroadcast(N, T, security_bits=16),
]


class TestHonestInvariants:
    @given(inputs=input_vectors, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_fast_protocols_announce_inputs(self, inputs, seed):
        for factory in FAST_FACTORIES:
            protocol = factory()
            execution = protocol.run(inputs, seed=seed)
            announced = execution.announced_vector()
            assert announced == tuple(inputs)  # correctness
            vectors = {tuple(execution.outputs[i]) for i in execution.honest}
            assert len(vectors) == 1  # consistency

    @given(inputs=input_vectors, seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=8, deadline=None)
    def test_crypto_protocols_announce_inputs(self, inputs, seed):
        for factory in CRYPTO_FACTORIES:
            protocol = factory()
            assert protocol.announced(inputs, seed=seed) == tuple(inputs)


class TestAdversarialInvariants:
    @given(
        inputs=input_vectors,
        corrupted=st.integers(min_value=1, max_value=N),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=10, deadline=None)
    def test_silent_corruption_never_breaks_honest_coordinates(
        self, inputs, corrupted, seed
    ):
        """Whatever one party withholds, honest announced values survive."""
        for factory in FAST_FACTORIES + [lambda: GennaroBroadcast(N, T, security_bits=16)]:
            protocol = factory()
            execution = protocol.run(
                inputs, adversary=Adversary(corrupted=[corrupted]), seed=seed
            )
            announced = execution.announced_vector()
            for party in range(1, N + 1):
                if party != corrupted:
                    assert announced[party - 1] == inputs[party - 1]
            # Consistency among the honest parties always holds.
            vectors = {tuple(execution.outputs[i]) for i in execution.honest}
            assert len(vectors) == 1

    @given(
        inputs=input_vectors,
        substituted=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=10, deadline=None)
    def test_input_substitution_announces_substituted_value(
        self, inputs, substituted, seed
    ):
        protocol = GennaroBroadcast(N, T, security_bits=16)
        announced = protocol.announced(
            inputs,
            adversary=InputSubstitution(protocol, corrupted=[2], substitution=substituted),
            seed=seed,
        )
        assert announced[1] == substituted
        assert announced[0] == inputs[0]

    @given(
        inputs=input_vectors,
        pair=st.sampled_from([(1, 2), (1, 3), (2, 4), (3, 4)]),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=20, deadline=None)
    def test_pig_xor_invariant_for_any_corrupted_pair(self, inputs, pair, seed):
        """Claim 6.6 quantified over corrupted pairs and inputs."""
        from repro.adversaries import XorAttacker

        protocol = PiGBroadcast(N, T, backend="ideal")
        announced = protocol.announced(
            inputs, adversary=XorAttacker(protocol, corrupted_pair=list(pair)), seed=seed
        )
        xor = 0
        for bit in announced:
            xor ^= bit
        assert xor == 0
        for party in range(1, N + 1):
            if party not in pair:
                assert announced[party - 1] == inputs[party - 1]


class TestCrashFaults:
    """Failure injection: parties that crash mid-protocol."""

    class CrashAt(Adversary):
        """Run the honest program, then go silent from a given round on."""

        def __init__(self, party, crash_round, protocol):
            super().__init__(corrupted=[party])
            self.party = party
            self.crash_round = crash_round
            self._inner = PassiveAdversary(corrupted=[party])
            self._protocol = protocol

        def setup(self, n, config, corrupted_inputs, rng, session=""):
            super().setup(n, config, corrupted_inputs, rng, session)
            self._inner.set_program_factory(self._protocol.program)
            self._inner.setup(n, config, corrupted_inputs, rng, session)

        def act(self, round_number, rushed):
            outbox = self._inner.act(round_number, rushed)
            if round_number >= self.crash_round:
                return {self.party: []}
            return outbox

    @pytest.mark.parametrize("crash_round", [1, 2])
    def test_gennaro_crash_mid_protocol(self, crash_round):
        """A party crashing before/after commit is announced as default,
        and honest coordinates survive."""
        protocol = GennaroBroadcast(N, T, security_bits=16)
        adversary = self.CrashAt(party=3, crash_round=crash_round, protocol=protocol)
        announced = protocol.announced((1, 1, 1, 1), adversary=adversary, seed=9)
        assert announced[0] == 1 and announced[1] == 1 and announced[3] == 1
        assert announced[2] in (0, 1)  # committed-then-crashed may still open as 0

    @pytest.mark.parametrize("crash_round", [1, 4, 7, 10])
    def test_cgma_crash_any_phase(self, crash_round):
        """CGMA disqualifies or reconstructs around a crashed party; honest
        values are always announced and consistency holds."""
        protocol = CGMABroadcast(5, 2, security_bits=16)
        adversary = self.CrashAt(party=2, crash_round=crash_round, protocol=protocol)
        execution = protocol.run((1, 1, 1, 1, 1), adversary=adversary, seed=10)
        announced = execution.announced_vector()
        for party in (1, 3, 4, 5):
            assert announced[party - 1] == 1
        vectors = {tuple(execution.outputs[i]) for i in execution.honest}
        assert len(vectors) == 1

    def test_cgma_crash_after_dealing_still_reconstructs(self):
        """If the dealer crashes *after* its dealing completed, the other
        parties reconstruct its value from their shares (round 3·(2-1)+3+1)."""
        protocol = CGMABroadcast(5, 2, security_bits=16)
        adversary = self.CrashAt(party=2, crash_round=7, protocol=protocol)
        announced = protocol.announced((1, 1, 1, 1, 1), adversary=adversary, seed=11)
        assert announced == (1, 1, 1, 1, 1)
