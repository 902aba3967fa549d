"""Honest-execution properties of every parallel broadcast protocol.

Definition 3.1's consistency and correctness, plus the round-complexity
shapes the paper attributes to each construction.
"""

import pytest

from repro.errors import InvalidParameterError
from repro.net.adversary import PassiveAdversary
from repro.protocols import (
    CGMABroadcast,
    CGMAParallelDealing,
    CGMAPedersen,
    ChorRabinBroadcast,
    GennaroBroadcast,
    IdealSimultaneousBroadcast,
    NaiveCommitReveal,
    PiGBroadcast,
    SequentialBroadcast,
    ThetaProtocol,
)

N, T = 4, 1

PROTOCOL_FACTORIES = [
    pytest.param(lambda: SequentialBroadcast(N, T), id="sequential"),
    pytest.param(lambda: IdealSimultaneousBroadcast(N, T), id="ideal-sb"),
    pytest.param(lambda: CGMABroadcast(N, T, security_bits=16), id="cgma"),
    pytest.param(lambda: CGMAParallelDealing(N, T, security_bits=16), id="cgma-par"),
    pytest.param(lambda: CGMAPedersen(N, T, security_bits=16), id="cgma-pedersen"),
    pytest.param(lambda: ChorRabinBroadcast(N, T, security_bits=16), id="chor-rabin"),
    pytest.param(lambda: GennaroBroadcast(N, T, security_bits=16), id="gennaro"),
    pytest.param(lambda: PiGBroadcast(N, T, backend="ideal"), id="pi-g-ideal"),
    pytest.param(lambda: PiGBroadcast(N, T, backend="bgw"), id="pi-g-bgw"),
    pytest.param(lambda: NaiveCommitReveal(N, T), id="naive"),
]


@pytest.mark.parametrize("factory", PROTOCOL_FACTORIES)
class TestHonestExecutions:
    def test_announced_equals_inputs(self, factory):
        protocol = factory()
        for inputs in [(0, 0, 0, 0), (1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 1, 0)]:
            assert protocol.announced(inputs, seed=3) == inputs

    def test_consistency_across_parties(self, factory):
        protocol = factory()
        execution = protocol.run((1, 0, 0, 1), seed=4)
        vectors = {tuple(execution.outputs[i]) for i in execution.honest}
        assert len(vectors) == 1

    def test_passive_corruption_preserves_announced(self, factory):
        protocol = factory()
        announced = protocol.announced(
            (1, 0, 1, 1), adversary=PassiveAdversary(corrupted=[2]), seed=5
        )
        assert announced == (1, 0, 1, 1)

    def test_deterministic_under_seed(self, factory):
        protocol = factory()
        assert protocol.announced((1, 0, 0, 1), seed=6) == protocol.announced(
            (1, 0, 0, 1), seed=6
        )

    def test_non_bit_inputs_coerced_to_default(self, factory):
        protocol = factory()
        announced = protocol.announced((1, "garbage", 0, 1), seed=7)
        assert announced == (1, 0, 0, 1)


class TestRoundComplexity:
    """The shape data behind the paper's efficiency narrative (Section 1)."""

    def rounds(self, protocol, n):
        execution = protocol.run([i % 2 for i in range(n)], seed=8)
        return execution.communication_rounds

    def test_sequential_is_linear(self):
        assert self.rounds(SequentialBroadcast(4, 1), 4) == 4
        assert self.rounds(SequentialBroadcast(8, 1), 8) == 8

    def test_cgma_is_linear(self):
        r4 = self.rounds(CGMABroadcast(4, 1, security_bits=16), 4)
        r8 = self.rounds(CGMABroadcast(8, 1, security_bits=16), 8)
        assert r4 == 3 * 4 + 1
        assert r8 == 3 * 8 + 1

    def test_cgma_parallel_ablation_is_constant(self):
        r4 = self.rounds(CGMAParallelDealing(4, 1, security_bits=16), 4)
        r8 = self.rounds(CGMAParallelDealing(8, 1, security_bits=16), 8)
        assert r4 == r8 == 4  # 3 dealing rounds + 1 reveal

    def test_chor_rabin_is_logarithmic(self):
        r4 = self.rounds(ChorRabinBroadcast(4, 1, security_bits=16), 4)
        r8 = self.rounds(ChorRabinBroadcast(8, 1, security_bits=16), 8)
        r16 = self.rounds(ChorRabinBroadcast(16, 1, security_bits=16), 16)
        # 1 commit + 3·ceil(log2 n) + 1 complain + 1 reveal
        assert r4 == 1 + 3 * 2 + 2
        assert r8 == 1 + 3 * 3 + 2
        assert r16 == 1 + 3 * 4 + 2

    def test_gennaro_is_constant(self):
        assert self.rounds(GennaroBroadcast(4, 1, security_bits=16), 4) == 2
        assert self.rounds(GennaroBroadcast(8, 1, security_bits=16), 8) == 2

    def test_ideal_has_no_traffic(self):
        assert self.rounds(IdealSimultaneousBroadcast(4, 1), 4) == 0


class TestConstructorValidation:
    def test_cgma_requires_honest_majority(self):
        with pytest.raises(InvalidParameterError):
            CGMABroadcast(4, 2)

    def test_chor_rabin_requires_honest_majority(self):
        with pytest.raises(InvalidParameterError):
            ChorRabinBroadcast(4, 2)

    def test_theta_backend_validation(self):
        with pytest.raises(InvalidParameterError):
            ThetaProtocol(4, 1, backend="quantum")
        with pytest.raises(InvalidParameterError):
            ThetaProtocol(4, 2, backend="bgw")

    def test_small_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            SequentialBroadcast(1, 0)

    def test_bad_threshold_rejected(self):
        with pytest.raises(InvalidParameterError):
            SequentialBroadcast(4, 4)
        with pytest.raises(InvalidParameterError):
            SequentialBroadcast(4, -1)


class TestTheta:
    def test_honest_identity_when_no_bits_raised(self):
        protocol = ThetaProtocol(4, 1, backend="ideal")
        inputs = [(1, 0), (0, 0), (1, 0), (0, 0)]
        execution = protocol.run(inputs, seed=9)
        assert execution.outputs[1] == (1, 0, 1, 0)

    def test_two_raised_bits_forces_xor_zero(self):
        for backend in ("ideal", "bgw"):
            protocol = ThetaProtocol(4, 1, backend=backend)
            inputs = [(1, 1), (0, 1), (1, 0), (0, 0)]
            for seed in range(5):
                execution = protocol.run(inputs, seed=seed)
                w = execution.outputs[1]
                assert w[2] == 1 and w[3] == 0  # untouched coordinates
                assert (w[0] ^ w[1] ^ w[2] ^ w[3]) == 0

    def test_backends_agree_on_deterministic_cases(self):
        inputs = [(1, 0), (0, 0), (1, 0), (1, 0)]
        ideal = ThetaProtocol(4, 1, backend="ideal").run(inputs, seed=1).outputs[1]
        bgw = ThetaProtocol(4, 1, backend="bgw").run(inputs, seed=2).outputs[1]
        assert ideal == bgw == (1, 0, 1, 1)

    def test_pair_coercion(self):
        protocol = ThetaProtocol(3, 1, backend="ideal")
        execution = protocol.run([1, (1, 0), "junk"], seed=10)
        assert execution.outputs[1] == (1, 1, 0)
