"""Tests for BGW evaluation and the trusted-party ideal process."""

import random

import pytest

from repro.crypto.field import PrimeField
from repro.errors import InvalidParameterError, ProtocolError
from repro.mpc.bgw import BGWProtocol, schedule
from repro.mpc.circuit import ADD, CONST, MUL, SCALE, SUB, Circuit
from repro.mpc.gfunc import GFunctionality, build_g_circuit
from repro.mpc.ideal import (
    FSBFunctionality,
    TrustedPartyMailbox,
    TrustedPartyProtocol,
)
from repro.net.adversary import Adversary, PassiveAdversary, ProgramAdversary
from repro.net.network import run_protocol

F = PrimeField(101)


def product_circuit():
    """out = x1 * x2 + x3 over GF(101)."""
    circuit = Circuit(F)
    x1 = circuit.input(1, "v")
    x2 = circuit.input(2, "v")
    x3 = circuit.input(3, "v")
    circuit.mark_output(circuit.add(circuit.mul(x1, x2), x3))
    return circuit


class TestBGWBasics:
    def test_threshold_validation(self):
        with pytest.raises(InvalidParameterError):
            BGWProtocol(product_circuit(), n=4, t=2)

    def test_linear_only_circuit(self):
        circuit = Circuit(F)
        x1 = circuit.input(1, "v")
        x2 = circuit.input(2, "v")
        circuit.mark_output(circuit.add(circuit.scale(x1, 3), x2))
        protocol = BGWProtocol(circuit, n=3, t=1)
        execution = run_protocol(
            protocol, [{"v": 5}, {"v": 7}, {}], seed=1
        )
        for i in (1, 2, 3):
            assert execution.outputs[i] == (22,)

    def test_multiplication(self):
        protocol = BGWProtocol(product_circuit(), n=3, t=1)
        execution = run_protocol(
            protocol, [{"v": 6}, {"v": 7}, {"v": 9}], seed=2
        )
        for i in (1, 2, 3):
            assert execution.outputs[i] == ((6 * 7 + 9) % 101,)

    def test_results_identical_across_parties_and_seeds(self):
        protocol = BGWProtocol(product_circuit(), n=5, t=2)
        for seed in range(3):
            execution = run_protocol(
                protocol,
                [{"v": 2}, {"v": 3}, {"v": 4}, {}, {}],
                seed=seed,
            )
            values = {execution.outputs[i] for i in range(1, 6)}
            assert values == {(10,)}

    def test_missing_input_defaults_to_zero(self):
        protocol = BGWProtocol(product_circuit(), n=3, t=1)
        execution = run_protocol(protocol, [{}, {"v": 7}, {"v": 9}], seed=3)
        assert execution.outputs[1] == (9,)

    def test_round_complexity_scales_with_mul_depth(self):
        # depth-2 multiplication chain: ((x1*x2)*x3)
        circuit = Circuit(F)
        x1 = circuit.input(1, "v")
        x2 = circuit.input(2, "v")
        x3 = circuit.input(3, "v")
        circuit.mark_output(circuit.mul(circuit.mul(x1, x2), x3))
        protocol = BGWProtocol(circuit, n=3, t=1)
        execution = run_protocol(
            protocol, [{"v": 2}, {"v": 3}, {"v": 4}], seed=4
        )
        assert execution.outputs[1] == (24,)
        # input round + 2 mul rounds + output round
        assert execution.communication_rounds == 4

    def test_passive_corruption_does_not_change_result(self):
        protocol = BGWProtocol(product_circuit(), n=5, t=2)
        execution = run_protocol(
            protocol,
            [{"v": 2}, {"v": 3}, {"v": 4}, {}, {}],
            adversary=PassiveAdversary(corrupted=[4, 5]),
            seed=5,
        )
        for i in (1, 2, 3):
            assert execution.outputs[i] == (10,)

    def test_circuit_grown_after_an_evaluation_evaluates_its_new_gates(self):
        """The gate schedule is derived again once gates are appended, so
        a grown circuit never runs on its old rounds."""
        circuit = product_circuit()
        protocol = BGWProtocol(circuit, n=3, t=1)
        inputs = [{"v": 6}, {"v": 7}, {"v": 9}]
        clear = {(i, "v"): value["v"] for i, value in enumerate(inputs, 1)}

        def agreed_outputs():
            execution = run_protocol(protocol, inputs, seed=5)
            assert len(set(execution.outputs.values())) == 1
            return execution.outputs[1]

        assert agreed_outputs() == tuple(int(v) for v in circuit.evaluate(clear))
        x1, x3 = circuit.input(1, "v"), circuit.input(3, "v")
        scaled = circuit.scale(circuit.outputs[0], 3)
        circuit.mark_output(circuit.mul(circuit.sub(x3, circuit.const(4)), scaled))
        circuit.mark_output(circuit.add(circuit.mul(scaled, x1), x3))
        expected = tuple(int(v) for v in circuit.evaluate(clear))
        assert len(expected) == 3
        assert agreed_outputs() == expected

    def test_privacy_of_shares(self):
        """t shares leak nothing: party 3's view of party 1's input share is
        statistically independent of the input (sampled check)."""
        circuit = Circuit(F)
        x1 = circuit.input(1, "v")
        x2 = circuit.input(2, "v")
        circuit.mark_output(circuit.add(x1, x2))
        samples = 300
        parity_rate = {}
        for secret in (0, 50):
            parity_ones = 0
            for seed in range(samples):
                protocol = BGWProtocol(circuit, n=3, t=1)
                execution = run_protocol(
                    protocol, [{"v": secret}, {"v": 1}, {}], seed=seed
                )
                share_messages = [
                    m
                    for m in execution.rounds[0].messages
                    if m.sender == 1 and m.recipient == 3
                ]
                value = share_messages[0].payload[0][1]
                parity_ones += value % 2
            parity_rate[secret] = parity_ones / samples
        # The parity of a uniform share is (nearly) unbiased regardless of
        # the secret; a leak would show up as a gap between the two rates.
        assert abs(parity_rate[0] - parity_rate[50]) < 0.12


class TestBGWOnG:
    @pytest.mark.parametrize("b_mask", [(0, 0, 0), (1, 1, 0), (1, 0, 1)])
    def test_g_circuit_end_to_end(self, b_mask):
        n = 3
        circuit = build_g_circuit(n)
        protocol = BGWProtocol(circuit, n=n, t=1)
        xs = (1, 0, 1)
        inputs = [
            {"x": xs[i], "b": b_mask[i], "rho": 0} for i in range(n)
        ]
        execution = run_protocol(protocol, inputs, seed=6)
        w = execution.outputs[1]
        raised = [i for i in range(n) if b_mask[i] == 1]
        if len(raised) == 2:
            assert (w[0] ^ w[1] ^ w[2]) == 0
        else:
            assert w == xs

    def test_g_circuit_random_coin_via_rho(self):
        n = 3
        circuit = build_g_circuit(n)
        protocol = BGWProtocol(circuit, n=n, t=1)
        inputs = [
            {"x": 0, "b": 1, "rho": 1},
            {"x": 0, "b": 1, "rho": 0},
            {"x": 0, "b": 0, "rho": 1},
        ]
        execution = run_protocol(protocol, inputs, seed=7)
        # r = 1^0^1 = 0, y = x3 = 0 -> w = (0, 0, 0)
        assert execution.outputs[1] == (0, 0, 0)


def multiplicative_depths(circuit):
    """Each gate's level, derived here without the BGW schedule: the
    largest level among its operands, plus one for a ``MUL``."""
    levels = []
    for gate in circuit.gates:
        below = max((levels[arg] for arg in gate.args), default=0)
        levels.append(below + (gate.op == MUL))
    return levels


def random_circuit(seed, n):
    """A seeded circuit over every gate kind: two inputs per party, then
    40 gates whose operands lean towards the newest wires, so products
    nest several levels deep."""
    rng = random.Random(seed)
    circuit = Circuit(F)
    wires = [circuit.input(owner, name) for owner in range(1, n + 1) for name in "ab"]
    ops = [ADD, SUB, MUL, SCALE, CONST] + [
        rng.choice((ADD, SUB, MUL, MUL, SCALE, CONST)) for _ in range(35)
    ]
    rng.shuffle(ops)
    for op in ops:
        a, b = (wires[-1 - min(int(rng.expovariate(0.3)), len(wires) - 1)] for _ in "ab")
        if op == CONST:
            wires.append(circuit.const(rng.randrange(F.modulus)))
        elif op == SCALE:
            wires.append(circuit.scale(a, rng.randrange(1, F.modulus)))
        else:
            wires.append({ADD: circuit.add, SUB: circuit.sub, MUL: circuit.mul}[op](a, b))
    for wire in wires[-3:] + [rng.choice(wires)]:
        circuit.mark_output(wire)
    return circuit


class _DrawRecordingBGW(BGWProtocol):
    """BGW that keeps each party's rng state at program start and end."""

    def __init__(self, circuit, n, t):
        super().__init__(circuit, n, t)
        self.states = {}

    def program(self, ctx, value):
        start = ctx.rng.getstate()
        outputs = yield from super().program(ctx, value)
        self.states[ctx.party_id] = (start, ctx.rng.getstate())
        return outputs


#: ``(n, t, depth)`` of the g circuits checked; gate-order batches took
#: 16, 31 and 50 resharing rounds on them.
G_SIZES = [(3, 1, 8), (5, 2, 12), (7, 3, 16)]


class TestBGWSchedule:
    """The schedule reshares once per level of multiplicative depth."""

    def assert_rounds_follow_depth(self, circuit):
        """Round k reshares exactly the level-(k + 1) ``MUL`` gates and
        evaluates exactly the level-k local gates, each in gate order."""
        levels = multiplicative_depths(circuit)
        depth = max(levels, default=0)
        rounds = schedule(circuit).rounds
        assert sum(1 for round_ in rounds if round_.muls) == depth
        assert [
            (k + 1, gate_id, a, b)
            for k, round_ in enumerate(rounds)
            for gate_id, a, b in round_.muls
        ] == sorted(
            (levels[gate_id], gate_id, *gate.args)
            for gate_id, gate in enumerate(circuit.gates)
            if gate.op == MUL
        )
        assert [
            (k, gate_id) for k, round_ in enumerate(rounds) for _, gate_id, _, _ in round_.local
        ] == sorted(
            (levels[gate_id], gate_id)
            for gate_id, gate in enumerate(circuit.gates)
            if gate.op in (ADD, SUB, SCALE)
        )
        return depth

    def assert_evaluates_like_the_circuit(self, circuit, n, t, inputs, seed):
        """Every party outputs ``Circuit.evaluate``'s values, and its rng
        advanced by exactly t + 1 draws per dealing: one per owned input
        wire and one per ``MUL`` gate."""
        protocol = _DrawRecordingBGW(circuit, n=n, t=t)
        execution = run_protocol(protocol, inputs, seed=seed)
        clear = {
            (owner, name): value
            for owner, wires in enumerate(inputs, 1)
            for name, value in wires.items()
        }
        expected = tuple(int(v) for v in circuit.evaluate(clear))
        assert execution.outputs == {i: expected for i in range(1, n + 1)}
        products = sum(1 for gate in circuit.gates if gate.op == MUL)
        for party in range(1, n + 1):
            start, end = protocol.states[party]
            replay = random.Random()
            replay.setstate(start)
            dealings = len(circuit.inputs_of(party)) + products
            for _ in range(dealings * (t + 1)):
                replay.randrange(circuit.field.modulus)
            assert replay.getstate() == end

    @pytest.mark.parametrize("n, t, depth", G_SIZES)
    def test_g_circuit_reshares_once_per_level(self, n, t, depth):
        assert self.assert_rounds_follow_depth(build_g_circuit(n)) == depth

    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuit_reshares_once_per_level(self, seed):
        assert self.assert_rounds_follow_depth(random_circuit(seed, 3 + 2 * (seed % 2))) >= 2

    @pytest.mark.parametrize("n, t, depth", G_SIZES)
    def test_g_circuit_evaluates_draw_for_draw(self, n, t, depth):
        rng = random.Random(n)
        inputs = [{name: rng.randrange(2) for name in ("x", "b", "rho")} for _ in range(n)]
        self.assert_evaluates_like_the_circuit(build_g_circuit(n), n, t, inputs, seed=n)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuit_evaluates_draw_for_draw(self, seed):
        n = 3 + 2 * (seed % 2)
        rng = random.Random(seed)
        inputs = [{name: rng.randrange(F.modulus) for name in "ab"} for _ in range(n)]
        self.assert_evaluates_like_the_circuit(
            random_circuit(seed, n), n, (n - 1) // 2, inputs, seed=seed
        )


class TestTrustedParty:
    def test_fsb_roundtrip(self):
        protocol = TrustedPartyProtocol(FSBFunctionality(4))
        execution = run_protocol(protocol, [1, 0, 1, 1], seed=8)
        for i in range(1, 5):
            assert execution.outputs[i] == (1, 0, 1, 1)

    def test_silent_corrupted_party_defaults(self):
        protocol = TrustedPartyProtocol(FSBFunctionality(3))
        execution = run_protocol(
            protocol, [1, 1, 1], adversary=Adversary(corrupted=[2]), seed=9
        )
        assert execution.outputs[1] == (1, 0, 1)

    def test_no_network_traffic(self):
        protocol = TrustedPartyProtocol(FSBFunctionality(3))
        execution = run_protocol(protocol, [1, 0, 1], seed=10)
        assert execution.all_messages() == []

    def test_double_submit_rejected(self):
        mailbox = TrustedPartyMailbox(FSBFunctionality(2), random.Random(0))
        mailbox.submit(1, 1)
        with pytest.raises(ProtocolError):
            mailbox.submit(1, 0)

    def test_submit_after_freeze_ignored(self):
        mailbox = TrustedPartyMailbox(FSBFunctionality(2), random.Random(0))
        mailbox.submit(1, 1)
        assert mailbox.result(1) == (1, 0)
        mailbox.submit(2, 1)  # too late; silently ignored
        assert mailbox.result(2) == (1, 0)
        assert mailbox.frozen

    def test_early_peek_cannot_choose_input(self):
        """A corrupted program that reads the result before submitting gets
        the early view but its own input is frozen to the default."""

        def peeker(ctx, value):
            mailbox = ctx.config["mailbox"]
            peeked = mailbox.result(ctx.party_id)
            mailbox.submit(ctx.party_id, 1 - peeked[0])  # try to anti-correlate
            yield []
            return mailbox.result(ctx.party_id)

        protocol = TrustedPartyProtocol(FSBFunctionality(3))
        execution = run_protocol(
            protocol,
            [1, 1, None],
            adversary=ProgramAdversary({3: peeker}),
            seed=11,
        )
        # Party 3's announced value is the default 0, not the adaptive 1-x1.
        assert execution.outputs[1] == (1, 1, 0)

    def test_g_functionality_trusted_party(self):
        protocol = TrustedPartyProtocol(GFunctionality(4))
        execution = run_protocol(
            protocol, [(1, 0), (0, 0), (1, 0), (0, 0)], seed=12
        )
        assert execution.outputs[2] == (1, 0, 1, 0)
