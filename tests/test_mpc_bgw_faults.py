"""Fault-path tests for the BGW substrate (malformed traffic, missing shares)."""

import pytest

from repro.crypto.field import PrimeField
from repro.errors import ShareError
from repro.mpc.bgw import BGWProtocol
from repro.mpc.circuit import ADD, Circuit, Gate
from repro.net.adversary import Adversary
from repro.net.message import send
from repro.net.network import run_protocol

F = PrimeField(101)


def mul_circuit():
    circuit = Circuit(F)
    x1 = circuit.input(1, "v")
    x2 = circuit.input(2, "v")
    circuit.mark_output(circuit.mul(x1, x2))
    return circuit


class TestBGWFaults:
    def test_missing_degree_reduction_contribution_detected(self):
        """A party silent during the multiplication round is detected: the
        semi-honest degree reduction needs everyone, and the honest parties
        fail loudly rather than reconstruct garbage."""

        class SilentInMulRound(Adversary):
            def __init__(self):
                super().__init__(corrupted=[3])
                self._inner_started = False

            def act(self, round_number, rushed):
                # Participate in input sharing (round 1) by sharing 0, then
                # go silent for the multiplication round.
                if round_number == 1:
                    from repro.crypto.secret_sharing import ShamirSharing

                    sharing = ShamirSharing(F, 1, 3)
                    _, shares = sharing.deal(0, self.rng)
                    return {
                        3: [
                            send(j, ((2, shares[j - 1]),), tag="bgw:bgw:in")
                            for j in (1, 2, 3)
                        ]
                    }
                return {3: []}

        protocol = BGWProtocol(mul_circuit(), n=3, t=1)
        with pytest.raises(ShareError, match="degree reduction"):
            run_protocol(
                protocol,
                [{"v": 3}, {"v": 4}, {}],
                adversary=SilentInMulRound(),
                seed=1,
            )

    def test_malformed_share_messages_ignored(self):
        """Garbage payloads in the input round are skipped; the missing
        input wire defaults to the public constant zero."""

        class Garbage(Adversary):
            def act(self, round_number, rushed):
                if round_number == 1:
                    return {
                        2: [send(j, "garbage", tag="bgw:bgw:in") for j in (1, 2, 3)]
                    }
                # Stay honest-silent afterwards; the mul round will fail on
                # the missing contribution, so use a linear circuit here.
                return {2: []}

        circuit = Circuit(F)
        x1 = circuit.input(1, "v")
        x2 = circuit.input(2, "v")
        circuit.mark_output(circuit.add(x1, x2))
        protocol = BGWProtocol(circuit, n=3, t=1)
        execution = run_protocol(
            protocol, [{"v": 5}, {"v": 7}, {}], adversary=Garbage(corrupted=[2]), seed=2
        )
        # Party 2 never shared its input: the wire evaluates to 0.
        assert execution.outputs[1] == (5,)
        assert execution.outputs[3] == (5,)

    def test_wrong_owner_share_injection_rejected(self):
        """A corrupted party cannot inject shares for wires it does not own."""

        class Injector(Adversary):
            def act(self, round_number, rushed):
                if round_number == 1:
                    # Claim to provide gate 0 (party 1's input wire).
                    return {
                        3: [send(j, ((0, 99),), tag="bgw:bgw:in") for j in (1, 2, 3)]
                    }
                return {3: []}

        circuit = Circuit(F)
        x1 = circuit.input(1, "v")
        circuit.mark_output(circuit.scale(x1, 2))
        protocol = BGWProtocol(circuit, n=3, t=1)
        execution = run_protocol(
            protocol, [{"v": 5}, {}, {}], adversary=Injector(corrupted=[3]), seed=3
        )
        assert execution.outputs[1] == (10,)

    def test_duplicate_output_shares_deduplicated(self):
        """Only the first output share per sender counts in reconstruction."""

        class DoubleSender(Adversary):
            def __init__(self):
                super().__init__(corrupted=[3])

            def act(self, round_number, rushed):
                # Send two contradictory output shares in the output round
                # (round 2 for a linear circuit).
                if round_number == 2:
                    return {
                        3: [
                            send(j, ((0, 11),), tag="bgw:bgw:out")
                            for j in (1, 2, 3)
                        ]
                        + [
                            send(j, ((0, 77),), tag="bgw:bgw:out")
                            for j in (1, 2, 3)
                        ]
                    }
                if round_number == 1:
                    from repro.crypto.secret_sharing import ShamirSharing

                    sharing = ShamirSharing(F, 1, 3)
                    _, shares = sharing.deal(0, self.rng)
                    return {
                        3: [
                            send(j, ((2, shares[j - 1]),), tag="bgw:bgw:in")
                            for j in (1, 2, 3)
                        ]
                    }
                return {3: []}

        circuit = Circuit(F)
        x1 = circuit.input(1, "v")
        x2 = circuit.input(2, "v")
        circuit.mark_output(circuit.add(x1, x2))
        protocol = BGWProtocol(circuit, n=3, t=1)
        # The run completes; honest parties agree (reconstruction takes t+1
        # = 2 shares, the honest ones are consistent).
        execution = run_protocol(
            protocol, [{"v": 5}, {"v": 7}, {}], adversary=DoubleSender(), seed=4
        )
        assert execution.outputs[1] == execution.outputs[2]

    def test_malformed_circuit_ends_in_share_error(self):
        """A gate that reads a later gate (appended past ``Circuit``'s
        argument check) can never be evaluated."""
        circuit = mul_circuit()
        forward = len(circuit.gates)
        circuit.gates.append(Gate(op=ADD, args=(0, forward + 1)))
        circuit.gates.append(Gate(op=ADD, args=(0, 1)))
        circuit.mark_output(forward)
        with pytest.raises(ShareError, match="malformed circuit"):
            run_protocol(
                BGWProtocol(circuit, n=3, t=1), [{"v": 3}, {"v": 4}, {}], seed=1
            )


class OneMalformedEntry(Adversary):
    """Sends one ``(key, share)`` entry of the wrong type in one round, else silence."""

    def __init__(self, party, round_number, tag, entry):
        super().__init__(corrupted=[party])
        self.party = party
        self.round_number = round_number
        self.tag = tag
        self.entry = entry

    def act(self, round_number, rushed):
        if round_number != self.round_number:
            return {self.party: []}
        return {self.party: [send(j, (self.entry,), tag=self.tag) for j in (1, 2, 3)]}


def add_circuit():
    circuit = Circuit(F)
    x1 = circuit.input(1, "v")
    x2 = circuit.input(2, "v")
    circuit.mark_output(circuit.add(x1, x2))
    return circuit


class TestMalformedEntriesSkipped:
    """An entry whose gate id, output index or share is not an ``int`` is
    skipped, never raised on by an honest party."""

    @pytest.mark.parametrize("entry", [(1, "x"), ("1", 5), ([1], 5), (1, 2.5)])
    def test_input_round_entry_reads_as_an_unshared_input(self, entry):
        # Party 2 owns gate 1; its one malformed entry leaves the wire at 0.
        adversary = OneMalformedEntry(2, 1, "bgw:bgw:in", entry)
        execution = run_protocol(
            BGWProtocol(add_circuit(), n=3, t=1),
            [{"v": 5}, {"v": 7}, {}],
            adversary=adversary,
            seed=2,
        )
        assert execution.outputs[1] == execution.outputs[3] == (5,)

    @pytest.mark.parametrize("entry", [(0, "x"), ([0], 5)])
    def test_output_round_entry_is_not_a_share(self, entry):
        # Party 3 owns no input; the honest two reconstruct without it.
        adversary = OneMalformedEntry(3, 2, "bgw:bgw:out", entry)
        execution = run_protocol(
            BGWProtocol(add_circuit(), n=3, t=1),
            [{"v": 5}, {"v": 7}, {}],
            adversary=adversary,
            seed=4,
        )
        assert execution.outputs[1] == execution.outputs[2] == (12,)

    def test_mul_round_entry_is_a_missing_contribution(self):
        # Round 2 is the degree reduction of gate 2 = x1 * x2.
        adversary = OneMalformedEntry(3, 2, "bgw:bgw:mul", (2, "x"))
        with pytest.raises(ShareError, match=r"missing contributions from \[3\]"):
            run_protocol(
                BGWProtocol(mul_circuit(), n=3, t=1),
                [{"v": 3}, {"v": 4}, {}],
                adversary=adversary,
                seed=1,
            )
