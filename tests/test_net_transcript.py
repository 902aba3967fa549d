"""Tests for Execution transcripts and the Exec/Announced vectors."""

import pytest

from repro.errors import ConsistencyError
from repro.net.message import BROADCAST, Message, RoundRecord
from repro.net.transcript import Execution


def make_execution(outputs, corrupted=frozenset(), rounds=None, n=3):
    return Execution(
        n=n,
        corrupted=frozenset(corrupted),
        inputs=(1, 0, 1)[:n],
        outputs=outputs,
        adversary_output="adv",
        rounds=rounds or [],
    )


class TestExecVector:
    def test_shape_and_order(self):
        execution = make_execution({1: "a", 2: "b", 3: "c"})
        assert execution.exec_vector == ("adv", "a", "b", "c")

    def test_missing_outputs_are_none(self):
        execution = make_execution({1: "a", 3: "c"}, corrupted={2})
        assert execution.exec_vector == ("adv", "a", None, "c")

    def test_honest_list_and_output_guard(self):
        execution = make_execution({1: "a", 3: "c"}, corrupted={2})
        assert execution.honest == [1, 3]


class TestAnnouncedVector:
    def test_agreeing_parties(self):
        execution = make_execution({1: (1, 0, 1), 2: (1, 0, 1), 3: (1, 0, 1)})
        assert execution.announced_vector() == (1, 0, 1)

    def test_disagreement_raises(self):
        execution = make_execution({1: (1, 0, 1), 2: (0, 0, 1), 3: (1, 0, 1)})
        with pytest.raises(ConsistencyError):
            execution.announced_vector()

    def test_corrupted_parties_excluded_from_agreement(self):
        execution = make_execution(
            {1: (1, 0, 1), 3: (1, 0, 1)}, corrupted={2}
        )
        assert execution.announced_vector() == (1, 0, 1)

    def test_none_entries_defaulted(self):
        execution = make_execution({1: (1, None, 0), 2: (1, None, 0), 3: (1, None, 0)})
        assert execution.announced_vector(default=0) == (1, 0, 0)
        assert execution.announced_vector(default=9) == (1, 9, 0)

    def test_no_outputs_raises(self):
        execution = make_execution({})
        with pytest.raises(ConsistencyError):
            execution.announced_vector()

    def test_parties_without_output_skipped(self):
        execution = make_execution({1: (1, 1, 1), 2: None, 3: (1, 1, 1)})
        assert execution.announced_vector() == (1, 1, 1)


class TestRoundAccounting:
    def build(self, message_rounds):
        rounds = []
        for index, has_messages in enumerate(message_rounds, start=1):
            messages = (
                [Message(sender=1, recipient=BROADCAST, payload="x", tag="t")]
                if has_messages
                else []
            )
            rounds.append(RoundRecord(round=index, messages=messages))
        return make_execution({1: (0, 0, 0), 2: (0, 0, 0), 3: (0, 0, 0)}, rounds=rounds)

    def test_round_count(self):
        execution = self.build([True, True, False])
        assert execution.round_count == 3

    def test_communication_rounds_trims_trailing_silence(self):
        execution = self.build([True, True, False])
        assert execution.communication_rounds == 2

    def test_communication_rounds_keeps_interior_silence(self):
        execution = self.build([True, False, True, False])
        assert execution.communication_rounds == 3

    def test_no_messages_at_all(self):
        execution = self.build([False, False])
        assert execution.communication_rounds == 0

    def test_broadcast_history_and_lookup(self):
        execution = self.build([True, False])
        by_round = {record.round: record.messages for record in execution.rounds}
        assert [(m.sender, m.payload, m.is_broadcast) for m in by_round[1]] == [(1, "x", True)]
        assert not by_round.get(2)
        assert len(execution.all_messages()) == 1
