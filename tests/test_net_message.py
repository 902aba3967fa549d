"""Tests for message types and inbox helpers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.net.message import BROADCAST, Inbox, Message, broadcast, send


def msg(sender, recipient, payload, tag=""):
    return Message(sender=sender, recipient=recipient, payload=payload, tag=tag)


class TestDrafts:
    def test_send_creates_point_to_point_draft(self):
        draft = send(3, "hello", tag="t")
        assert draft.recipient == 3
        assert draft.payload == "hello"
        assert draft.tag == "t"

    def test_broadcast_creates_broadcast_draft(self):
        draft = broadcast("hi")
        assert draft.recipient == BROADCAST

    def test_stamping(self):
        stamped = send(2, "x").stamped(1)
        assert stamped.sender == 1
        assert stamped.recipient == 2
        assert not stamped.is_broadcast

    def test_broadcast_stamping(self):
        stamped = broadcast("x", tag="commit").stamped(4)
        assert stamped.is_broadcast
        assert stamped.tag == "commit"


class TestMessage:
    def test_addressed_to_point_to_point(self):
        m = msg(1, 2, "x")
        assert m.addressed_to(2)
        assert not m.addressed_to(3)

    def test_addressed_to_broadcast(self):
        m = msg(1, BROADCAST, "x")
        assert m.addressed_to(1)
        assert m.addressed_to(5)

    def test_frozen(self):
        import dataclasses

        m = msg(1, 2, "x")
        try:
            m.payload = "y"
            raised = False
        except dataclasses.FrozenInstanceError:
            raised = True
        assert raised


class TestInbox:
    def setup_method(self):
        self.inbox = Inbox(
            [
                msg(1, 3, "a", tag="share"),
                msg(2, 3, "b", tag="share"),
                msg(1, BROADCAST, "c", tag="commit"),
                msg(2, BROADCAST, "d", tag="open"),
                msg(1, 3, "e", tag="share"),
            ]
        )

    def test_len_and_bool(self):
        assert len(self.inbox) == 5
        assert self.inbox
        assert not Inbox()

    def test_iteration(self):
        assert [m.payload for m in self.inbox] == ["a", "b", "c", "d", "e"]

    def test_first_from(self):
        assert self.inbox.first_from(2).payload == "b"
        assert self.inbox.first_from(2, tag="open").payload == "d"
        assert self.inbox.first_from(9) is None

    def test_with_tag(self):
        assert [m.payload for m in self.inbox.with_tag("share")] == ["a", "b", "e"]

    def test_broadcasts(self):
        assert [m.payload for m in self.inbox.broadcasts()] == ["c", "d"]
        assert [m.payload for m in self.inbox.broadcasts(tag="commit")] == ["c"]

    def test_payload_by_sender_keeps_first(self):
        mapping = self.inbox.payload_by_sender(tag="share")
        assert mapping == {1: "a", 2: "b"}

    def test_payload_by_sender_all_tags(self):
        mapping = self.inbox.payload_by_sender()
        assert mapping == {1: "a", 2: "b"}

    def test_all_returns_tuple(self):
        assert isinstance(self.inbox.all(), tuple)

    @given(
        st.lists(
            st.builds(
                msg,
                sender=st.integers(min_value=1, max_value=5),
                recipient=st.sampled_from([BROADCAST, 1, 2]),
                payload=st.integers(),
                tag=st.sampled_from(["", "a", "b"]),
            ),
            max_size=25,
        ),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.sampled_from([None, "", "a", "b", "c"]),
            )
        ),
    )
    def test_sender_lookups_equal_the_inbox_scan(self, messages, queries):
        """The sender index answers exactly what scanning the inbox did,
        in inbox order, however the lookups interleave."""
        inbox = Inbox(messages)
        for sender, tag in queries:
            scan = [m for m in messages if m.sender == sender and (tag is None or m.tag == tag)]
            assert inbox.first_from(sender, tag) is (scan[0] if scan else None)
