"""Message types for the partially synchronous network of Section 3.1.

Two channel kinds exist, mirroring the paper's model:

* point-to-point messages between each pair of parties, and
* a broadcast channel (the model the simultaneous-broadcast protocols are
  built *on top of* — "a network which provides a broadcast channel").

Both are delivered with one round of latency to honest parties.  The
rushing adversary additionally sees the current round's honest traffic to
corrupted parties (and all honest broadcasts) before corrupted parties
speak; that policy lives in :mod:`repro.net.scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

BROADCAST = -1
"""Sentinel recipient meaning "deliver to every party"."""


@dataclass(frozen=True, slots=True)
class Message:
    """A single message in flight.

    Attributes:
        sender: 1-based index of the sending party.
        recipient: 1-based index of the receiving party, or :data:`BROADCAST`.
        payload: any canonically encodable value.
        tag: protocol-defined label used to route messages within a protocol
            (e.g. ``"share"``, ``"commit"``, ``"open"``).
    """

    sender: int
    recipient: int
    payload: Any
    tag: str = ""

    @property
    def is_broadcast(self) -> bool:
        return self.recipient == BROADCAST

    def addressed_to(self, party: int) -> bool:
        return self.is_broadcast or self.recipient == party


def send(recipient: int, payload: Any, tag: str = "") -> "Draft":
    """Create a point-to-point draft message (sender filled in by the runtime)."""
    return Draft(recipient=recipient, payload=payload, tag=tag)


def broadcast(payload: Any, tag: str = "") -> "Draft":
    """Create a broadcast-channel draft message."""
    return Draft(recipient=BROADCAST, payload=payload, tag=tag)


@dataclass(frozen=True, slots=True)
class Draft:
    """A message as produced by a party program, before the sender is stamped."""

    recipient: int
    payload: Any
    tag: str = ""

    def stamped(self, sender: int) -> Message:
        return Message(sender=sender, recipient=self.recipient, payload=self.payload, tag=self.tag)


class Inbox:
    """The messages delivered to one party at the start of a round.

    Per-sender lookups go through an index built on the first
    :meth:`first_from` call (each sender's messages in inbox order), so a
    party reading every sender's messages walks the inbox once, not once
    per sender.
    """

    __slots__ = ("_messages", "_by_sender")

    def __init__(self, messages: Optional[List[Message]] = None) -> None:
        self._messages = list(messages or ())
        self._by_sender: Optional[Dict[int, List[Message]]] = None

    def _sender_index(self) -> Dict[int, List[Message]]:
        index = self._by_sender
        if index is None:
            index = self._by_sender = {}
            for message in self._messages:
                bucket = index.get(message.sender)
                if bucket is None:
                    index[message.sender] = [message]
                else:
                    bucket.append(message)
        return index

    def __iter__(self) -> Iterator[Message]:
        return iter(self._messages)

    def __len__(self) -> int:
        return len(self._messages)

    def __bool__(self) -> bool:
        return bool(self._messages)

    def all(self) -> Tuple[Message, ...]:
        return tuple(self._messages)

    def first_from(self, sender: int, tag: Optional[str] = None) -> Optional[Message]:
        for message in self._sender_index().get(sender, ()):
            if tag is None or message.tag == tag:
                return message
        return None

    def with_tag(self, tag: str) -> List[Message]:
        return [m for m in self._messages if m.tag == tag]

    def broadcasts(self, tag: Optional[str] = None) -> List[Message]:
        return [
            m
            for m in self._messages
            if m.is_broadcast and (tag is None or m.tag == tag)
        ]

    def payload_by_sender(self, tag: Optional[str] = None) -> dict:
        """Map sender -> payload, keeping the first message per sender."""
        result = {}
        for message in self._messages:
            if tag is not None and message.tag != tag:
                continue
            result.setdefault(message.sender, message.payload)
        return result

    def __repr__(self) -> str:
        return f"Inbox({self._messages!r})"


@dataclass(slots=True)
class RoundRecord:
    """Everything that was sent in one round (for transcripts)."""

    round: int
    messages: List[Message] = field(default_factory=list)
