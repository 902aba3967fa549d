"""Combinators for composing party-program generators.

A *sub-protocol* is a generator with the same shape as a party program
(yield drafts, receive an :class:`Inbox`, return a result).  Protocols are
composed in two ways:

* **sequentially** — plain ``yield from sub(...)`` inside a program;
* **in parallel** — :func:`run_in_lockstep`, which advances several
  sub-generators one round at a time, merging their outboxes and fanning
  the round's inbox out to each of them.

Sub-protocols must namespace their message tags (every helper in
:mod:`repro.broadcast` takes an ``instance`` label for this) so parallel
instances do not read each other's traffic.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Hashable, Iterable, List

from ..errors import ProtocolError
from ..obs import runtime as _obs
from .message import Draft, Inbox

SubProtocol = Generator[Iterable[Draft], Inbox, Any]


def run_in_lockstep(
    subprotocols: Dict[Hashable, SubProtocol],
) -> Generator[Iterable[Draft], Inbox, Dict[Hashable, Any]]:
    """Run several sub-protocols in parallel rounds; returns {key: result}.

    All sub-protocols advance by exactly one network round per ``yield`` of
    the combinator.  A sub-protocol that finishes early simply stops
    contributing messages while the rest keep running; the combinator
    returns once every sub-protocol has finished.

    This is itself a sub-protocol, so lockstep groups nest.
    """
    active: Dict[Hashable, SubProtocol] = dict(subprotocols)
    results: Dict[Hashable, Any] = {}
    if _obs.metrics is not None:
        _obs.metrics.inc("net.lockstep.groups")
        _obs.metrics.observe("net.lockstep.width", len(active))

    # Prime every sub-generator, collecting the first round's drafts.
    outbox: List[Draft] = []
    for key in list(active):
        try:
            drafts = next(active[key])
        except StopIteration as stop:
            results[key] = stop.value
            del active[key]
            continue
        outbox.extend(_as_drafts(key, drafts))

    while active:
        inbox = yield outbox
        outbox = []
        if _obs.metrics is not None:
            _obs.metrics.inc("net.lockstep.rounds")
        for key in list(active):
            try:
                drafts = active[key].send(inbox)
            except StopIteration as stop:
                results[key] = stop.value
                del active[key]
                continue
            outbox.extend(_as_drafts(key, drafts))

    # Flush any drafts produced in the same round the last sub-protocol
    # finished: they still need one final yield to reach the network.
    if outbox:
        yield outbox
    return results


def _as_drafts(key: Hashable, drafts: Any) -> List[Draft]:
    if drafts is None:
        return []
    items = list(drafts)
    for draft in items:
        if not isinstance(draft, Draft):
            raise ProtocolError(
                f"sub-protocol {key!r} yielded {type(draft).__name__}; expected Draft"
            )
    return items
