"""Adversary model: static corruption, full channel visibility, rushing.

Per Section 3.1 of the paper, the adversary

* statically corrupts a fixed set ``B`` of parties before the run,
* reads *all* communication channels (:meth:`Adversary.observe`),
* is *rushing*: each round it sees the honest parties' messages of that
  round (those addressed to corrupted parties, plus everything on the
  broadcast channel) before choosing the corrupted parties' messages.

Concrete attacks subclass :class:`Adversary` and override :meth:`act`.
:class:`ProgramAdversary` runs arbitrary (possibly malicious) party
programs in the corrupted slots, which covers the common case of
"follow the protocol but with a twist".
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..errors import ProtocolError
from .message import Draft, Inbox, Message
from .party import PartyContext, PartyState


class Adversary:
    """Base adversary: corrupted parties send nothing (crash/silent faults)."""

    def __init__(self, corrupted: Iterable[int], auxiliary: Any = None) -> None:
        self.corrupted = frozenset(corrupted)
        self.auxiliary = auxiliary
        self.n: int = 0
        self.config: Any = None
        # None until setup(): the scheduler derives the adversary's RNG from
        # the execution seed, so pinning a default here would silently
        # decouple pre-setup draws from the run's reproducibility story.
        self.rng: Optional[random.Random] = None
        self.corrupted_inputs: Dict[int, Any] = {}

    # -- lifecycle ----------------------------------------------------------------

    def setup(
        self,
        n: int,
        config: Any,
        corrupted_inputs: Mapping[int, Any],
        rng: random.Random,
        session: str = "",
    ) -> None:
        """Called once before round 1 with the corrupted parties' inputs."""
        if not all(1 <= i <= n for i in self.corrupted):
            raise ProtocolError(f"corrupted set {set(self.corrupted)} out of range for n={n}")
        self.n = n
        self.config = config
        self.corrupted_inputs = dict(corrupted_inputs)
        self.rng = rng
        self.session = session

    def observe(self, round_number: int, traffic: Sequence[Message]) -> None:
        """See all messages sent in a round (honest and corrupted); a hook
        for attacks that read the channels, so the base keeps nothing."""

    def act(
        self, round_number: int, rushed: Mapping[int, Inbox]
    ) -> Dict[int, List[Draft]]:
        """Produce each corrupted party's outbox for this round.

        ``rushed[i]`` is corrupted party i's inbox *including* the honest
        messages sent this very round (the rushing advantage).
        """
        return {i: [] for i in self.corrupted}

    def finish(self) -> Any:
        """The adversary's own output, recorded in the Exec vector."""
        return None


class PassiveAdversary(Adversary):
    """Corrupted parties follow the protocol honestly; adversary only listens.

    Running a protocol under :class:`PassiveAdversary` is how we measure its
    honest-execution behaviour while still exercising the corruption and
    rushing machinery.
    """

    def __init__(
        self,
        corrupted: Iterable[int],
        program_factory: Optional[Any] = None,
        auxiliary: Any = None,
    ) -> None:
        super().__init__(corrupted, auxiliary)
        self._program_factory = program_factory
        self._states: Dict[int, PartyState] = {}

    def set_program_factory(self, factory: Any) -> None:
        """Install the protocol's honest program factory (done by the runtime)."""
        if self._program_factory is None:
            self._program_factory = factory

    def setup(
        self,
        n: int,
        config: Any,
        corrupted_inputs: Mapping[int, Any],
        rng: random.Random,
        session: str = "",
    ) -> None:
        super().setup(n, config, corrupted_inputs, rng, session)
        if self._program_factory is None:
            raise ProtocolError("PassiveAdversary has no program factory installed")
        for i in sorted(self.corrupted):
            ctx = PartyContext(
                party_id=i,
                n=n,
                rng=random.Random(rng.getrandbits(64)),
                config=config,
                session=session,
            )
            generator = self._program_factory(ctx, corrupted_inputs.get(i))
            self._states[i] = PartyState(party_id=i, generator=generator)
        self._stash = {i: [] for i in self.corrupted}
        self._started = False

    def act(
        self, round_number: int, rushed: Mapping[int, Inbox]
    ) -> Dict[int, List[Draft]]:
        return _run_corrupted_programs(self, round_number, rushed)

    def finish(self) -> Any:
        return {i: state.output for i, state in self._states.items()}


def _run_corrupted_programs(
    adversary: Any, round_number: int, rushed: Mapping[int, Inbox]
) -> Dict[int, List[Draft]]:
    """Shared driver for adversaries that run programs in corrupted slots.

    Each corrupted program receives its full *information set*: every
    message it has ever been delivered, cumulatively.  Rushing shifts
    delivery a round earlier than honest parties experience it, which would
    desynchronise phase-structured programs if each message were shown only
    once; the cumulative inbox lets a program find each phase's messages by
    tag whenever it looks for them, while still exposing rushed traffic at
    the earliest possible round to programs that want the advantage.
    """
    outboxes: Dict[int, List[Draft]] = {}
    for i, state in adversary._states.items():
        adversary._stash[i].extend(rushed.get(i, Inbox()))
        if not adversary._started:
            outboxes[i] = state.start()
        else:
            outboxes[i] = state.resume(Inbox(adversary._stash[i]))
    adversary._started = True
    return outboxes


class ProgramAdversary(Adversary):
    """Runs an arbitrary (malicious) program in each corrupted slot.

    ``programs`` maps a corrupted party index to a program factory with the
    same signature as honest programs: ``factory(ctx, input) -> generator``.
    Missing indices stay silent.  Because corrupted inboxes carry the current
    round's honest traffic, these programs enjoy the rushing advantage
    automatically from round 2 onward (a generator's first outbox is produced
    before any inbox can be delivered, so a *round-1* rushing attack needs a
    direct :class:`Adversary` subclass overriding :meth:`act`, which does see
    round-1 honest traffic).
    """

    def __init__(
        self,
        programs: Mapping[int, Any],
        auxiliary: Any = None,
        inputs_override: Optional[Mapping[int, Any]] = None,
    ) -> None:
        super().__init__(programs.keys(), auxiliary)
        self._programs = dict(programs)
        self._inputs_override = dict(inputs_override or {})
        self._states: Dict[int, PartyState] = {}
        self._started = False

    def setup(
        self,
        n: int,
        config: Any,
        corrupted_inputs: Mapping[int, Any],
        rng: random.Random,
        session: str = "",
    ) -> None:
        super().setup(n, config, corrupted_inputs, rng, session)
        for i, factory in sorted(self._programs.items()):
            ctx = PartyContext(
                party_id=i,
                n=n,
                rng=random.Random(rng.getrandbits(64)),
                config=config,
                session=session,
            )
            party_input = self._inputs_override.get(i, corrupted_inputs.get(i))
            self._states[i] = PartyState(party_id=i, generator=factory(ctx, party_input))
        self._stash = {i: [] for i in self.corrupted}
        self._started = False

    def act(
        self, round_number: int, rushed: Mapping[int, Inbox]
    ) -> Dict[int, List[Draft]]:
        return _run_corrupted_programs(self, round_number, rushed)

    def finish(self) -> Any:
        return {i: state.output for i, state in self._states.items()}
