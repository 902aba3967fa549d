"""Network timing for the one execution engine: delay models and omission.

Every protocol execution is driven by :class:`repro.net.scheduler.Scheduler`,
a deterministic discrete-event loop.  What varies between runs is the
*timing*: a :class:`DelayModel` gives each channel edge its latency, an
optional :class:`OmissionPolicy` loses deliveries, and an
:class:`EventClock` (the delivery calendar) batches deliveries by arrival
time.  No wall time is ever read, so a run is an exact function of
``(seed, delay model, omission policy)`` and replays are bit-identical.

Timing is a per-run value, :class:`RuntimeConfig`, passed explicitly as
:func:`repro.net.network.run_protocol`'s ``delay_model=``/``omission=``.
Neither given is the paper's Section 3.1 model, ``RushDelay(ConstantDelay(1))``
and no omission: honest→corrupted edges deliver within the sending round
(the rushing adversary), every other edge one round later.  Such runs are
tagged ``"lockstep"``; a run with either knob set is tagged ``"event"``.
"""

from __future__ import annotations

import heapq
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, DefaultDict, Dict, List, Optional, Tuple

from ..errors import InvalidParameterError

#: Smallest latency a non-rushed edge may have: delivery strictly after
#: the sending batch, so a pathological model cannot stall the clock.
MIN_EDGE_DELAY = 1e-9


def _mix_edge_seed(seed: int, sender: int, recipient: int) -> int:
    """A stable 64-bit stream seed for one directed channel edge."""
    value = (seed or 0) & 0xFFFFFFFFFFFFFFFF
    value = (value * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & 0xFFFFFFFFFFFFFFFF
    value ^= (sender * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    value = (value * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    value ^= (recipient * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    return value


# -- delay models -------------------------------------------------------------------


class DelayModel:
    """Per-edge message latency policy.

    ``edge_delay`` draws one latency (in abstract ticks — never wall
    time) from the edge's seeded stream; ``fixed_delay`` reports the one
    latency of a model that never draws, so the engine can skip the
    stream.  ``rushes`` marks honest→corrupted edges that deliver
    *instantly within the sending batch*, which is how the paper's
    rushing advantage is expressed as a timing policy (the engine asks it
    about no other edge).
    """

    name = "abstract"

    def edge_delay(self, sender: int, recipient: int, rng: random.Random) -> float:
        raise NotImplementedError

    def fixed_delay(self) -> Optional[float]:
        """The latency of every edge, or ``None`` when latencies are drawn."""
        return None

    def rushes(self, sender: int, recipient: int, corrupted: frozenset) -> bool:
        return False

    def spec(self) -> Dict[str, Any]:
        return {"model": self.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec()!r})"


class ConstantDelay(DelayModel):
    """Every edge delivers after exactly ``ticks`` (default: one round)."""

    name = "constant"

    def __init__(self, ticks: float = 1.0) -> None:
        if ticks <= 0:
            raise InvalidParameterError("constant delay must be positive")
        self.ticks = float(ticks)

    def edge_delay(self, sender: int, recipient: int, rng: random.Random) -> float:
        return self.ticks

    def fixed_delay(self) -> Optional[float]:
        return self.ticks

    def spec(self) -> Dict[str, Any]:
        return {"model": self.name, "ticks": self.ticks}


class UniformDelay(DelayModel):
    """Latency drawn uniformly from ``[low, high]`` per message edge."""

    name = "uniform"

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if low < 0 or high < low:
            raise InvalidParameterError(
                f"uniform delay needs 0 <= low <= high, got [{low}, {high}]"
            )
        self.low = float(low)
        self.high = float(high)

    def edge_delay(self, sender: int, recipient: int, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def spec(self) -> Dict[str, Any]:
        return {"model": self.name, "low": self.low, "high": self.high}


class ExponentialDelay(DelayModel):
    """Memoryless latency with the given ``mean`` (partial synchrony's tail)."""

    name = "exponential"

    def __init__(self, mean: float = 1.0) -> None:
        if mean <= 0:
            raise InvalidParameterError("exponential delay needs a positive mean")
        self.mean = float(mean)

    def edge_delay(self, sender: int, recipient: int, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)

    def spec(self) -> Dict[str, Any]:
        return {"model": self.name, "mean": self.mean}


class RushDelay(DelayModel):
    """The rushing adversary as a delay model.

    Honest→corrupted edges deliver instantly (latency zero, *within* the
    sending batch, before the adversary chooses corrupted messages);
    every other edge — honest→honest, corrupted→anyone — pays the base
    model's latency, i.e. the adversary's own edges deliver last.  With a
    ``ConstantDelay(1)`` base this is the paper's Section 3.1 model, the
    default timing.
    """

    name = "rush"

    def __init__(self, base: Optional[DelayModel] = None) -> None:
        self.base = base if base is not None else ConstantDelay(1.0)

    def edge_delay(self, sender: int, recipient: int, rng: random.Random) -> float:
        return self.base.edge_delay(sender, recipient, rng)

    def fixed_delay(self) -> Optional[float]:
        return self.base.fixed_delay()

    def rushes(self, sender: int, recipient: int, corrupted: Any) -> bool:
        return recipient in corrupted and sender not in corrupted

    def spec(self) -> Dict[str, Any]:
        return {"model": self.name, "base": self.base.spec()}


#: Delay-model constructors by name, for spec strings.
DELAY_MODELS = {
    "constant": ConstantDelay,
    "uniform": UniformDelay,
    "exponential": ExponentialDelay,
    "rush": RushDelay,
}


def delay_model_from_spec(spec: Any) -> Optional[DelayModel]:
    """Parse ``"uniform:0.5,1.5"`` / ``"rush"`` / ``None`` / a DelayModel.

    ``rush`` wraps the remaining spec as its base model, so
    ``"rush:uniform:0.5,1.5"`` is a rushing adversary over jittery links.
    """
    if spec is None or isinstance(spec, DelayModel):
        return spec
    text = str(spec).strip()
    if not text:
        return None
    head, _, rest = text.partition(":")
    head = head.lower()
    if head not in DELAY_MODELS:
        raise InvalidParameterError(
            f"unknown delay model {head!r}; known: {sorted(DELAY_MODELS)}"
        )
    if head == "rush":
        return RushDelay(delay_model_from_spec(rest) if rest else None)
    if not rest:
        return DELAY_MODELS[head]()
    try:
        args = [float(part) for part in rest.split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidParameterError(f"bad delay-model args {rest!r}: {exc}") from None
    return DELAY_MODELS[head](*args)


# -- omission policies --------------------------------------------------------------


class OmissionPolicy:
    """Which deliveries are silently lost.

    ``draws`` says whether :meth:`omits` reads the edge's seeded stream;
    a policy that does not is handed ``None`` and no stream is created.
    """

    name = "abstract"
    draws = True

    def omits(self, sender: int, recipient: int, message: Any, rng: random.Random) -> bool:
        return False

    def spec(self) -> Dict[str, Any]:
        return {"policy": self.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec()!r})"


class DropAll(OmissionPolicy):
    """Omit every message *sent by* the given parties (a send-omission fault)."""

    name = "drop-all"
    draws = False

    def __init__(self, parties: Any) -> None:
        if isinstance(parties, int):
            parties = (parties,)
        self.parties = frozenset(int(p) for p in parties)

    def omits(self, sender: int, recipient: int, message: Any, rng: random.Random) -> bool:
        return sender in self.parties

    def spec(self) -> Dict[str, Any]:
        return {"policy": self.name, "parties": sorted(self.parties)}


class DropEdges(OmissionPolicy):
    """Omit traffic on specific directed ``(sender, recipient)`` edges."""

    name = "drop-edges"
    draws = False

    def __init__(self, edges: Any) -> None:
        self.edges = frozenset((int(s), int(r)) for s, r in edges)

    def omits(self, sender: int, recipient: int, message: Any, rng: random.Random) -> bool:
        return (sender, recipient) in self.edges

    def spec(self) -> Dict[str, Any]:
        return {"policy": self.name, "edges": sorted(self.edges)}


class RandomDrop(OmissionPolicy):
    """Omit each delivery independently with the given probability.

    Draws come from the delivery edge's seeded stream, so the drop
    pattern replays exactly with the run.
    """

    name = "random"

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise InvalidParameterError("drop probability must be in [0, 1]")
        self.probability = float(probability)

    def omits(self, sender: int, recipient: int, message: Any, rng: random.Random) -> bool:
        return rng.random() < self.probability

    def spec(self) -> Dict[str, Any]:
        return {"policy": self.name, "probability": self.probability}


def omission_from_spec(spec: Any) -> Optional[OmissionPolicy]:
    """Parse ``"drop-all:1"`` / ``"drop-edges:1-2,3-4"`` / ``"random:0.1"``."""
    if spec is None or isinstance(spec, OmissionPolicy):
        return spec
    text = str(spec).strip()
    if not text or text.lower() == "none":
        return None
    head, _, rest = text.partition(":")
    head = head.lower()
    if head == "drop-all":
        return DropAll(int(part) for part in rest.split(",") if part.strip())
    if head == "drop-edges":
        edges = []
        for part in rest.split(","):
            part = part.strip()
            if not part:
                continue
            s, _, r = part.partition("-")
            edges.append((int(s), int(r)))
        return DropEdges(edges)
    if head == "random":
        return RandomDrop(float(rest))
    raise InvalidParameterError(
        f"unknown omission policy {head!r}; known: drop-all, drop-edges, random"
    )


# -- the delivery calendar ---------------------------------------------------------


class EventClock:
    """The delivery calendar: per-recipient inboxes keyed by arrival time.

    A *slot* holds every delivery arriving at one instant, as one inbox
    list per recipient in schedule order; :meth:`advance` pops the
    earliest slot.  So simultaneous deliveries reach each recipient in
    the order they were scheduled, and the whole history is a pure
    function of the clock seed and the schedule calls.  Each directed
    channel edge ``(sender, recipient)`` owns an RNG stream derived from
    the clock seed, created on its first draw, so one edge's draws can
    never perturb another's.  No wall time is ever read.
    """

    __slots__ = ("seed", "now", "_slots", "_times", "_edge_rngs")

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = int(seed or 0)
        self.now = 0.0
        self._slots: Dict[float, DefaultDict[int, List[Any]]] = {}
        self._times: List[float] = []  # heap of the occupied arrival times
        self._edge_rngs: Dict[Tuple[int, int], random.Random] = {}

    def edge_rng(self, sender: int, recipient: int) -> random.Random:
        """The RNG stream owned by the directed edge ``sender -> recipient``."""
        key = (sender, recipient)
        rng = self._edge_rngs.get(key)
        if rng is None:
            rng = random.Random(_mix_edge_seed(self.seed, sender, recipient))
            self._edge_rngs[key] = rng
        return rng

    def slot(self, delay: float) -> DefaultDict[int, List[Any]]:
        """The per-recipient inboxes arriving ``delay`` ticks from now.

        The delay is clamped to :data:`MIN_EDGE_DELAY`, so nothing lands
        in the batch that sent it.
        """
        arrival = self.now + max(float(delay), MIN_EDGE_DELAY)
        inboxes = self._slots.get(arrival)
        if inboxes is None:
            inboxes = self._slots[arrival] = defaultdict(list)
            heapq.heappush(self._times, arrival)
        return inboxes

    def schedule(self, delay: float, recipient: int, item: Any) -> None:
        """Deliver ``item`` to ``recipient`` ``delay`` ticks from now."""
        self.slot(delay)[recipient].append(item)

    def advance(self) -> DefaultDict[int, List[Any]]:
        """Move ``now`` to the next instant with deliveries and pop its inboxes.

        With nothing in flight, time moves one tick and no inbox arrives
        (a silent batch, which round-counting programs rely on).
        """
        while self._times:
            arrival = heapq.heappop(self._times)
            inboxes = self._slots.pop(arrival)
            if inboxes:
                self.now = arrival
                return inboxes
        self.now += 1.0
        return defaultdict(list)


# -- the run's timing ---------------------------------------------------------------


@dataclass(frozen=True)
class RuntimeConfig:
    """One run's timing: a delay model and an omission policy, ``None`` for the paper's."""

    delay_model: Optional[DelayModel] = None
    omission: Optional[OmissionPolicy] = None

    @property
    def kind(self) -> str:
        """``"lockstep"`` at the paper's timing (neither knob set), else ``"event"``."""
        return "lockstep" if self.delay_model is None and self.omission is None else "event"

    def resolved_delay_model(self) -> DelayModel:
        """The run's delay model; unset is the paper's rushing round."""
        return self.delay_model if self.delay_model is not None else RushDelay()


def resolve_runtime(delay_model: Any = None, omission: Any = None) -> RuntimeConfig:
    """Parse a run's timing (objects, spec strings or ``None``) into a :class:`RuntimeConfig`."""
    return RuntimeConfig(delay_model_from_spec(delay_model), omission_from_spec(omission))
