"""Network simulation: partially synchronous rounds with a rushing adversary.

See DESIGN.md §3 and the paper's Section 3.1.  The key entry point is
:func:`repro.net.network.run_protocol`.
"""

from .adversary import Adversary, PassiveAdversary, ProgramAdversary
from .message import BROADCAST, Draft, Inbox, Message, RoundRecord, broadcast, send
from .network import run_protocol
from .party import PartyContext, PartyState
from .runtime import (
    ConstantDelay,
    DelayModel,
    DropAll,
    DropEdges,
    EventClock,
    ExponentialDelay,
    OmissionPolicy,
    RandomDrop,
    RushDelay,
    RuntimeConfig,
    UniformDelay,
    delay_model_from_spec,
    omission_from_spec,
    resolve_runtime,
)
from .scheduler import DEFAULT_MAX_ROUNDS, Scheduler
from .transcript import Execution

__all__ = [
    "Adversary",
    "PassiveAdversary",
    "ProgramAdversary",
    "BROADCAST",
    "Draft",
    "Inbox",
    "Message",
    "RoundRecord",
    "broadcast",
    "send",
    "run_protocol",
    "PartyContext",
    "PartyState",
    "DEFAULT_MAX_ROUNDS",
    "Scheduler",
    "Execution",
    "RuntimeConfig",
    "resolve_runtime",
    "DelayModel",
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "RushDelay",
    "EventClock",
    "OmissionPolicy",
    "DropAll",
    "DropEdges",
    "RandomDrop",
    "delay_model_from_spec",
    "omission_from_spec",
]
