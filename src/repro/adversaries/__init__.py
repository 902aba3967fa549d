"""Adversary library: the attacks the paper's arguments are built around."""

from ..net.adversary import Adversary, PassiveAdversary, ProgramAdversary
from .biaser import InputSubstitution
from .copier import CommitEchoAdversary, RushedBroadcastCopier, SequentialCopier
from .xor_attacker import XorAttacker

__all__ = [
    "Adversary",
    "PassiveAdversary",
    "ProgramAdversary",
    "InputSubstitution",
    "SequentialCopier",
    "CommitEchoAdversary",
    "RushedBroadcastCopier",
    "XorAttacker",
]
