"""The paper's protocol zoo.

===================  =========================  ==========  ===================
protocol             source                      rounds      independence
===================  =========================  ==========  ===================
SequentialBroadcast  Section 3.2 baseline        Θ(n)        none (copy attack)
IdealSimultaneous…   Ideal(f_SB), Def. 4.1       2           perfect
CGMABroadcast        [7] Chor et al. 1985        Θ(n)        Sb
ChorRabinBroadcast   [8] Chor & Rabin 1987       Θ(log n)    CR
GennaroBroadcast     [12] Gennaro 2000           O(1)        G
PiGBroadcast         Lemma 6.4 counterexample    O(1)        G but **not** CR
ThetaProtocol        Claim 6.5 sub-protocol      —           securely computes g
===================  =========================  ==========  ===================
"""

from .base import DEFAULT_BIT, ParallelBroadcastProtocol, coerce_bit
from .cgma import CGMABroadcast, CGMAParallelDealing, CGMAPedersen
from .chor_rabin import ChorRabinBroadcast, tag_message, untag_message
from .gennaro import GennaroBroadcast
from .ideal_sb import IdealSimultaneousBroadcast
from .naive_commit_reveal import NaiveCommitReveal
from .pease import PeaseInteractiveConsistency
from .pi_g import PiGBroadcast
from .sequential import SequentialBroadcast
from .theta import BACKENDS, ThetaProtocol

__all__ = [
    "DEFAULT_BIT",
    "ParallelBroadcastProtocol",
    "coerce_bit",
    "SequentialBroadcast",
    "IdealSimultaneousBroadcast",
    "CGMABroadcast",
    "CGMAParallelDealing",
    "CGMAPedersen",
    "ChorRabinBroadcast",
    "GennaroBroadcast",
    "NaiveCommitReveal",
    "PeaseInteractiveConsistency",
    "PiGBroadcast",
    "ThetaProtocol",
    "BACKENDS",
    "tag_message",
    "untag_message",
]
