#!/usr/bin/env python
"""Quickstart: run a simultaneous broadcast and watch an attack fail.

Five parties broadcast one bit each, in parallel, such that nobody can
base their bit on anybody else's.  We run the constant-round Gennaro-style
protocol [12] honestly and print its per-round message flow, then unleash
the rushing copy adversary on both a naive commit-then-reveal protocol
(which it breaks) and on Gennaro's (which resists).

Run with::

    python examples/quickstart.py
"""

from repro.adversaries import CommitEchoAdversary
from repro.obs.export import timeline
from repro.protocols import GennaroBroadcast, NaiveCommitReveal


def main() -> None:
    n, t = 5, 2
    inputs = [1, 0, 1, 1, 0]

    # ---- 1. honest run --------------------------------------------------------
    protocol = GennaroBroadcast(n, t, security_bits=24)
    execution = protocol.run(inputs, seed=42)
    print("honest Gennaro run")
    print(f"  inputs:    {tuple(inputs)}")
    print(f"  announced: {execution.announced_vector()}")
    print(f"  rounds:    {execution.communication_rounds}")
    assert execution.announced_vector() == tuple(inputs)
    print(timeline(execution), end="")

    # ---- 2. the copy attack on a naive protocol --------------------------------
    print("\nrushing copy attack (party 5 copies party 1)")
    naive = NaiveCommitReveal(n, t)
    for x1 in (0, 1):
        attack = CommitEchoAdversary(copier=5, target=1)
        announced = naive.announced([x1, 0, 1, 1, None], adversary=attack, seed=7)
        print(f"  naive commit-reveal, x1={x1}: announced {announced}"
              f"   <- W5 == x1 = {announced[4] == x1}")
        assert announced[4] == x1  # the copier tracks its target perfectly

    # ---- 3. the same attack against Gennaro ------------------------------------
    for x1 in (0, 1):
        attack = CommitEchoAdversary(
            copier=5, target=1, commit_tag="gen:commit", reveal_tag="gen:reveal"
        )
        announced = protocol.announced([x1, 0, 1, 1, None], adversary=attack, seed=7)
        print(f"  gennaro,             x1={x1}: announced {announced}"
              f"   <- copier disqualified, announced 0")
        assert announced[4] == 0  # context-bound proofs reject the replay

    print("\nthe copied commitment is rejected: announced values stay independent")


if __name__ == "__main__":
    main()
