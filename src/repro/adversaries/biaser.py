"""Input-substitution adversaries.

The mildest possible deviation — corrupted parties run the protocol
honestly on *substituted* inputs — is exactly what the ideal process
permits, so every independence definition must tolerate it.  These
adversaries are the control group in the implication experiments.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Union

from ..net.adversary import ProgramAdversary


class InputSubstitution(ProgramAdversary):
    """Corrupted parties run the honest program on attacker-chosen inputs.

    ``substitution`` is either a constant (every corrupted party uses it),
    a mapping ``party -> value``, or a callable ``party, original -> value``
    applied at setup time.
    """

    def __init__(
        self,
        protocol,
        corrupted: Iterable[int],
        substitution: Union[int, Dict[int, int], Callable] = 0,
    ):
        corrupted = sorted(set(corrupted))
        super().__init__(programs={i: protocol.program for i in corrupted})
        self._substitution = substitution

    def setup(self, n, config, corrupted_inputs, rng, session=""):
        overrides = {}
        for i in self.corrupted:
            original = corrupted_inputs.get(i)
            if callable(self._substitution):
                overrides[i] = self._substitution(i, original)
            elif isinstance(self._substitution, dict):
                overrides[i] = self._substitution.get(i, original)
            else:
                overrides[i] = self._substitution
        self._inputs_override = overrides
        super().setup(n, config, corrupted_inputs, rng, session)
