"""Input distributions over {0,1}^n, with exact probability tables.

The paper's Section 5 quantifies over input distributions and their
conditionals; at the party counts the simulations use (n ≤ 10), every
distribution of interest fits in an explicit table, so marginals,
conditionals and the class-membership quantities of Definitions 4.3/4.4
are computed *exactly* rather than estimated.

Coordinates are 1-based (matching party indices).  Every distribution
here is constant in the security parameter k, mirroring the paper's
fixed-n setting.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import DistributionError

Vector = Tuple[int, ...]

_PROB_TOLERANCE = 1e-9


class Distribution:
    """An explicit distribution over n-bit vectors."""

    def __init__(self, n: int, probabilities: Mapping[Vector, float], name: str = ""):
        if n < 1:
            raise DistributionError("n must be positive")
        table: Dict[Vector, float] = {}
        total = 0.0
        for vector, probability in probabilities.items():
            vector = tuple(vector)
            if len(vector) != n or any(bit not in (0, 1) for bit in vector):
                raise DistributionError(f"bad support vector {vector} for n={n}")
            if probability < -_PROB_TOLERANCE:
                raise DistributionError("negative probability")
            if probability <= 0:
                continue
            table[vector] = table.get(vector, 0.0) + float(probability)
            total += probability
        if abs(total - 1.0) > 1e-6:
            raise DistributionError(f"probabilities sum to {total}, not 1")
        # Renormalize exactly so downstream arithmetic is stable.
        self.n = n
        self.probs: Dict[Vector, float] = {v: p / total for v, p in table.items()}
        self.name = name or f"distribution-{n}"
        self._cumulative: Optional[List[Tuple[float, Vector]]] = None

    # -- sampling and point mass ------------------------------------------------------

    def sample(self, rng: random.Random) -> Vector:
        if self._cumulative is None:
            acc = 0.0
            cumulative = []
            for vector in sorted(self.probs):
                acc += self.probs[vector]
                cumulative.append((acc, vector))
            self._cumulative = cumulative
        point = rng.random()
        for threshold, vector in self._cumulative:
            if point <= threshold:
                return vector
        return self._cumulative[-1][1]

    def probability(self, vector: Sequence[int]) -> float:
        return self.probs.get(tuple(vector), 0.0)

    def support(self) -> List[Vector]:
        return sorted(self.probs)

    # -- marginals, conditionals, joins -----------------------------------------------

    def marginal(self, coordinates: Sequence[int]) -> "Distribution":
        """The induced distribution D_B on the (1-based) ``coordinates``."""
        coords = tuple(coordinates)
        if any(not 1 <= c <= self.n for c in coords):
            raise DistributionError(f"coordinates {coords} out of range")
        table: Dict[Vector, float] = {}
        for vector, probability in self.probs.items():
            projected = tuple(vector[c - 1] for c in coords)
            table[projected] = table.get(projected, 0.0) + probability
        return Distribution(len(coords), table, name=f"{self.name}|{coords}")

    def conditional(self, given: Mapping[int, int]) -> "Distribution":
        """D conditioned on the event {x_c = b for (c, b) in given}.

        Returns a distribution over the full n coordinates.  Raises
        :class:`DistributionError` if the event has zero probability.
        """
        mass = 0.0
        table: Dict[Vector, float] = {}
        for vector, probability in self.probs.items():
            if all(vector[c - 1] == bit for c, bit in given.items()):
                table[vector] = probability
                mass += probability
        if mass <= 0:
            raise DistributionError(f"conditioning event {dict(given)} has zero mass")
        return Distribution(
            self.n,
            {v: p / mass for v, p in table.items()},
            name=f"{self.name}|{dict(given)}",
        )

    def product_of_marginals(self) -> "Distribution":
        """The product distribution with D's single-coordinate marginals."""
        singles = [self.marginal([c]) for c in range(1, self.n + 1)]
        table: Dict[Vector, float] = {}
        for vector in itertools.product((0, 1), repeat=self.n):
            probability = 1.0
            for c, bit in enumerate(vector):
                probability *= singles[c].probability((bit,))
            if probability > 0:
                table[vector] = probability
        return Distribution(self.n, table, name=f"prod({self.name})")

    def join(self, other: "Distribution") -> "Distribution":
        """The ⊔ of the paper: independent concatenation of coordinates."""
        table: Dict[Vector, float] = {}
        for left, lp in self.probs.items():
            for right, rp in other.probs.items():
                table[left + right] = lp * rp
        return Distribution(self.n + other.n, table, name=f"{self.name}⊔{other.name}")

    # -- metrics ---------------------------------------------------------------------

    def tv_distance(self, other: "Distribution") -> float:
        """Total variation distance (exact)."""
        if other.n != self.n:
            raise DistributionError("dimension mismatch")
        support = set(self.probs) | set(other.probs)
        return 0.5 * sum(
            abs(self.probs.get(v, 0.0) - other.probs.get(v, 0.0)) for v in support
        )

    def product_gap(self) -> float:
        """TV distance to the product of its own marginals.

        If D is ε-close to *some* product distribution, this gap is at most
        (n+1)·ε, so thresholding it is a sound (up to the factor) membership
        oracle for the class Ψ_C,n.
        """
        return self.tv_distance(self.product_of_marginals())

    def local_independence_gap(self) -> float:
        """The defining quantity of Ψ_L,n (Section 5.2), exactly.

        max over nonempty proper subsets B, strings u ∈ {0,1}^|B| and
        strings w in the support of D_B̄ of
        ``|P(D_B = u | D_B̄ = w) − P(D_B = u)|``.
        """
        worst = 0.0
        indices = list(range(1, self.n + 1))
        for size in range(1, self.n):
            for subset in itertools.combinations(indices, size):
                rest = [c for c in indices if c not in subset]
                marginal_b = self.marginal(subset)
                marginal_rest = self.marginal(rest)
                for w in marginal_rest.support():
                    conditioned = self.conditional(dict(zip(rest, w, strict=True)))
                    conditional_b = conditioned.marginal(subset)
                    for u in itertools.product((0, 1), repeat=size):
                        gap = abs(
                            conditional_b.probability(u) - marginal_b.probability(u)
                        )
                        worst = max(worst, gap)
        return worst

    def is_trivial(self, tolerance: float = 1e-9) -> bool:
        """Statistically close to a singleton (the paper's "trivial")."""
        return max(self.probs.values()) >= 1.0 - tolerance

    def __repr__(self) -> str:
        return f"Distribution({self.name}, n={self.n}, support={len(self.probs)})"
