"""The standard input distributions: uniform, singletons, products.

These are the classes named explicitly in Claim 5.6 — ``Uniform``,
``Singleton`` and the independent products Φ_n — all of which every
independence definition can be achieved under.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ..errors import DistributionError
from .base import Distribution


def uniform(n: int) -> Distribution:
    """The uniform distribution over {0,1}^n."""
    probability = 1.0 / (2 ** n)
    return Distribution(
        n,
        {vector: probability for vector in itertools.product((0, 1), repeat=n)},
        name=f"uniform-{n}",
    )


def singleton(vector: Sequence[int]) -> Distribution:
    """The point mass D_α on a fixed vector α."""
    vector = tuple(vector)
    return Distribution(
        len(vector), {vector: 1.0}, name="singleton-" + "".join(map(str, vector))
    )


def bernoulli_product(biases: Sequence[float]) -> Distribution:
    """The independent product with P(x_i = 1) = biases[i-1] (class Φ_n)."""
    biases = list(biases)
    if not biases:
        raise DistributionError("need at least one coordinate")
    if any(not 0.0 <= p <= 1.0 for p in biases):
        raise DistributionError("biases must lie in [0, 1]")
    n = len(biases)
    table = {}
    for vector in itertools.product((0, 1), repeat=n):
        probability = 1.0
        for bit, bias in zip(vector, biases, strict=True):
            probability *= bias if bit else (1.0 - bias)
        if probability > 0:
            table[vector] = probability
    return Distribution(n, table, name=f"product-{biases}")
