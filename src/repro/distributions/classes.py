"""The achievability classes of Section 5, as executable membership oracles.

For each independence definition N the paper identifies the class D(N) of
input distributions under which N is achievable:

====================  ===========================================  ========
class                  membership criterion                          D(·)
====================  ===========================================  ========
``SINGLETON``          a point mass                                  —
``UNIFORM``            the uniform distribution                      —
``PSI_L`` (Ψ_L,n)      local-independence gap ≤ tolerance            D(G)
``PSI_C`` (Ψ_C,n)      TV distance to a product ≤ tolerance          D(CR)
``ALL``                anything                                      D(Sb)
====================  ===========================================  ========

The paper's Ψ_C is *computational* closeness; at simulation scale we use
statistical closeness with an explicit tolerance, which is the right
proxy because every separation witness in the paper exhibits a constant
(not merely super-negligible) gap.  Claim 5.6's strict chain

    Singleton, Uniform ⊊ D(G) ⊊ D(CR) ⊊ D(Sb)

is regenerated empirically by E-C56 (:mod:`repro.experiments.claim56`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .base import Distribution
from .standard import uniform

DEFAULT_TOLERANCE = 1e-6
PSI_C_TOLERANCE = 0.25  # admits δ-mixtures with δ below this, rejects parity/all-equal


@dataclass(frozen=True)
class DistributionClass:
    """A named class of distributions with a decidable membership oracle."""

    name: str
    description: str
    membership: Callable[[Distribution], bool]

    def contains(self, distribution: Distribution) -> bool:
        return self.membership(distribution)

    def __repr__(self) -> str:
        return f"DistributionClass({self.name})"


def _is_singleton(distribution: Distribution) -> bool:
    return distribution.is_trivial(tolerance=DEFAULT_TOLERANCE)


def _is_uniform(distribution: Distribution) -> bool:
    return distribution.tv_distance(uniform(distribution.n)) <= DEFAULT_TOLERANCE


def _is_locally_independent(distribution: Distribution) -> bool:
    return distribution.local_independence_gap() <= DEFAULT_TOLERANCE


def _is_computationally_independent(distribution: Distribution) -> bool:
    return distribution.product_gap() <= PSI_C_TOLERANCE


SINGLETON = DistributionClass(
    "Singleton", "point masses D_α", _is_singleton
)
UNIFORM = DistributionClass(
    "Uniform", "the uniform distribution", _is_uniform
)
PSI_L = DistributionClass(
    "Psi_L,n = D(G)",
    "locally independent: conditionals match marginals (Section 5.2)",
    _is_locally_independent,
)
PSI_C = DistributionClass(
    "Psi_C,n = D(CR)",
    "computationally independent: close to some product (Section 5.1)",
    _is_computationally_independent,
)
ALL = DistributionClass("All = D(Sb)", "all input distributions", lambda _d: True)

