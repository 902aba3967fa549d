"""A protocol proxy that binds a fault plan into every run.

One faulted execution goes through :func:`repro.net.network.run_protocol`
(``fault_plan=`` / ``fault_seed=``).  :func:`with_faults` wraps a
protocol so that every ``run`` / ``announced`` binds the plan; the proxy
satisfies the protocol API, so every estimator and sampler in
:mod:`repro.core` measures the faulted protocol unchanged.
"""

from __future__ import annotations

from typing import Any, Optional

from .plan import FaultPlan


class FaultedProtocol:
    """A protocol proxy that binds a fault plan into every run.

    Delegates every attribute (``n``, ``t``, ``name``, ``setup``,
    ``program``, ...) to the wrapped protocol and overrides the
    ``run`` / ``announced`` conveniences to thread the plan (and an
    optional graceful-degradation ``timeout_rounds``) through
    :func:`repro.net.network.run_protocol`.
    """

    def __init__(
        self,
        protocol: Any,
        plan: FaultPlan,
        timeout_rounds: Optional[int] = None,
        fault_seed: Optional[int] = None,
    ):
        self.protocol = protocol
        self.plan = plan
        self.timeout_rounds = timeout_rounds
        # A pinned salt keeps the run RNG stream untouched (no salt draw),
        # so a faulted run is coin-for-coin comparable to a clean one.
        self.fault_seed = fault_seed

    def __getattr__(self, name: str) -> Any:
        return getattr(self.protocol, name)

    def run(self, inputs, adversary=None, rng=None, seed=None, fault_seed=None):
        return self.protocol.run(
            inputs,
            adversary=adversary,
            rng=rng,
            seed=seed,
            fault_plan=self.plan,
            fault_seed=self.fault_seed if fault_seed is None else fault_seed,
            timeout_rounds=self.timeout_rounds,
        )

    def announced(self, inputs, adversary=None, rng=None, seed=None, fault_seed=None):
        return self.protocol.announced(
            inputs,
            adversary=adversary,
            rng=rng,
            seed=seed,
            fault_plan=self.plan,
            fault_seed=self.fault_seed if fault_seed is None else fault_seed,
            timeout_rounds=self.timeout_rounds,
        )

    def __repr__(self) -> str:
        return f"FaultedProtocol({self.protocol!r}, plan={self.plan.name or 'anonymous'!r})"


def with_faults(
    protocol: Any,
    plan: FaultPlan,
    timeout_rounds: Optional[int] = None,
    fault_seed: Optional[int] = None,
) -> FaultedProtocol:
    """Bind ``plan`` to ``protocol`` for every subsequent run."""
    return FaultedProtocol(
        protocol, plan, timeout_rounds=timeout_rounds, fault_seed=fault_seed
    )
