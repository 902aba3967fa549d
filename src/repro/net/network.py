"""High-level façade for running protocols on the simulated network."""

from __future__ import annotations

import logging
import random
from typing import Any, Optional, Sequence

from ..obs import flightrec as _flightrec
from ..obs import runtime as _obs
from .adversary import Adversary
from .runtime import resolve_runtime
from .scheduler import DEFAULT_MAX_ROUNDS, Scheduler
from .transcript import Execution

logger = logging.getLogger(__name__)

DEFAULT_SEED = 0
"""The seed used when the caller provides neither ``rng`` nor ``seed``."""


def run_protocol(
    protocol: Any,
    inputs: Sequence[Any],
    adversary: Optional[Adversary] = None,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    session: str = "",
    fault_plan: Any = None,
    fault_seed: Optional[int] = None,
    timeout_rounds: Optional[int] = None,
    timeout_output: Any = None,
    delay_model: Any = None,
    omission: Any = None,
) -> Execution:
    """Run ``protocol`` once and return the full :class:`Execution`.

    Args:
        protocol: an object exposing ``n`` (party count), ``setup(rng)``
            (returning the public config: CRS, PKI, parameters, ...) and
            ``program(ctx, input)`` (the honest party program factory).
            Every protocol in :mod:`repro.protocols` and
            :mod:`repro.broadcast` satisfies this.
        inputs: one input per party (corrupted parties' inputs are handed to
            the adversary, mirroring the paper's model).
        adversary: a :class:`repro.net.adversary.Adversary`; defaults to an
            execution with no corruptions.
        rng / seed: explicit randomness for reproducibility. ``seed`` is a
            convenience for ``random.Random(seed)``.  When neither is given
            the run falls back to :data:`DEFAULT_SEED`; the effective seed is
            logged, traced, and recorded on the returned :class:`Execution`
            so every run artifact is reproducible from its transcript alone.
        max_rounds: abort guard.
        session: session identifier mixed into signatures and proofs.
        fault_plan: an optional :class:`repro.faults.FaultPlan`; when given,
            a seeded :class:`repro.faults.FaultInjector` rewrites each
            round's honest traffic before the rushing adversary sees it.
        fault_seed: explicit salt for the injector's RNG stream.  Defaults
            to a draw from the execution RNG, so distinct runs inject
            distinct (but replayable) fault patterns; sharded sweeps pass
            per-trial salts to stay partition-independent.
        timeout_rounds: graceful deadline — parties still running after
            this many rounds are finalized with ``timeout_output`` instead
            of aborting the run with :class:`NetworkError`.
        timeout_output: the degraded output (a value, or a callable of the
            party id); protocols pass the paper's default bit vector.
        delay_model: message timing — a
            :class:`repro.net.runtime.DelayModel` or a spec string such as
            ``"uniform:0.5,1.5"``; defaults to ``RushDelay(ConstantDelay(1))``,
            the paper's synchronous rushing round.
        omission: loss policy (an :class:`repro.net.runtime.OmissionPolicy`
            or spec string such as ``"drop-all:1"``); defaults to none.
            With neither timing knob the run is tagged ``"lockstep"``,
            otherwise ``"event"``.  Every run is bounded by
            :data:`repro.net.scheduler.DEFAULT_MAX_EVENTS` deliveries.
    """
    runtime_config = resolve_runtime(delay_model, omission)
    effective_seed: Optional[int] = seed
    defaulted = False
    if rng is None:
        if seed is None:
            effective_seed = DEFAULT_SEED
            defaulted = True
            logger.info(
                "run_protocol(%s): no rng/seed supplied; using default seed %d",
                type(protocol).__name__,
                DEFAULT_SEED,
            )
        rng = random.Random(effective_seed)
    elif seed is None:
        # An externally constructed rng: its seed is unknown to us.
        effective_seed = None
    if _obs.tracer.enabled:
        _obs.tracer.event(
            "run_protocol.seed",
            protocol=type(protocol).__name__,
            seed=effective_seed,
            defaulted=defaulted,
        )
    if _obs.flightrec is not None:
        _obs.flightrec.push(
            "run_protocol.start",
            protocol=type(protocol).__name__,
            session=session or type(protocol).__name__,
            seed=effective_seed,
            runtime=runtime_config.kind,
        )
    if adversary is None:
        adversary = Adversary(corrupted=())
    injector = None
    if fault_plan is not None:
        # Imported lazily: repro.faults depends on repro.net, not vice versa.
        from ..faults.injector import FaultInjector

        salt = fault_seed if fault_seed is not None else rng.getrandbits(64)
        injector = FaultInjector(fault_plan, salt=salt)
    config = protocol.setup(rng)
    scheduler = Scheduler(
        n=protocol.n,
        program_factory=protocol.program,
        inputs=inputs,
        adversary=adversary,
        rng=rng,
        config=config,
        session=session or type(protocol).__name__,
        max_rounds=max_rounds,
        seed=effective_seed,
        fault_injector=injector,
        timeout_rounds=timeout_rounds,
        timeout_output=timeout_output,
        runtime=runtime_config,
    )
    try:
        return scheduler.run()
    except Exception as exc:
        # A run that dies mid-protocol is exactly what the flight recorder
        # exists for: snapshot the last-N buffer, then let the error out.
        _flightrec.dump_if_active(
            "exception",
            protocol=type(protocol).__name__,
            session=session or type(protocol).__name__,
            seed=effective_seed,
            error=type(exc).__name__,
            detail=str(exc),
        )
        raise
