"""Deterministic fault injection for the simulated network.

The paper's model (Section 3.1) is a clean synchronous network; this
package degrades it on purpose.  A :class:`FaultPlan` declares *what*
goes wrong — drop / delay / duplicate / corrupt rules keyed by round,
sender, receiver, and tag, plus crash-at-round party faults — and a
:class:`FaultInjector` applies the plan to each round's honest traffic
inside the scheduler, **before** the rushing adversary observes it.
Everything is seeded: a fixed ``(plan, salt)`` pair reproduces the exact
same fault pattern, which is what lets the conformance suite
(``tests/conformance/``) certify paper-grounded tolerance bounds and the
parallel engine keep ``--jobs N`` bit-identical to serial under faults.

Entry points:

* ``run_protocol(..., fault_plan=plan)`` — one faulted execution;
* :func:`with_faults` — wrap a protocol so every estimator in
  :mod:`repro.core` measures its faulted behaviour;
* :data:`STANDARD_PLANS` — the named plan library behind the E-FAULT
  sweep and ``--faults``.
"""

from .harness import FaultedProtocol, with_faults
from .injector import FaultInjector, FaultRecord, corrupt_payload
from .library import STANDARD_PLANS, get_plan
from .plan import CORRUPT_MODES, KINDS, CrashFault, FaultPlan, FaultRule

__all__ = [
    "CORRUPT_MODES",
    "KINDS",
    "CrashFault",
    "FaultPlan",
    "FaultRule",
    "FaultInjector",
    "FaultRecord",
    "FaultedProtocol",
    "STANDARD_PLANS",
    "corrupt_payload",
    "get_plan",
    "with_faults",
]
