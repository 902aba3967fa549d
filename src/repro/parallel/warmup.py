"""Warm-start state for pool workers.

The pool's original sin was cold workers: each child process re-derived
safe primes, regenerated Schnorr groups, and rebuilt fixed-base
exponentiation tables that the coordinator already owned — pure overhead
on a machine where the pool buys no extra CPU.  This module makes the
warm state explicit and portable:

* :func:`prewarm` builds the safe primes, groups, and fixed-base tables
  (generator and the default Pedersen ``h``) for a set of security levels
  in the *current* process;
* :func:`export_warm_state` snapshots that state as a picklable payload;
* :func:`apply_warm_state` replays a payload in another process.

On Linux the default ``fork`` start method means children inherit the
coordinator's caches for free — prewarming the parent *before* the pool
is created is the whole trick.  The exported payload plus the pool
initializer (:func:`repro.parallel.engine._warm_worker`) covers ``spawn``
platforms, where inheritance does not happen.

Warm state is strictly a cache fill: every entry is derived
deterministically from the security level, so a warm worker computes
bit-identical results to a cold one (the cold one just pays to rebuild
the same entries on first use).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List

from .. import fastpath
from ..crypto import group as _group
from ..crypto.commitment import PedersenParameters
from . import shm

#: Gate for the shared-memory table transport (default on).  Off, the
#: warm payload falls back to shipping table keys that workers rebuild.
ENV_SHM_TABLES = "REPRO_SHM_TABLES"


def shm_tables_enabled() -> bool:
    """Whether warm tables ride to pool workers via shared memory.

    Outside the determinism contract by construction: the shm payload
    carries the exact rows a worker would rebuild, so this flag can only
    move setup cost, never a computed value.
    """
    raw = os.environ.get(ENV_SHM_TABLES, "1")
    return raw.strip().lower() not in ("0", "false", "off")


def security_levels_for(config: Any) -> List[int]:
    """The security levels a config's experiments will touch.

    Union of the headline ``security_bits`` and the ``security_levels``
    sweep; falls back to the repo defaults when the config carries neither.
    """
    levels = set()
    bits = getattr(config, "security_bits", None)
    if bits:
        levels.add(int(bits))
    for sweep_bits in getattr(config, "security_levels", ()) or ():
        levels.add(int(sweep_bits))
    if not levels:
        levels = {16, 24, 32}
    return sorted(levels)


def prewarm(security_levels: Iterable[int]) -> None:
    """Build parameters and fixed-base tables for the given security levels.

    Idempotent and cumulative: each level's safe prime, group object,
    generator table, and default Pedersen ``h`` table end up resident in
    this process's caches.
    """
    for bits in sorted({int(b) for b in security_levels}):
        group = _group.SchnorrGroup.for_security(bits)
        fastpath.ensure_table(group.p, group.q, group.generator.value)
        params = PedersenParameters.generate(group)
        fastpath.ensure_table(group.p, group.q, params.h.value)


def prewarm_for_config(config: Any) -> None:
    """:func:`prewarm` for everything :func:`security_levels_for` reports."""
    prewarm(security_levels_for(config))


def export_warm_state() -> Dict[str, Any]:
    """Snapshot the current process's parameter caches as a picklable payload."""
    return {
        "safe_primes": _group.cached_safe_primes(),
        "tables": fastpath.cached_table_keys(),
    }


def apply_warm_state(payload: Any) -> None:
    """Replay an :func:`export_warm_state` payload in this process.

    Tolerates ``None`` / empty payloads.  Table entries are ``(p, base)``
    pairs from safe-prime groups, so the exponent bound is always
    ``q = (p - 1) // 2``.
    """
    if not payload:
        return
    _group.seed_safe_primes(payload.get("safe_primes", ()))
    descriptor = payload.get("shm_tables")
    if descriptor is not None and shm_tables_enabled():
        tables = shm.attach_tables(descriptor)
        if tables:
            for (p, base), rows in tables.items():
                fastpath.install_table(p, base, rows)
    # Rebuild path: a no-op for tables already resident (fork-inherited
    # or shm-installed), the full build when the shm leg was unavailable.
    for p, base in payload.get("tables", ()):
        fastpath.ensure_table(p, (p - 1) // 2, base)
