"""repro.fastpath — the arithmetic kernels behind the crypto layer.

The crypto layer (:mod:`repro.crypto.group`, ``commitment``, ``vss``,
``secret_sharing``) routes its inner loops through these kernels; there
is no other path.  Every kernel computes *exactly* the
value of the textbook formula it implements — see :mod:`.kernels` for
the per-kernel equivalence argument and DESIGN.md §7 for the cache
rules.  The textbook loops themselves live on as test oracles in
``tests/crypto_oracles.py``.

Telemetry: ``fastpath.stats()`` snapshots the process-local ``fastpath.*``
counters (table hits/misses/builds, Horner vs ladder dispatch, Lagrange
memo hits).  They are process-local by design — cache warmth depends on
process topology, so these counters must stay out of the deterministic
ambient registry that experiment artifacts embed.
"""

from __future__ import annotations

from typing import Any, Dict

from ..crypto import backend as _backend
from . import kernels
from .batch import (  # noqa: F401  (re-exported batch-verification API)
    COMBINER_BITS,
    combiner_coefficients,
    feldman_batch_verify,
    pedersen_batch_verify,
    pedersen_vss_batch_verify,
)
from .kernels import (  # noqa: F401  (re-exported kernel API)
    STATS,
    cache_sizes,
    cached_table_keys,
    clear_caches,
    ensure_table,
    export_tables,
    install_table,
    lagrange_cache_get,
    lagrange_cache_put,
    multi_pow,
    pedersen_commit,
    pow_mod,
    shamir_points,
    vss_expected,
)


def enabled() -> bool:
    """Always ``True``: the kernels are the only crypto path.

    Kept so configuration records that name the crypto path (benchmark
    machine fingerprints) stay comparable across versions.
    """
    return True


def stats() -> Dict[str, Any]:
    """A snapshot of the process-local ``fastpath.*`` telemetry counters."""
    snapshot = STATS.snapshot()
    snapshot["caches"] = cache_sizes()
    snapshot["backend"] = _backend.active().name
    return snapshot


def reset_stats() -> Dict[str, Any]:
    """Snapshot-and-clear the ``fastpath.*`` telemetry registry.

    Returns the snapshot taken *before* clearing, so a caller measuring
    one workload in a long-lived process (a warm pool worker serving many
    runs) can bracket it: ``reset_stats()`` → run → ``stats()``.  Only
    the counters are cleared — the kernel caches themselves (and their
    warmth) are untouched; use :func:`clear_caches` for those.
    """
    snapshot = stats()
    STATS.reset()
    return snapshot
