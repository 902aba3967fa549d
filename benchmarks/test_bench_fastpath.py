"""Microbenchmarks: textbook crypto loops vs the ``repro.fastpath`` kernels.

Times the three hot operations the fastpath layer accelerates — Pedersen
commit, Pedersen verify, and VSS share verification — through the
production path (warm fixed-base tables, Horner ladder) and through the
test oracles in ``tests/crypto_oracles.py`` (one plain ``pow`` per
term), at the security levels where the speedup is supposed to pay for
itself.  A second section times the RLC batch verifiers
(``verify_batch`` / ``verify_shares``) against per-item loops over the
production paths at m = :data:`BATCH` items.  Records everything as
``results/BENCH_fastpath.json`` and fails if any measured speedup falls
below its budget ratio.

The two legs compute bit-identical values (asserted here per operation;
the equivalence argument lives in DESIGN.md and the property tests in
``tests/test_fastpath.py``) — this file only defends the *perf* claim.

Batch budgets are calibrated per family: share checks (Feldman and
Pedersen VSS) clear 3x because every per-item check pays a
polynomial-size multi-exponentiation that the batch collapses into one;
Pedersen *openings* are already two warm fixed-base table
exponentiations each, so their batch sits near the 64-point multi-exp
floor and is gated only against regression (DESIGN.md §12 quantifies
this asymmetry).
"""

import json
import os
import random
import time

from tests import crypto_oracles as oracles

from repro import fastpath
from repro.crypto.commitment import PedersenCommitment, PedersenParameters
from repro.crypto.group import SchnorrGroup
from repro.crypto.vss import FeldmanVSS, PedersenVSS

SECURITY_LEVELS = (48, 64)
#: Minimum oracle/fast wall-clock ratio per operation (the perf contract).
BUDGETS = {
    "pedersen_commit": 2.0,
    "pedersen_verify": 2.0,
    "vss_verify": 2.0,
}
#: Minimum batched/per-item wall-clock ratio per batch family.
BATCH_BUDGETS = {
    "pedersen_openings": 1.2,
    "feldman_shares": 3.0,
    "pedersen_vss_shares": 3.0,
}
BATCH = 64
REPS = 5
ARTIFACT = os.path.join(
    os.path.dirname(__file__), "..", "results", "BENCH_fastpath.json"
)


def _time_batch(op, batch):
    """Min-of-REPS wall-clock (ns per item) for ``op`` over ``batch``."""
    best = None
    for _ in range(REPS):
        start = time.perf_counter_ns()
        for item in batch:
            op(item)
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / len(batch)


def _workloads(bits):
    """The benchmarked operations for one security level.

    Returns ``{name: (naive_op, fast_op, batch)}``: the oracle leg and the
    production leg, each returning a comparable value so the two can be
    checked for equality.
    """
    rng = random.Random(bits * 7919)
    group = SchnorrGroup.for_security(bits)
    params = PedersenParameters.generate(group)
    scheme = PedersenCommitment(params)
    vss = FeldmanVSS(group, threshold=3, parties=8)
    dealing = vss.deal(rng.randrange(group.q), rng)

    commit_inputs = [
        (rng.randrange(group.q), rng.randrange(group.q)) for _ in range(BATCH)
    ]
    openings = [
        (scheme.commit_with_randomness(m, r), m, r) for m, r in commit_inputs
    ]
    shares = [dealing.shares[1 + (i % 8)] for i in range(BATCH)]

    def naive_vss_verify(share):
        expected = oracles.vss_expected(group, dealing.commitments, share.x)
        return oracles.group_exp(group.generator, share.value) == expected

    return {
        "pedersen_commit": (
            lambda mr: oracles.pedersen_commit(params, *mr).value,
            lambda mr: scheme.commit_with_randomness(*mr).value,
            commit_inputs,
        ),
        "pedersen_verify": (
            lambda cmo: oracles.pedersen_commit(params, cmo[1], cmo[2]) == cmo[0],
            lambda cmo: scheme.commit_with_randomness(cmo[1], cmo[2]) == cmo[0],
            openings,
        ),
        "vss_verify": (
            naive_vss_verify,
            lambda share: vss.verify_share(dealing.commitments, share),
            shares,
        ),
    }


def _time_call(fn):
    """Min-of-REPS wall-clock (ns) for one zero-argument call."""
    best = None
    for _ in range(REPS):
        start = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _batch_workloads(bits):
    """``{family: (per_item_fn, batched_fn)}`` for m = BATCH checks.

    Both legs return the full verdict list so equivalence is asserted on
    exactly what callers consume.
    """
    rng = random.Random(bits * 104729)
    group = SchnorrGroup.for_security(bits)
    params = PedersenParameters.generate(group)
    scheme = PedersenCommitment(params)
    pairs = [scheme.commit(rng.randrange(group.q), rng) for _ in range(BATCH)]

    feldman = FeldmanVSS(group, threshold=3, parties=BATCH)
    feldman_dealing = feldman.deal(rng.randrange(group.q), rng)
    feldman_shares = [feldman_dealing.shares[i] for i in range(1, BATCH + 1)]

    pedersen_vss = PedersenVSS(params, threshold=3, parties=BATCH)
    pvss_dealing = pedersen_vss.deal(rng.randrange(group.q), rng)
    pvss_shares = [pvss_dealing.shares[i] for i in range(1, BATCH + 1)]

    return {
        "pedersen_openings": (
            lambda: [scheme.verify(c, o) for c, o in pairs],
            lambda: scheme.verify_batch(pairs),
        ),
        "feldman_shares": (
            lambda: [
                feldman.verify_share(feldman_dealing.commitments, share)
                for share in feldman_shares
            ],
            lambda: feldman.verify_shares(
                feldman_dealing.commitments, feldman_shares
            ),
        ),
        "pedersen_vss_shares": (
            lambda: [
                pedersen_vss.verify_share(pvss_dealing.commitments, share)
                for share in pvss_shares
            ],
            lambda: pedersen_vss.verify_shares(
                pvss_dealing.commitments, pvss_shares
            ),
        ),
    }


def test_bench_fastpath_budgets():
    """Fastpath kernels must beat the oracle loops by their budget ratios."""
    measurements = {}
    failures = []
    for bits in SECURITY_LEVELS:
        workloads = _workloads(bits)
        measurements[str(bits)] = {}
        for name, (naive_op, fast_op, batch) in workloads.items():
            naive_values = [naive_op(item) for item in batch]
            naive_ns = _time_batch(naive_op, batch)
            fastpath.clear_caches()
            fast_values = [fast_op(item) for item in batch]  # warm-up: builds tables
            fast_ns = _time_batch(fast_op, batch)
            assert fast_values == naive_values, f"{name}@{bits}: values diverged"
            speedup = naive_ns / fast_ns if fast_ns else float("inf")
            budget = BUDGETS[name]
            measurements[str(bits)][name] = {
                "naive_ns_per_op": round(naive_ns, 1),
                "fast_ns_per_op": round(fast_ns, 1),
                "speedup": round(speedup, 3),
                "budget": budget,
            }
            if speedup < budget:
                failures.append(
                    f"{name}@{bits} bits: {speedup:.2f}x < budget {budget}x"
                )
    batch_measurements = {}
    for bits in SECURITY_LEVELS:
        batch_measurements[str(bits)] = {}
        for family, (per_item, batched) in _batch_workloads(bits).items():
            per_item()  # warm-up: builds fixed-base tables
            assert batched() == per_item(), f"{family}@{bits}: verdicts diverged"
            per_item_ns = _time_call(per_item)
            batched_ns = _time_call(batched)
            speedup = per_item_ns / batched_ns if batched_ns else float("inf")
            budget = BATCH_BUDGETS[family]
            batch_measurements[str(bits)][family] = {
                "items": BATCH,
                "per_item_ns": per_item_ns,
                "batched_ns": batched_ns,
                "speedup": round(speedup, 3),
                "budget": budget,
            }
            if speedup < budget:
                failures.append(
                    f"batch {family}@{bits} bits: {speedup:.2f}x <"
                    f" budget {budget}x"
                )

    artifact = {
        "batch": BATCH,
        "batch_budgets": BATCH_BUDGETS,
        "batch_verify": batch_measurements,
        "reps": REPS,
        "security_levels": list(SECURITY_LEVELS),
        "budgets": BUDGETS,
        "measurements": measurements,
        "fastpath_caches": fastpath.cache_sizes(),
        "fastpath_stats": fastpath.stats(),
    }
    os.makedirs(os.path.dirname(ARTIFACT), exist_ok=True)
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert not failures, "; ".join(failures) + f" (artifact: {artifact})"
