"""The benchmark's workloads: one fixed unit of work each, repeated closed-loop.

A workload is built from the benchmark seed, set up once (parameter caches,
and on the pool workloads a caller-owned two-worker engine), then runs its
unit again and again.  Every repetition does the same work on the same
inputs, so its normalized artifact digest must repeat exactly; a unit
that differs from the first one counts as failed.

Timed regions are measured by a :class:`Meter`: wall time, and CPU time of
this process plus every pool worker (read from ``/proc``, because the
workers stay alive across units and ``RUSAGE_CHILDREN`` only sees reaped
processes).  A :class:`Speedometer` samples how fast the machine runs
interpreter code meanwhile, so times can be stated at a fixed speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.broadcast.emulation import OverPointToPoint
from repro.experiments import registry
from repro.experiments.common import ExperimentConfig
from repro.experiments.diffjson import strip_wall_clock
from repro.obs import Metrics, runtime
from repro.parallel import ExperimentEngine, prewarm, prewarm_for_config
from repro.protocols import (
    CGMABroadcast,
    ChorRabinBroadcast,
    GennaroBroadcast,
    SequentialBroadcast,
)
from repro.scenario import campaign as _campaign

#: Pool size of the pool workloads (the machine the benchmark targets has 2 CPUs).
POOL_JOBS = 2

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _worker_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _worker_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def stop_helper_processes() -> None:
    """Stop and reap the resource tracker that shared-memory tables start.

    ``multiprocessing`` starts it on the first segment and would let it
    exit on its own after this process; the benchmark waits for it instead.
    The stop call is private, so it is skipped where it does not exist.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def digest_of(value: Any) -> str:
    """A short hash of JSON-serializable data (sorted keys, NaN allowed)."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


#: Iterations of the reference loop: 1.2 to 2 ms of pure interpreter work.
REFERENCE_ITERATIONS = 20_000
#: CPU seconds one reference loop takes at the nominal speed: the quiet-host
#: speed of the 2.1 GHz Xeon the benchmark was tuned on.  Normalized times
#: are seconds at this speed.
REFERENCE_NOMINAL_S = 0.0012


def reference_loop() -> int:
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return total


class Speedometer:
    """Samples this machine's interpreter speed in a background thread.

    On a shared host, co-tenants slow every instruction by up to ~60% for
    seconds to minutes at a time, which moves wall and CPU time alike.  A
    daemon thread runs :func:`reference_loop` every ``period_s`` and
    records its *thread* CPU time, so waiting for the GIL or for a CPU
    does not count; what remains is how fast this machine executes Python
    right then.  The sampling costs about 3% of one CPU.
    """

    PERIOD_S = 0.05
    #: Fewest samples a window's median rests on.
    MIN_SAMPLES = 5

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speedometer", daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            start = time.thread_time()
            reference_loop()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()

    def reference_s(self, start: float, end: float) -> float:
        """Median reference-loop time over ``[start, end]`` (``perf_counter`` times).

        Short windows borrow the samples nearest to their middle, so every
        window rests on at least ``MIN_SAMPLES`` samples.
        """
        samples = list(self.samples)
        inside = [seconds for at, seconds in samples if start <= at <= end]
        if len(inside) < self.MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
            inside = [seconds for _, seconds in nearest[: self.MIN_SAMPLES]]
        if not inside:
            raise RuntimeError("the speedometer took no samples")
        return statistics.median(inside)

    def factor(self, start: float, end: float) -> float:
        """Scale that turns seconds measured over ``[start, end]`` into nominal seconds."""
        return REFERENCE_NOMINAL_S / self.reference_s(start, end)


class Meter:
    """Accumulates wall and CPU seconds over timed regions."""

    def __init__(self, worker_pids: List[int]) -> None:
        self.worker_pids = worker_pids
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.last_wall_s = 0.0

    def _cpu_now(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        total = usage.ru_utime + usage.ru_stime
        for pid in self.worker_pids:
            total += _worker_cpu_s(pid)
        return total

    @contextmanager
    def timed(self) -> Iterator[None]:
        cpu = self._cpu_now()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.last_wall_s = time.perf_counter() - start
            self.wall_s += self.last_wall_s
            self.cpu_s += self._cpu_now() - cpu


@dataclass
class UnitResult:
    """What one unit of work produced, besides its timings."""

    attempted: int
    failed: int
    digest: str
    #: Deterministic registry counters the program recorded (None: take them
    #: from the pool shards' registries instead).
    counters: Optional[Dict[str, float]] = None
    #: Workload-specific per-layer values.
    extra: Dict[str, float] = field(default_factory=dict)
    #: scale-n only: (family, n) -> (messages, wall seconds) per protocol run.
    samples: Dict[Tuple[str, int], Tuple[int, float]] = field(default_factory=dict)


def _sum_counters(results: List[Any]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for result in results:
        for name, value in result.metrics.get("counters", {}).items():
            total[name] = total.get(name, 0) + value
    return total


class Workload:
    """Set-up plus one repeatable unit of work."""

    name = "abstract"
    jobs = 1

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.engine: Optional[ExperimentEngine] = None
        self.worker_pids: List[int] = []
        self.pool_start_s = 0.0

    def warm(self) -> None:
        """Fill the parameter caches: safe primes and fixed-base tables at k = 16, 24, 32."""
        prewarm_for_config(ExperimentConfig())

    def setup(self) -> None:
        self.warm()
        if self.jobs > 1:
            start = time.perf_counter()
            self.engine = ExperimentEngine(self.jobs)
            # The first map forks the workers, publishes the warm tables to
            # shared memory and lets every worker attach them.
            self.engine.map(os.getpid, [()] * (2 * self.jobs))
            self.pool_start_s = time.perf_counter() - start
            # The executor's worker table is private; the benchmark only reads it.
            self.worker_pids = sorted(self.engine._pool._processes)

    def unit(self, meter: Meter) -> UnitResult:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident set of this process plus its largest pool worker."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workers = [_worker_peak_rss_mb(pid) for pid in self.worker_pids]
        return own + max(workers, default=0.0)

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.engine = None
        self.worker_pids = []


def _experiment_digest(results: List[Any]) -> str:
    return digest_of([strip_wall_clock(result.to_json_dict()) for result in results])


class PaperCrypto(Workload):
    """E-FIG1 then E-TRD, serially, at a pinned scale where both pass."""

    name = "paper-crypto"
    SCALE = 0.15
    EXPERIMENTS = ("E-FIG1", "E-TRD")

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.config = ExperimentConfig(scale=self.SCALE, seed=ExperimentConfig.seed + seed)

    def unit(self, meter: Meter) -> UnitResult:
        with meter.timed():
            results = [registry.run_experiment(eid, self.config) for eid in self.EXPERIMENTS]
        return UnitResult(
            attempted=len(results),
            failed=sum(not result.passed for result in results),
            digest=_experiment_digest(results),
            counters=_sum_counters(results),
        )


class MpcPool(Workload):
    """E-C66 at full scale, its trial shards on the pre-started two-worker pool."""

    name = "mpc-pool"
    jobs = POOL_JOBS
    SCALE = 1.0

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.config = ExperimentConfig(scale=self.SCALE, seed=ExperimentConfig.seed + seed)

    def unit(self, meter: Meter) -> UnitResult:
        with meter.timed():
            result = registry.run_experiment(
                "E-C66", self.config, jobs=self.jobs, engine=self.engine
            )
        return UnitResult(
            attempted=1,
            failed=int(not result.passed),
            digest=_experiment_digest([result]),
            counters=_sum_counters([result]),
        )


class CampaignPool(Workload):
    """A seeded fuzzing campaign on the pre-started pool, into a fresh directory."""

    name = "campaign-pool"
    jobs = POOL_JOBS
    BUDGET = 2000

    def unit(self, meter: Meter) -> UnitResult:
        out_dir = tempfile.mkdtemp(prefix="campaign-", dir=self.work_dir)
        try:
            campaign = _campaign.Campaign(
                self.seed,
                self.BUDGET,
                jobs=self.jobs,
                out_dir=out_dir,
                report_path=os.path.join(out_dir, "report.json"),
                engine=self.engine,
            )
            with meter.timed():
                report = campaign.run(resume=False)
            with open(campaign.checkpoint_path, encoding="utf-8") as handle:
                rows = [json.loads(line) for line in handle if line.strip()]
            names = os.listdir(out_dir)
            corpus_bytes = sum(os.path.getsize(os.path.join(out_dir, name)) for name in names)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        totals = report["totals"]
        return UnitResult(
            attempted=totals["scenarios"],
            failed=sum(1 for row in rows if row["unexpected"]),
            digest=digest_of(report),
            extra={
                "scenario.trials": sum(row["trials"] for row in rows),
                "scenario.violations": sum(len(row["violations"]) for row in rows),
                "scenario.unexpected": totals["unexpected"],
                "scenario.shrink.steps": sum(item["steps"] for item in report["shrunk"]),
                "scenario.corpus_files": len(names),
                "scenario.corpus_bytes": corpus_bytes,
            },
        )


def _family_builders(k: int, t: int) -> Dict[str, Any]:
    return {
        "sequential": lambda n: SequentialBroadcast(n, t),
        "chor-rabin": lambda n: ChorRabinBroadcast(n, t, security_bits=k),
        "gennaro": lambda n: GennaroBroadcast(n, t, security_bits=k),
        "cgma": lambda n: CGMABroadcast(n, t, security_bits=k),
        "p2p-gennaro": lambda n: OverPointToPoint(
            GennaroBroadcast(n, t, security_bits=k), security_bits=k
        ),
    }


class ScaleN(Workload):
    """One run per protocol family and party count n, each under a fresh registry."""

    name = "scale-n"
    K = 16
    T = 1
    SIZES = {
        "sequential": (16, 32, 64),
        "chor-rabin": (16, 32, 64),
        "gennaro": (16, 32, 64),
        "cgma": (16, 32),
        "p2p-gennaro": (8, 16),
    }

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.builders = _family_builders(self.K, self.T)
        self.runs = []
        for family, sizes in self.SIZES.items():
            for n in sizes:
                rng = random.Random(seed * 1_000_003 + n)
                inputs = [rng.randrange(2) for _ in range(n)]
                self.runs.append((family, n, inputs, rng.getrandbits(32)))

    def warm(self) -> None:
        prewarm([self.K])

    def unit(self, meter: Meter) -> UnitResult:
        failed = 0
        records = []
        samples: Dict[Tuple[str, int], Tuple[int, float]] = {}
        for family, n, inputs, run_seed in self.runs:
            # Keep an enabled tracer, as E-COST's measure_protocol does.
            tracer = runtime.tracer if runtime.tracer.enabled else None
            with meter.timed():
                protocol = self.builders[family](n)
                with runtime.observed(tracer=tracer, metrics=Metrics()) as (_, metrics):
                    execution = protocol.run(inputs, seed=run_seed)
            messages = len(execution.all_messages())
            if (
                metrics.get("net.messages.sent") != messages
                or metrics.get("net.rounds") != execution.round_count
            ):
                failed += 1
            samples[(family, n)] = (messages, meter.last_wall_s)
            records.append([family, n, metrics.snapshot()["counters"], repr(execution.outputs)])
        counters: Dict[str, float] = {}
        for _, _, run_counters, _ in records:
            for name, value in run_counters.items():
                counters[name] = counters.get(name, 0) + value
        return UnitResult(
            attempted=len(self.runs),
            failed=failed,
            digest=digest_of(records),
            counters=counters,
            samples=samples,
        )


WORKLOADS = {cls.name: cls for cls in (PaperCrypto, MpcPool, CampaignPool, ScaleN)}


def make(name: str, seed: int, work_dir: str) -> Workload:
    return WORKLOADS[name](seed, work_dir)
