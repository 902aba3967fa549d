"""Layer-attributed end-to-end benchmark of the simbcast reproduction.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload is set up, then its fixed unit of work
runs closed-loop (each unit starts when the previous one ends) until
``--seconds`` have passed and at least three units ran; the end-to-end
metrics are medians over units, with times stated at the nominal machine
speed of ``workloads.Speedometer``.  With ``--trace 1`` the untraced units
run first, then the layer wrappers of ``layers.py`` are installed and one
more unit runs traced; the per-layer metrics come from that unit.

Every unit's outputs are checked (see ``workloads.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit).  Earlier lines give the machine
fingerprint and a readable summary.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: campaign corpora and the Perfetto trace.
WORK_DIR = ROOT / ".bench_out"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 9
#: Fewest timed units per untraced run, whatever ``--seconds`` says.
MIN_UNITS = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

SCALE_FAMILIES = ("sequential", "chor-rabin", "gennaro", "cgma", "p2p-gennaro")
#: The n-scaling metrics of workloads that sweep no n.
NO_SCALING = {f"scale.{f}.{k}": 0.0 for f in SCALE_FAMILIES for k in ("msg_exp", "wall_exp")}

#: Per-layer metrics the traced run adds to ``layers.layer_metrics``.
RUN_METRICS = ("trace_overhead", "machine.reference_s")


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_exp"):
        return "exponent"
    if name.endswith(("_bytes", ".bytes")):
        return "B"
    if name == "trace_overhead":
        return "x"
    return "count"


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> Dict[str, Any]:
    """What the numbers depend on besides the code: compare runs only when equal."""
    from repro import fastpath
    from repro.net.runtime import resolve_runtime
    from repro.parallel import default_jobs, warmup

    machine = {
        "nproc": default_jobs(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "crypto_backend": fastpath.stats()["backend"],
        "fastpath": fastpath.enabled(),
        "runtime": resolve_runtime().kind,
        "shm_tables": warmup.shm_tables_enabled(),
    }
    machine_id = hashlib.sha256(json.dumps(machine, sort_keys=True).encode()).hexdigest()[:12]
    return {**machine, "machine_id": machine_id, "commit": git_commit()}


@dataclass
class Timed:
    """One unit's result with its measured times and the machine-speed factor."""

    result: Any
    wall_s: float
    cpu_s: float
    #: Nominal seconds per measured second while the unit ran.
    factor: float


def probe_setup(workload: str, seed: int, speed: Any) -> Tuple[float, float]:
    """(measured, nominal) seconds from a fresh interpreter's start to set-up done."""
    command = [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed), str(WORK_DIR)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as process:
        line = process.stdout.readline()
        end = time.perf_counter()
        process.stdout.read()
        code = process.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return end - start, (end - start) * speed.factor(start, end)


def run_units(workload: Any, seconds: float, min_units: int) -> List[Timed]:
    """Repeat the unit closed-loop until ``seconds`` passed and ``min_units`` ran."""
    import workloads

    units = []
    with workloads.Speedometer() as speed:
        start = time.perf_counter()
        while len(units) < min_units or time.perf_counter() - start < seconds:
            meter = workloads.Meter(workload.worker_pids)
            begin = time.perf_counter()
            result = workload.unit(meter)
            factor = speed.factor(begin, time.perf_counter())
            units.append(Timed(result, meter.wall_s, meter.cpu_s, factor))
    return units


def tally(results: List[Any], reference: str) -> Tuple[int, int]:
    """(attempted, failed); a unit whose digest differs from ``reference`` fails whole."""
    attempted = failed = 0
    for result in results:
        attempted += result.attempted
        failed += result.attempted if result.digest != reference else result.failed
    return attempted, failed


def untraced(args: argparse.Namespace) -> Tuple[Dict[str, float], int, int]:
    import workloads

    with workloads.Speedometer() as speed:
        setups = [probe_setup(args.workload, args.seed, speed) for _ in range(SETUP_PROBES)]
    workload = workloads.make(args.workload, args.seed, str(WORK_DIR))
    workload.setup()
    try:
        units = run_units(workload, args.seconds, MIN_UNITS)
        peak_rss_mb = workload.peak_rss_mb()
    finally:
        workload.close()
    attempted, failed = tally([u.result for u in units], units[0].result.digest)
    print(f"# {len(units)} units, measured (nominal) seconds:")
    print("#   wall " + " ".join(f"{u.wall_s:.4f} ({u.wall_s * u.factor:.4f})" for u in units))
    print("#   cpu  " + " ".join(f"{u.cpu_s:.4f} ({u.cpu_s * u.factor:.4f})" for u in units))
    print("#   setup " + " ".join(f"{raw:.4f} ({nominal:.4f})" for raw, nominal in setups))
    metrics = {
        "wall_s": statistics.median(u.wall_s * u.factor for u in units),
        "cpu_s": statistics.median(u.cpu_s * u.factor for u in units),
        "setup_s": statistics.median(nominal for _, nominal in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, attempted, failed


def scale_exponents(units: List[Timed]) -> Dict[str, float]:
    """Log-log slopes of messages and of median run time against n, per family."""
    import layers

    samples = units[0].result.samples
    out = {}
    for family in SCALE_FAMILIES:
        sizes = sorted(n for f, n in samples if f == family)
        messages = {n: samples[(family, n)][0] for n in sizes}
        walls = {
            n: statistics.median(u.result.samples[(family, n)][1] * u.factor for u in units)
            for n in sizes
        }
        out[f"scale.{family}.msg_exp"] = layers.fit_exponent(messages)
        out[f"scale.{family}.wall_exp"] = layers.fit_exponent(walls)
    return out


def traced(args: argparse.Namespace) -> Tuple[Dict[str, float], int, int]:
    import layers
    import workloads
    from repro import fastpath
    from repro.obs import Tracer, export, runtime

    workload = workloads.make(args.workload, args.seed, str(WORK_DIR))
    workload.setup()
    try:
        units = run_units(workload, args.seconds, 1)
    finally:
        workload.close()
    results = [u.result for u in units]
    untraced_nominal = statistics.median(u.wall_s * u.factor for u in units)

    clock = layers.install()
    tracer = Tracer()
    # The tracer goes in without a registry: units run with exactly the
    # registries they install themselves, as in the untraced run.
    runtime.install(tracer, None)
    try:
        workload.setup()
        # Set-up work is not the unit's: keep only what describes the pool start.
        attach_calls = clock.calls.get("parallel.shm.attach", 0)
        attached = clock.values.get("parallel.shm.attached", 0)
        clock.clear()
        fastpath.reset_stats()
        with workloads.Speedometer() as speed:
            meter = workloads.Meter(workload.worker_pids)
            begin = time.perf_counter()
            result = workload.unit(meter)
            factor = speed.factor(begin, time.perf_counter())
    finally:
        runtime.uninstall()
        workload.close()
    pool_start_s = workload.pool_start_s
    attach_calls += clock.calls.get("parallel.shm.attach", 0)
    attached += clock.values.get("parallel.shm.attached", 0)

    stats = dict(fastpath.reset_stats()["counters"])
    for name, value in clock.values.items():
        if name.startswith("stats."):
            stats[name[6:]] = stats.get(name[6:], 0) + value
    counters = result.counters
    if counters is None:
        counters = {
            name[9:]: value for name, value in clock.values.items() if name.startswith("registry.")
        }
    extra = dict(result.extra)
    extra["parallel.pool_start_s"] = pool_start_s
    extra["parallel.shm.attach_calls"] = attach_calls
    extra["parallel.shm.attached"] = attached
    extra.update(scale_exponents(units) if results[0].samples else NO_SCALING)

    metrics = layers.layer_metrics(clock, counters, stats, extra, meter.wall_s)
    # Both sides at nominal speed, so host contention does not pose as overhead.
    metrics["trace_overhead"] = meter.wall_s * factor / untraced_nominal
    metrics["machine.reference_s"] = workloads.REFERENCE_NOMINAL_S / factor

    trace_path = WORK_DIR / f"trace-{args.workload}.json"
    export.write_chrome_trace(
        trace_path, [record for record in tracer.records if record["type"] == "span"]
    )
    calls = {entry: clock.calls.get(entry, 0) for entry in sorted(clock.sites)}
    sites = {entry: len(bound) for entry, bound in clock.sites.items()}
    print("# layers " + json.dumps({"calls": calls, "sites": sites}, sort_keys=True))
    print(
        f"# nominal wall_s untraced {untraced_nominal:.4f}, traced {meter.wall_s * factor:.4f};"
        f" Perfetto trace {trace_path}"
    )
    attempted, failed = tally(results + [result], results[0].digest)
    return metrics, attempted, failed


def declared_names(trace: int) -> List[str]:
    """Metric names ``BENCHMARK.json`` declares for this mode (empty if absent)."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    spec = json.loads(path.read_text())
    return [metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]]


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: {SRC / 'repro'} not found; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        known = sorted(workloads.WORKLOADS)
        print(f"bench: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    print("# fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    try:
        metrics, attempted, failed = (traced if args.trace else untraced)(args)
    finally:
        workloads.stop_helper_processes()

    declared = declared_names(args.trace)
    if declared and sorted(declared) != sorted(metrics):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        print(
            f"bench: metrics disagree with BENCHMARK.json: missing {missing}, undeclared {extra}",
            file=sys.stderr,
        )
        return 3
    units = END_TO_END_UNITS if not args.trace else {name: layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# failed {failed} of {attempted} operations")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
