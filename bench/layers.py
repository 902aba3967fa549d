"""Layer attribution for the traced benchmark run.

The traced run wraps the public entry points of each ``repro`` layer from
the benchmark's own code; nothing under ``src/`` changes.  A function is
wrapped everywhere it is *looked up*: every module attribute of a loaded
``repro`` module that is bound to it is rebound to the wrapper, so
``from ..net.network import run_protocol`` copies are caught along with
the definition.  A method is wrapped in the class that defines it, which
covers every subclass that inherits it.

Each call of a wrapped entry point opens a *frame* on a per-process
stack.  A frame's self time is its duration minus the duration of the
frames nested in it, charged to the frame's layer, so the self times of
all layers plus ``other`` (time outside every frame) add up to the traced
wall time.  Coarse entry points also open a :class:`repro.obs.Tracer`
span for the Perfetto trace; hot ones (kernels, ``powmod``,
``payload_size``, ``Metrics.inc``) only count.

Pool workers inherit the wrappers through ``fork``.  Each shard ships its
frame totals back as one trace record, which the engine folds into the
coordinator's tracer.  The coordinator charges one worker second as
``1 / jobs`` of a wall second to the worker frame's layer, inside the
``ExperimentEngine.map`` frame that waited for it; the rest of that frame
(idle workers, dispatch, pickling, folding) stays with ``parallel``.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import math
import os
import pickle
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

import repro
from repro import fastpath
from repro.crypto import backend as _backend
from repro.net.adversary import Adversary
from repro.obs import Metrics
from repro.obs import runtime as _obs

#: Layers in report order; each is a module (or module group) of ``repro``.
LAYERS = (
    "net",
    "protocols",
    "adversaries",
    "fastpath",
    "crypto",
    "mpc",
    "core",
    "obs",
    "faults",
    "parallel",
    "scenario",
    "experiments",
)

#: Deterministic registry counters read into per-layer metrics.
REGISTRY_COUNTERS = (
    "net.rounds",
    "net.messages.sent",
    "net.messages.delivered",
    "net.timeouts",
    "net.bytes.sent",
    "crypto.group.exp",
    "crypto.field.mul",
    "crypto.vss.shares_verified",
    "crypto.hash.blocks",
    "faults.dropped",
    "faults.delayed",
    "faults.duplicated",
    "faults.corrupted",
    "faults.crashed",
)

#: Name of the trace record a pool shard ships its frame totals in.
SHARD_RECORD = "bench.layers"

_perf_ns = time.perf_counter_ns


class LayerClock:
    """Frame stack plus per-layer and per-entry-point totals of one process."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl_ns: Dict[str, int] = defaultdict(int)
        self.values: Dict[str, float] = defaultdict(float)
        self.active: Dict[str, int] = defaultdict(int)
        self.stack: List[List[int]] = []
        #: Module attributes and methods each entry point was bound at.
        self.sites: Dict[str, List[str]] = defaultdict(list)

    def clear(self) -> None:
        """Drop every total (the frame stack and the binding sites stay)."""
        for table in (self.self_ns, self.calls, self.incl_ns, self.values):
            table.clear()

    def reset_after_fork(self) -> None:
        """A forked worker starts with no totals and no open frames."""
        self.clear()
        self.active.clear()
        del self.stack[:]

    def drain(self) -> Dict[str, Dict[str, float]]:
        """Snapshot the totals as plain dicts and clear them."""
        snapshot = {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "incl_ns": dict(self.incl_ns),
            "values": dict(self.values),
        }
        self.clear()
        return snapshot

    def charge(self, snapshot: Dict[str, Dict[str, float]], weight: float) -> int:
        """Add a worker snapshot; self times count ``weight`` of a wall second.

        Returns the weighted self time added, in nanoseconds.
        """
        added = 0
        for layer, ns in snapshot["self_ns"].items():
            share = int(ns * weight)
            self.self_ns[layer] += share
            added += share
        for table, source in (
            (self.calls, snapshot["calls"]),
            (self.incl_ns, snapshot["incl_ns"]),
            (self.values, snapshot["values"]),
        ):
            for key, value in source.items():
                table[key] += value
        return added

    def frame(
        self,
        layer: str,
        entry: str,
        fn: Callable[..., Any],
        span: Optional[str] = None,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` so each call is one frame of ``layer`` counted under ``entry``."""
        self_ns, calls, incl_ns, active, stack = (
            self.self_ns,
            self.calls,
            self.incl_ns,
            self.active,
            self.stack,
        )

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[entry] += 1
            outermost = not active[entry]
            active[entry] += 1
            frame = [0]
            stack.append(frame)
            start = _perf_ns()
            try:
                if span is None:
                    result = fn(*args, **kwargs)
                else:
                    with _obs.tracer.span(span):
                        result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                elapsed = _perf_ns() - start
                stack.pop()
                active[entry] -= 1
                if outermost:
                    incl_ns[entry] += elapsed
                self_ns[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def generator_frame(self, layer: str, entry: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a generator function: each resumption of its generator is one frame.

        The returned generator forwards ``send``, ``throw`` and ``close``, so
        callers can ``yield from`` it exactly as from the original.
        """
        self_ns, calls, incl_ns, stack = self.self_ns, self.calls, self.incl_ns, self.stack

        def step(method: Callable[[Any], Any], argument: Any) -> Any:
            frame = [0]
            stack.append(frame)
            start = _perf_ns()
            try:
                return method(argument)
            finally:
                elapsed = _perf_ns() - start
                stack.pop()
                incl_ns[entry] += elapsed
                self_ns[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        def timed(generator: Any) -> Any:
            method, argument = generator.send, None
            while True:
                try:
                    item = step(method, argument)
                except StopIteration as stop:
                    return stop.value
                try:
                    argument = yield item
                    method = generator.send
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as error:
                    method, argument = generator.throw, error

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[entry] += 1
            return timed(fn(*args, **kwargs))

        return wrapper


# -- binding -------------------------------------------------------------------------


def import_all() -> None:
    """Import every ``repro`` module so every lookup site exists before rebinding."""
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def rebind(clock: LayerClock, entry: str, original: Any, wrapper: Any) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                clock.sites[entry].append(f"{name}.{attr}")


def wrap_function(clock: LayerClock, layer: str, entry: str, original: Any, **options: Any) -> None:
    rebind(clock, entry, original, clock.frame(layer, entry, original, **options))


def wrap_method(
    clock: LayerClock, layer: str, entry: str, cls: type, name: str, **options: Any
) -> None:
    original = cls.__dict__[name]
    setattr(cls, name, clock.frame(layer, entry, original, **options))
    clock.sites[entry].append(f"{cls.__module__}.{cls.__qualname__}.{name}")


def _classes_in(package: str) -> List[type]:
    classes = []
    for name, module in sorted(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == name:
                    classes.append(value)
    return classes


def _subclasses(cls: type) -> List[type]:
    found, pending = [cls], [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


# -- the pool seam ---------------------------------------------------------------------


def _wrap_engine(clock: LayerClock) -> None:
    """Wrap ``ExperimentEngine.map`` (coordinator) and ``_run_shard`` (workers)."""
    from repro.parallel import engine as engine_module

    original_map = engine_module.ExperimentEngine.map
    original_shard = engine_module._run_shard
    stack, calls, incl_ns, self_ns, values = (
        clock.stack,
        clock.calls,
        clock.incl_ns,
        clock.self_ns,
        clock.values,
    )

    @functools.wraps(original_map)
    def engine_map(self: Any, fn: Any, arglists: Any) -> Any:
        calls["parallel.map"] += 1
        frame = [0]
        stack.append(frame)
        tracer = _obs.tracer
        before = len(tracer.records)
        start = _perf_ns()
        try:
            with tracer.span("parallel.map", jobs=self.jobs):
                return original_map(self, fn, arglists)
        finally:
            shards = [
                record["attrs"]
                for record in tracer.records[before:]
                if record.get("name") == SHARD_RECORD
            ]
            for snapshot in shards:
                frame[0] += clock.charge(snapshot, 1.0 / self.jobs)
            elapsed = _perf_ns() - start
            stack.pop()
            incl_ns["parallel.map"] += elapsed
            if shards:
                values["parallel.pool_map_ns"] += elapsed
                values["parallel.jobs_map_ns"] += elapsed * self.jobs
            self_ns["parallel"] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

    @functools.wraps(original_shard)
    def run_shard(task: Any) -> Any:
        calls["parallel.task"] += 1
        frame = [0]
        stack.append(frame)
        start = _perf_ns()
        try:
            outcome = original_shard(task)
        finally:
            elapsed = _perf_ns() - start
            stack.pop()
            incl_ns["parallel.task"] += elapsed
            self_ns["parallel"] += elapsed - frame[0]
        for name in REGISTRY_COUNTERS:
            value = outcome.metrics.counters.get(name)
            if value:
                values["registry." + name] += value
        for name, value in fastpath.reset_stats()["counters"].items():
            values["stats." + name] += value
        values["parallel.pickle_bytes"] += len(pickle.dumps(task)) + len(
            pickle.dumps(outcome)
        )
        outcome.trace_records.append(
            {"type": "event", "name": SHARD_RECORD, "path": "", "ts": 0.0, "attrs": clock.drain()}
        )
        return outcome

    engine_module.ExperimentEngine.map = engine_map
    clock.sites["parallel.map"].append("repro.parallel.engine.ExperimentEngine.map")
    rebind(clock, "parallel.task", original_shard, run_shard)

    executor_map = concurrent.futures.ProcessPoolExecutor.map

    @functools.wraps(executor_map)
    def collect(self: Any, *args: Any, **kwargs: Any) -> Any:
        start = _perf_ns()
        results = list(executor_map(self, *args, **kwargs))
        values["parallel.collect_ns"] += _perf_ns() - start
        return results

    concurrent.futures.ProcessPoolExecutor.map = collect


# -- installation ----------------------------------------------------------------------


def install() -> LayerClock:
    """Wrap every layer's entry points in this process; returns the clock."""
    import_all()
    clock = LayerClock()

    def reset_child() -> None:
        clock.reset_after_fork()
        fastpath.STATS.reset()

    os.register_at_fork(after_in_child=reset_child)

    from repro.core import cr, g, gstar, sb, simulators
    from repro.experiments import registry
    from repro.faults.injector import FaultInjector
    from repro.mpc.bgw import bgw_evaluate
    from repro.net.network import run_protocol
    from repro.net.party import PartyState
    from repro.net.scheduler import Scheduler
    from repro.obs.metrics import payload_size
    from repro.parallel import shm
    from repro.scenario import campaign, fuzz, runner, shrink, spec

    # repro.net: the run façade and the scheduler loop (EventScheduler inherits run).
    wrap_function(clock, "net", "net.run_protocol", run_protocol)
    wrap_method(clock, "net", "net.scheduler", Scheduler, "run")

    # repro.protocols / repro.broadcast: per-run setup and party program steps.
    for package in ("repro.protocols", "repro.broadcast", "repro.mpc"):
        for cls in _classes_in(package):
            if "setup" in cls.__dict__ and callable(getattr(cls, "program", None)):
                wrap_method(clock, "protocols", "protocols.setup", cls, "setup")
    wrap_method(clock, "protocols", "protocols.step", PartyState, "start")
    wrap_method(clock, "protocols", "protocols.step", PartyState, "resume")

    # repro.adversaries / repro.net.adversary: every attack's act and observe.
    for cls in _subclasses(Adversary):
        for name in ("act", "observe"):
            if name in cls.__dict__:
                wrap_method(clock, "adversaries", f"adversaries.{name}", cls, name)

    # repro.fastpath kernels, wrapped where repro.crypto looks them up.
    for kernel in ("pow_mod", "multi_pow", "vss_expected", "pedersen_commit"):
        wrap_function(clock, "fastpath", f"fastpath.{kernel}", getattr(fastpath, kernel))
    for verify in ("pedersen_batch_verify", "feldman_batch_verify", "pedersen_vss_batch_verify"):
        wrap_function(clock, "fastpath", "fastpath.batch_verify", getattr(fastpath, verify))

    # repro.crypto: the backend's modular exponentiation, for every backend class.
    for cls in _subclasses(_backend.CryptoBackend):
        if "powmod" in cls.__dict__:
            wrap_method(clock, "crypto", "crypto.backend.powmod", cls, "powmod")

    # repro.mpc: bgw_evaluate is a sub-generator the party programs yield from.
    rebind(clock, "mpc.bgw", bgw_evaluate, clock.generator_frame("mpc", "mpc.bgw", bgw_evaluate))

    # repro.core estimators.
    for estimator in (
        cr.cr_report,
        cr.cr_report_from_samples,
        g.g_report,
        g.g_report_from_samples,
        gstar.g_star_report,
        gstar.g_star_star_report,
        sb.sb_report,
        simulators.sb_advantage,
    ):
        wrap_function(clock, "core", "core.estimator", estimator)

    # repro.obs accounting.
    wrap_function(clock, "obs", "obs.payload_size", payload_size)
    wrap_method(clock, "obs", "obs.metrics", Metrics, "inc")
    wrap_method(clock, "obs", "obs.metrics", Metrics, "observe")

    wrap_method(clock, "faults", "faults.apply", FaultInjector, "apply")

    # repro.parallel: the engine seam and the shared-memory warm tables.
    _wrap_engine(clock)
    wrap_function(clock, "parallel", "parallel.shm.publish", shm.publish_tables)

    def attached(tables: Any) -> None:
        if tables:
            clock.values["parallel.shm.attached"] += 1

    wrap_function(clock, "parallel", "parallel.shm.attach", shm.attach_tables, after=attached)

    # repro.scenario: the campaign's own bookkeeping (checkpoint, report,
    # corpus files) runs in the coordinator inside Campaign.run.
    wrap_method(
        clock, "scenario", "scenario.campaign", campaign.Campaign, "run", span="scenario.campaign"
    )
    wrap_function(clock, "scenario", "scenario.generate", fuzz.generate_scenario)
    wrap_function(clock, "scenario", "scenario.run", runner.run_scenario, span="scenario.run")
    wrap_function(
        clock, "scenario", "scenario.shrink", shrink.shrink_violation, span="scenario.shrink"
    )
    wrap_method(clock, "scenario", "scenario.dump", spec.Scenario, "dump")

    # repro.experiments: one entry per experiment id.
    original = registry.run_experiment

    @functools.wraps(original)
    def run_experiment(experiment_id: str, *args: Any, **kwargs: Any) -> Any:
        entry = f"experiments.{experiment_id}"
        return clock.frame("experiments", entry, original, span=entry)(
            experiment_id, *args, **kwargs
        )

    rebind(clock, "experiments.run", original, run_experiment)
    return clock


# -- reading ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fit_exponent(points: Dict[int, float]) -> float:
    """Least-squares slope of ``log(value)`` against ``log(n)``."""
    pairs = [(math.log(n), math.log(v)) for n, v in sorted(points.items()) if v > 0]
    if len(pairs) < 2:
        return 0.0
    mean_x = sum(x for x, _ in pairs) / len(pairs)
    mean_y = sum(y for _, y in pairs) / len(pairs)
    spread = sum((x - mean_x) ** 2 for x, _ in pairs)
    return sum((x - mean_x) * (y - mean_y) for x, y in pairs) / spread


def layer_metrics(
    clock: LayerClock,
    counters: Dict[str, float],
    stats: Dict[str, float],
    extra: Dict[str, float],
    traced_wall_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced unit, by name (values only)."""
    calls, values = clock.calls, clock.values

    def seconds(entry: str) -> float:
        return clock.incl_ns.get(entry, 0) / 1e9

    def self_s(layer: str) -> float:
        return clock.self_ns.get(layer, 0) / 1e9

    out: Dict[str, float] = {
        "net.runs": calls.get("net.scheduler", 0),
        "net.rounds": counters.get("net.rounds", 0),
        "net.messages": counters.get("net.messages.sent", 0),
        "net.delivered": counters.get("net.messages.delivered", 0),
        "net.timeouts": counters.get("net.timeouts", 0),
        "protocols.setup.calls": calls.get("protocols.setup", 0),
        "protocols.setup.s": seconds("protocols.setup"),
        "protocols.steps": calls.get("protocols.step", 0),
        "adversaries.acts": calls.get("adversaries.act", 0),
    }
    for kernel in ("pow_mod", "multi_pow", "vss_expected", "pedersen_commit", "batch_verify"):
        out[f"fastpath.{kernel}.calls"] = calls.get(f"fastpath.{kernel}", 0)
        out[f"fastpath.{kernel}.s"] = seconds(f"fastpath.{kernel}")
    out["fastpath.batch.accept_ratio"] = _ratio(
        stats.get("fastpath.batch.accepts", 0), stats.get("fastpath.batch.calls", 0)
    )
    hits = stats.get("fastpath.pow.table_hits", 0)
    out["fastpath.table.hit_ratio"] = _ratio(hits, hits + stats.get("fastpath.pow.table_misses", 0))
    out["fastpath.table.builds"] = stats.get("fastpath.table.builds", 0)
    for name in ("group.exp", "field.mul", "vss.shares_verified", "hash.blocks"):
        out[f"crypto.{name}"] = counters.get(f"crypto.{name}", 0)
    out["crypto.backend.powmod.calls"] = calls.get("crypto.backend.powmod", 0)
    out["crypto.backend.powmod.s"] = seconds("crypto.backend.powmod")
    out["mpc.bgw.calls"] = calls.get("mpc.bgw", 0)
    out["mpc.bgw.s"] = seconds("mpc.bgw")
    out["core.estimator.calls"] = calls.get("core.estimator", 0)
    out["core.estimator.s"] = seconds("core.estimator")
    out["obs.payload_size.calls"] = calls.get("obs.payload_size", 0)
    out["obs.payload_size.s"] = seconds("obs.payload_size")
    out["obs.metrics.calls"] = calls.get("obs.metrics", 0)
    out["obs.metrics.s"] = seconds("obs.metrics")
    out["obs.bytes"] = counters.get("net.bytes.sent", 0)
    out["faults.apply.calls"] = calls.get("faults.apply", 0)
    out["faults.apply.s"] = seconds("faults.apply")
    out["faults.records"] = sum(
        counters.get(f"faults.{kind}", 0)
        for kind in ("dropped", "delayed", "duplicated", "corrupted", "crashed")
    )
    pool_map_ns = values.get("parallel.pool_map_ns", 0)
    task_s = seconds("parallel.task")
    out["parallel.pool_start_s"] = extra.get("parallel.pool_start_s", 0.0)
    out["parallel.shm.attach_ratio"] = _ratio(
        extra.get("parallel.shm.attached", 0), extra.get("parallel.shm.attach_calls", 0)
    )
    out["parallel.tasks"] = calls.get("parallel.task", 0)
    out["parallel.map_s"] = pool_map_ns / 1e9
    out["parallel.task_s"] = task_s
    out["parallel.idle_share"] = (
        1.0 - _ratio(task_s * 1e9, values.get("parallel.jobs_map_ns", 0)) if pool_map_ns else 0.0
    )
    out["parallel.pickle_bytes"] = values.get("parallel.pickle_bytes", 0)
    out["parallel.fold_s"] = max(0.0, (pool_map_ns - values.get("parallel.collect_ns", 0)) / 1e9)
    out["scenario.generate.s"] = seconds("scenario.generate")
    out["scenario.run.calls"] = calls.get("scenario.run", 0)
    out["scenario.run.s"] = seconds("scenario.run")
    out["scenario.shrink.calls"] = calls.get("scenario.shrink", 0)
    out["scenario.shrink.s"] = seconds("scenario.shrink")
    for name in (
        "scenario.trials",
        "scenario.violations",
        "scenario.unexpected",
        "scenario.shrink.steps",
        "scenario.corpus_files",
        "scenario.corpus_bytes",
    ):
        out[name] = extra.get(name, 0)
    for experiment_id in ("E-FIG1", "E-TRD", "E-C66"):
        out[f"experiments.{experiment_id}.s"] = seconds(f"experiments.{experiment_id}")
    for name, value in extra.items():
        if name.startswith("scale."):
            out[name] = value
    attributed = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s(layer)
        attributed += self_s(layer)
    out["other_s"] = traced_wall_s - attributed
    out["traced_wall_s"] = traced_wall_s
    return out
