"""CLI driver: ``python -m repro.experiments [EXPERIMENT_ID ...] [options]``.

* default — run the named experiments (all of them if none given), print
  each rendered table, and exit nonzero if any reports MISMATCH;
* ``--list`` — print the registry (id + title) and exit;
* ``--json DIR`` — additionally dump each result (table, data, notes, and
  the measured cost metrics) as ``DIR/<EXPERIMENT_ID>.json``;
* ``--jobs N`` — shard the run across N worker processes (default: all
  CPUs; results are bit-identical at every worker count, so ``--jobs`` is
  purely a wall-clock knob — see :mod:`repro.parallel`);
* ``--faults PLAN.json`` — load a :class:`repro.faults.FaultPlan` and
  sweep it through E-FAULT alongside the standard plan library (the
  custom plan is measured but never fails the run);
* ``--profile`` — run the whole batch under :mod:`cProfile` (forces
  ``--jobs 1``: the profiler sees only the coordinator process) and write
  the top functions by cumulative time as ``PROFILE.txt`` next to the
  ``--json`` artifacts (or in the working directory).

``python -m repro experiments run ...`` reaches the same driver through
the :mod:`repro.__main__` dispatcher.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..parallel import default_jobs
from .common import ExperimentConfig
from .registry import REGISTRY, TITLES, run_many


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=list(REGISTRY),
        help=f"experiment ids (default: all of {sorted(REGISTRY)})",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list experiment ids and titles, then exit",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="write each result (including metrics) as DIR/<EXPERIMENT_ID>.json",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: CPU count; 1 = serial; "
        "results are identical at any value)",
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN.json",
        default=None,
        help="a fault-plan JSON file (see repro.faults.FaultPlan) swept by"
        " E-FAULT alongside the standard plan library; measured, never gated",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the run with cProfile (forces --jobs 1) and write the"
        " top functions by cumulative time to PROFILE.txt next to the --json"
        " artifacts (or the working directory)",
    )
    parser.add_argument(
        "--runtime",
        choices=["lockstep", "event"],
        default=None,
        help="network runtime preset of every protocol execution (default:"
        " lockstep, or the REPRO_RUNTIME environment variable); 'event'"
        " accepts --delay-model and --omission",
    )
    parser.add_argument(
        "--delay-model",
        metavar="SPEC",
        default=None,
        help="event-runtime delay model, e.g. 'constant:1', 'uniform:0.5,1.5',"
        " 'exponential:1.0', or 'rush:uniform:0.5,1.5' (default:"
        " rush:constant:1, which reproduces lockstep exactly)",
    )
    parser.add_argument(
        "--omission",
        metavar="SPEC",
        default=None,
        help="event-runtime omission policy, e.g. 'drop-all:1',"
        " 'drop-edges:1-2,3-4', or 'random:0.05'",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="sample-size scale factor")
    parser.add_argument("--n", type=int, default=5, help="number of parties")
    parser.add_argument("--t", type=int, default=2, help="corruption bound")
    parser.add_argument("--seed", type=int, default=20050717)
    args = parser.parse_args(argv)

    if args.list_experiments:
        width = max(len(experiment_id) for experiment_id in REGISTRY)
        for experiment_id in REGISTRY:
            print(f"{experiment_id.ljust(width)}  {TITLES[experiment_id]}")
        return 0

    unknown = [e for e in args.experiments if e not in REGISTRY]
    if unknown:
        parser.error(
            f"unknown experiment id(s): {', '.join(unknown)} "
            f"(see --list for the registry)"
        )

    if args.json is not None:
        try:
            os.makedirs(args.json, exist_ok=True)
        except (OSError, FileExistsError) as exc:
            parser.error(f"--json target {args.json!r} is not a usable directory: {exc}")

    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")

    fault_plan = None
    if args.faults is not None:
        # Schema-validated load: a malformed plan fails here with a
        # field-by-field diagnosis instead of a stack trace from deep
        # inside the fault injector.
        from ..errors import ScenarioError
        from ..scenario.schema import load_fault_plan

        try:
            fault_plan = load_fault_plan(args.faults)
        except ScenarioError as exc:
            parser.error(f"--faults {args.faults!r}: {exc}")

    from ..errors import InvalidParameterError
    from ..net.runtime import ENV_DELAY_MODEL, ENV_OMISSION, ENV_RUNTIME, resolve_runtime

    try:
        runtime_config = resolve_runtime(args.runtime, args.delay_model, args.omission)
    except InvalidParameterError as exc:
        parser.error(str(exc))
    # Apply the choice through the environment: run_protocol consults it at
    # every call site, and the parallel engine ships it to pool shards.
    if args.runtime is not None:
        os.environ[ENV_RUNTIME] = args.runtime
    if args.delay_model is not None:
        os.environ[ENV_DELAY_MODEL] = args.delay_model
    if args.omission is not None:
        os.environ[ENV_OMISSION] = args.omission

    config = ExperimentConfig(
        n=args.n,
        t=args.t,
        seed=args.seed,
        scale=args.scale,
        fault_plan=fault_plan,
        runtime=runtime_config.kind,
    )
    experiment_ids = args.experiments or list(REGISTRY)
    if args.profile:
        import cProfile
        import io
        import pstats

        if jobs != 1:
            print("--profile forces --jobs 1 (cProfile sees one process)")
            jobs = 1
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            results = run_many(experiment_ids, config, jobs=jobs)
        finally:
            profiler.disable()
            stream = io.StringIO()
            stats = pstats.Stats(profiler, stream=stream)
            stats.strip_dirs().sort_stats("cumulative").print_stats(40)
            out_dir = args.json or os.curdir
            profile_path = os.path.join(out_dir, "PROFILE.txt")
            with open(profile_path, "w", encoding="utf-8") as handle:
                handle.write(stream.getvalue())
            # The same top-40 as structured records, for machine consumption
            # (dashboards, regression tooling) — mirrors the text report.
            records = []
            for func, (cc, nc, tottime, cumtime, _callers) in sorted(
                stats.stats.items(), key=lambda item: item[1][3], reverse=True
            )[:40]:
                filename, line, name = func
                records.append(
                    {
                        "file": filename,
                        "line": line,
                        "function": name,
                        "ncalls": nc,
                        "primitive_calls": cc,
                        "tottime": round(tottime, 6),
                        "cumtime": round(cumtime, 6),
                    }
                )
            profile_json_path = os.path.join(out_dir, "PROFILE.json")
            with open(profile_json_path, "w", encoding="utf-8") as handle:
                json.dump(
                    {"sort": "cumulative", "top": 40, "functions": records},
                    handle,
                    indent=2,
                )
                handle.write("\n")
            print(f"profile written to {profile_path} and {profile_json_path}")
    else:
        results = run_many(experiment_ids, config, jobs=jobs)

    failures = 0
    for result in results:
        print(result.render())
        elapsed = result.metrics.get("wall_seconds", 0.0)
        print(f"  ({elapsed:.1f}s)\n")
        if args.json is not None:
            path = os.path.join(args.json, f"{result.experiment_id}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(result.to_json_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        if not result.passed:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
