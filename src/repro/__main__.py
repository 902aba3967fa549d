"""The command line: ``python -m repro <command> ...``, also installed as ``repro``.

* ``experiments [ID ...]`` — regenerate the paper's tables and figures
  (all of them if no id is given); exits 1 if any reports MISMATCH;
* ``campaign [validate|exec|shrink]`` — seeded, resumable scenario fuzzing
  over the protocol zoo with minimal-repro shrinking (:mod:`repro.scenario`);
* ``analyze [PATH ...]`` — the determinism & protocol-discipline static
  analyzer (:mod:`repro.analysis`); exits 1 on any finding;
* ``diffjson DIR DIR`` — compare two ``--json`` artifact directories,
  ignoring wall-clock fields; exits 1 on any other difference.  The
  regression surface is ``diffjson results/golden DIR``: the committed
  artifacts of ``experiments --scale 0.15 --json DIR``.

``--jobs``, ``--seed``, ``--scale``, ``--n`` and ``--t`` are declared once,
in :func:`build_parser`.  ``--jobs`` defaults to one worker per CPU, and
results are bit-identical at any value (see :mod:`repro.parallel`).  A
usage error exits 2.

``python -m repro --trace FILE <command> ...`` runs any command under a
:class:`~repro.obs.Tracer` and writes its spans and events, pool workers'
included, as one Chrome/Perfetto trace (open it at ui.perfetto.dev), even
when the command fails.  The trace's ``metadata`` holds the coordinator
process's :func:`repro.fastpath.stats`.  Tracing moves no artifact bit.
To profile a run, use cProfile::

    python -m cProfile -s cumulative -m repro experiments --jobs 1 E-COST
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, List, Optional

from . import fastpath
from .analysis.engine import analyze_files, iter_python_files
from .analysis.report import DEFAULT_REPORT_PATH, AnalysisReport, write_report
from .analysis.rules import ALL_RULES, resolve_rules, rule_catalog
from .errors import ScenarioError
from .experiments.common import ExperimentConfig, ExperimentResult
from .experiments.diffjson import compare_dirs
from .experiments.registry import REGISTRY, TITLES, run_many
from .obs import Tracer, export, runtime
from .parallel import default_jobs
from .scenario.campaign import (
    DEFAULT_BATCH,
    DEFAULT_OUT_DIR,
    DEFAULT_REPORT,
    DEFAULT_SHRINK_LIMIT,
    Campaign,
)
from .scenario.runner import run_scenario
from .scenario.schema import load_fault_plan, load_structured, scenario_errors
from .scenario.shrink import shrink_violation
from .scenario.spec import Scenario

def _write_artifact(directory: str, result: ExperimentResult) -> None:
    """Write ``DIRECTORY/<ID>.json``, the artifact ``diffjson`` and the goldens compare."""
    path = os.path.join(directory, f"{result.experiment_id}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n")


# -- experiments ---------------------------------------------------------------------


def run_experiments(args: argparse.Namespace) -> int:
    """Regenerate the paper's tables and figures."""
    if args.list_experiments:
        width = max(map(len, REGISTRY))
        for experiment_id in REGISTRY:
            print(f"{experiment_id.ljust(width)}  {TITLES[experiment_id]}")
        return 0
    unknown = [e for e in args.experiments if e not in REGISTRY]
    if unknown:
        args.error(f"unknown experiment id(s): {', '.join(unknown)} (see `experiments --list`)")
    if args.json is not None:
        try:
            os.makedirs(args.json, exist_ok=True)
        except OSError as exc:
            args.error(f"--json target {args.json!r} is not a usable directory: {exc}")
    fault_plan = None
    if args.faults is not None:
        # Schema-validated load: a malformed plan fails here with a
        # field-by-field diagnosis instead of a stack trace from deep
        # inside the fault injector.
        try:
            fault_plan = load_fault_plan(args.faults)
        except ScenarioError as exc:
            args.error(f"--faults {args.faults!r}: {exc}")
    config = ExperimentConfig(
        n=args.n, t=args.t, seed=args.seed, scale=args.scale, fault_plan=fault_plan
    )
    failures = 0
    for result in run_many(args.experiments or list(REGISTRY), config, jobs=args.jobs):
        print(result.render())
        print(f"  ({result.metrics.get('wall_seconds', 0.0):.1f}s)\n")
        if args.json is not None:
            _write_artifact(args.json, result)
        failures += not result.passed
    return 1 if failures else 0


# -- campaign ------------------------------------------------------------------------


def run_campaign(args: argparse.Namespace) -> int:
    """Fuzz seeded scenarios through the protocol zoo, checkpointed and resumable."""
    campaign = Campaign(
        seed=args.seed,
        budget=args.budget,
        jobs=args.jobs,
        out_dir=args.out,
        report_path=args.report,
        batch=args.batch,
        shrink_limit=args.shrink_limit,
    )
    log = None if args.quiet else (lambda message: print(message, flush=True))
    report = campaign.run(resume=not args.fresh, log=log)

    totals = report["totals"]
    print(
        f"campaign seed={args.seed}: {totals['scenarios']} scenarios,"
        f" {totals['violating']} violating,"
        f" {totals['unexpected']} unexpected guarantee breach(es)"
    )
    for entry in report.get("shrunk", []):
        print(f"  minimal repro {entry['id']}.min.json ({entry['steps']} shrink step(s))")
    print(f"report written to {args.report}")
    return 1 if totals["unexpected"] else 0


def run_validate(args: argparse.Namespace) -> int:
    """Schema-check scenario files without running anything."""
    failures = 0
    for path in args.files:
        try:
            data = load_structured(path)
        except ScenarioError as exc:
            print(f"{path}: {exc}")
            failures += 1
            continue
        problems = scenario_errors(data)
        if problems:
            failures += 1
            print(f"{path}: INVALID")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"{path}: ok ({Scenario.from_dict(data).scenario_id()})")
    return 1 if failures else 0


def run_exec(args: argparse.Namespace) -> int:
    """Run one scenario file and print its outcome row."""
    try:
        scenario = Scenario.load(args.file)
    except ScenarioError as exc:
        args.error(str(exc))
    row = run_scenario(scenario)
    json.dump(row, sys.stdout, indent=2, sort_keys=True)
    print()
    return 1 if row["violations"] else 0


def run_shrink(args: argparse.Namespace) -> int:
    """Reduce a violating scenario file to its minimal repro."""
    try:
        scenario = Scenario.load(args.file)
        minimal, row, steps = shrink_violation(scenario)
    except ScenarioError as exc:
        args.error(str(exc))
    out = args.out or os.path.splitext(args.file)[0] + ".min.json"
    minimal.dump(out)
    kinds = sorted({violation["kind"] for violation in row["violations"]})
    print(
        f"shrunk {scenario.scenario_id()} -> {minimal.scenario_id()}"
        f" in {steps} step(s); violation kinds preserved: {', '.join(kinds)}"
    )
    print(f"minimal repro written to {out}")
    return 0


# -- analyze and diffjson ------------------------------------------------------------


def run_analyze(args: argparse.Namespace) -> int:
    """Determinism & protocol-discipline static analyzer; every finding gates."""
    if args.list_rules:
        width = max(len(rule.id) for rule in ALL_RULES)
        for entry in rule_catalog():
            print(
                f"{entry['id'].ljust(width)}  [{entry['severity']}]"
                f" {entry['title']} — {entry['rationale']}"
            )
        return 0
    try:
        rules = resolve_rules([part.strip() for part in args.rules.split(",") if part.strip()])
    except KeyError as exc:
        args.error(str(exc.args[0]))
    if args.paths:
        targets = [os.path.abspath(path) for path in args.paths]
        root = os.getcwd()
    else:
        # The installed package, with paths relative to the directory holding it.
        package = os.path.dirname(os.path.abspath(__file__))
        targets = [package]
        root = os.path.dirname(package)
    files = iter_python_files(targets)
    if not files:
        args.error(f"no python files under: {', '.join(targets)}")
    findings, scanned = analyze_files(files, rules, root=root)
    report = AnalysisReport(findings=findings, files_scanned=scanned)
    if args.out != "-":
        write_report(report, args.out)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text())
    return 1 if report.findings else 0


def run_diffjson(args: argparse.Namespace) -> int:
    """Diff two experiment artifact directories, ignoring wall-clock."""
    for directory in (args.serial_dir, args.parallel_dir):
        if not os.path.isdir(directory):
            args.error(f"not a directory: {directory}")
    diffs = compare_dirs(args.serial_dir, args.parallel_dir)
    if diffs:
        print(f"DIVERGENCE: {len(diffs)} difference(s) beyond wall-clock:")
        for diff in diffs:
            print(f"  {diff}")
        return 1
    count = len([f for f in os.listdir(args.serial_dir) if f.endswith(".json")])
    print(f"ok: {count} artifact(s) identical modulo wall-clock")
    return 0


# -- the parser ----------------------------------------------------------------------


def positive_int(text: str) -> int:
    """The argument type of ``--jobs``, ``--budget`` and ``--batch``."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _command(
    commands: Any,
    name: str,
    run: Callable[[argparse.Namespace], int],
    *parents: argparse.ArgumentParser,
) -> argparse.ArgumentParser:
    """A subcommand described by ``run``'s docstring; parsing it sets ``run`` and ``error``."""
    parser = commands.add_parser(
        name, help=run.__doc__, description=run.__doc__, parents=list(parents)
    )
    parser.set_defaults(run=run, error=parser.error)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The one parser of every command; :func:`main` runs the command it selects."""
    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument(
        "--jobs",
        type=positive_int,
        default=default_jobs(),
        metavar="N",
        help="worker processes (default: one per CPU); results are identical at any value",
    )
    pooled.add_argument(
        "--seed",
        type=int,
        default=ExperimentConfig.seed,
        help="master seed (default: %(default)s); every trial and scenario derives from it",
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the results of 'Simultaneous Broadcast Revisited'.",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write the command's spans and events as a Chrome/Perfetto trace to FILE",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    experiments = _command(commands, "experiments", run_experiments, pooled)
    experiments.add_argument("experiments", nargs="*", metavar="ID", help="default: all")
    experiments.add_argument(
        "--scale",
        type=float,
        default=ExperimentConfig.scale,
        help="sample-size factor (default: %(default)s)",
    )
    experiments.add_argument("--n", type=int, default=ExperimentConfig.n, help="number of parties")
    experiments.add_argument("--t", type=int, default=ExperimentConfig.t, help="corruption bound")
    experiments.add_argument(
        "--list", action="store_true", dest="list_experiments", help="list ids and titles"
    )
    experiments.add_argument("--json", metavar="DIR", help="also write DIR/<ID>.json artifacts")
    experiments.add_argument(
        "--faults",
        metavar="PLAN.json",
        help="a repro.faults.FaultPlan file E-FAULT sweeps next to its standard plans"
        " (measured, never gated)",
    )

    campaign = _command(commands, "campaign", run_campaign, pooled)
    campaign.add_argument("--budget", type=positive_int, default=200, metavar="N", help="scenarios")
    campaign.add_argument("--out", default=DEFAULT_OUT_DIR, metavar="DIR", help="corpus dir")
    campaign.add_argument("--report", default=DEFAULT_REPORT, metavar="PATH")
    campaign.add_argument(
        "--batch", type=positive_int, default=DEFAULT_BATCH, metavar="N", help="per checkpoint"
    )
    campaign.add_argument(
        "--shrink",
        type=int,
        default=DEFAULT_SHRINK_LIMIT,
        metavar="K",
        dest="shrink_limit",
        help="violators that get a minimal repro (0 disables shrinking)",
    )
    campaign.add_argument("--fresh", action="store_true", help="remove the checkpoint first")
    campaign.add_argument("--quiet", action="store_true", help="suppress progress output")
    scenario_commands = campaign.add_subparsers(dest="subcommand")
    validate = _command(scenario_commands, "validate", run_validate)
    validate.add_argument("files", nargs="+", metavar="FILE")
    _command(scenario_commands, "exec", run_exec).add_argument("file", metavar="FILE")
    shrink = _command(scenario_commands, "shrink", run_shrink)
    shrink.add_argument("file", metavar="FILE")
    shrink.add_argument("--out", metavar="PATH", help="default: FILE with a .min.json suffix")

    analyze = _command(commands, "analyze", run_analyze)
    analyze.add_argument("paths", nargs="*", help="default: the installed repro package")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--rules", metavar="IDS", default="", help="comma-separated rule ids")
    analyze.add_argument(
        "--out", metavar="PATH", default=DEFAULT_REPORT_PATH, help="JSON report; '-' disables"
    )
    analyze.add_argument("--list-rules", action="store_true", help="print the rule catalog")

    diffjson = _command(commands, "diffjson", run_diffjson)
    diffjson.add_argument("serial_dir", help="artifacts of the reference run")
    diffjson.add_argument("parallel_dir", help="artifacts of the run under test")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trace is None:
        return args.run(args)
    directory = os.path.dirname(os.path.abspath(args.trace))
    if not os.path.isdir(directory):
        parser.error(f"--trace {args.trace!r}: no such directory {directory!r}")
    # Only the tracer changes: the command keeps the ambient Metrics and
    # flight recorder it would have without --trace.
    ambient, tracer = runtime.tracer, Tracer()
    runtime.tracer = tracer
    try:
        return args.run(args)
    finally:
        runtime.tracer = ambient
        # Process-local and cache-warmth dependent, so never part of an artifact.
        telemetry = {"fastpath": {"coordinator": fastpath.stats()}}
        export.write_chrome_trace(args.trace, tracer.records, metadata=telemetry)


if __name__ == "__main__":
    sys.exit(main())
