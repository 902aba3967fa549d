"""The command line: ``python -m repro <command> ...``, also installed as ``repro``.

* ``experiments [ID ...]`` — regenerate the paper's tables and figures
  (all of them if no id is given); exits 1 if any reports MISMATCH;
* ``obs export [ID ...]`` — Perfetto trace, artifacts and timelines;
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
usage error exits 2.  To profile a run, use cProfile::

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
from .experiments.common import ExperimentConfig, ExperimentResult, standard_protocols
from .experiments.diffjson import compare_dirs
from .experiments.registry import REGISTRY, TITLES, run_many
from .obs import Metrics, Tracer, export, flightrec, runtime
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

#: The default ``--scale`` of ``obs export``.
EXPORT_SCALE = 0.15


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_json(path: str, payload: Any) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_artifact(directory: str, result: ExperimentResult) -> str:
    """Write ``DIRECTORY/<ID>.json``, the artifact ``diffjson`` and the goldens compare."""
    path = os.path.join(directory, f"{result.experiment_id}.json")
    _write_json(path, result.to_json_dict())
    return path


def _experiment_ids(args: argparse.Namespace, default: List[str]) -> List[str]:
    """The positional experiment ids (``default`` if none); unknown ids are a usage error."""
    unknown = [e for e in args.experiments if e not in REGISTRY]
    if unknown:
        args.error(f"unknown experiment id(s): {', '.join(unknown)} (see `experiments --list`)")
    return args.experiments or default


def _config(args: argparse.Namespace, scale: float, **fields: Any) -> ExperimentConfig:
    """The configuration the shared options select; ``scale`` is the command's default."""
    if args.scale is not None:
        scale = args.scale
    return ExperimentConfig(n=args.n, t=args.t, seed=args.seed, scale=scale, **fields)


# -- experiments ---------------------------------------------------------------------


def run_experiments(args: argparse.Namespace) -> int:
    """Regenerate the paper's tables and figures."""
    if args.list_experiments:
        width = max(map(len, REGISTRY))
        for experiment_id in REGISTRY:
            print(f"{experiment_id.ljust(width)}  {TITLES[experiment_id]}")
        return 0
    experiment_ids = _experiment_ids(args, list(REGISTRY))
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
    config = _config(args, 1.0, fault_plan=fault_plan)
    failures = 0
    for result in run_many(experiment_ids, config, jobs=args.jobs):
        print(result.render())
        print(f"  ({result.metrics.get('wall_seconds', 0.0):.1f}s)\n")
        if args.json is not None:
            _write_artifact(args.json, result)
        failures += not result.passed
    return 1 if failures else 0


# -- obs -----------------------------------------------------------------------------


def run_obs_export(args: argparse.Namespace) -> int:
    """Run experiments traced; write the trace, artifacts, kernel telemetry and timelines."""
    experiment_ids = _experiment_ids(args, ["E-COST"])
    config = _config(args, EXPORT_SCALE)
    protocol = standard_protocols(config).get(args.protocol)
    if protocol is None:
        args.error(f"unknown protocol {args.protocol!r} for the timeline")
    os.makedirs(args.out, exist_ok=True)

    tracer = Tracer()
    with flightrec.recording(run_id="export", dump_dir=args.out):
        with runtime.observed(tracer=tracer, metrics=Metrics()):
            results = run_many(experiment_ids, config, jobs=args.jobs)

    trace_path = os.path.join(args.out, "trace_chrome.json")
    export.write_chrome_trace(trace_path, tracer.records, process_name="repro")
    written = [trace_path] + [_write_artifact(args.out, result) for result in results]
    # Process-local and cache-warmth dependent, so never part of an artifact.
    telemetry_path = os.path.join(args.out, "fastpath.json")
    _write_json(telemetry_path, fastpath.stats())
    written.append(telemetry_path)

    execution = protocol.run([i % 2 for i in range(protocol.n)], seed=config.seed)
    slug = args.protocol.replace("-", "_")
    text_path = os.path.join(args.out, f"timeline_{slug}.txt")
    _write(text_path, export.timeline(execution))
    html_path = os.path.join(args.out, f"timeline_{slug}.html")
    title = f"{args.protocol} execution timeline"
    _write(html_path, export.timeline_html(execution, title=title))
    written.extend([text_path, html_path])

    for path in written:
        print(f"wrote {path}")
    return 0 if all(result.passed for result in results) else 1


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
    sized = argparse.ArgumentParser(add_help=False, parents=[pooled])
    sized.add_argument(
        "--scale", type=float, help=f"sample-size factor (default: 1.0; obs: {EXPORT_SCALE})"
    )
    sized.add_argument("--n", type=int, default=ExperimentConfig.n, help="number of parties")
    sized.add_argument("--t", type=int, default=ExperimentConfig.t, help="corruption bound")

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the results of 'Simultaneous Broadcast Revisited'.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    experiments = _command(commands, "experiments", run_experiments, sized)
    experiments.add_argument("experiments", nargs="*", metavar="ID", help="default: all")
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

    about = "Observability exports: a Perfetto trace, artifacts and timelines."
    obs = commands.add_parser("obs", help=about, description=about)
    obs_commands = obs.add_subparsers(dest="subcommand", required=True)
    obs_export = _command(obs_commands, "export", run_obs_export, sized)
    obs_export.add_argument("experiments", nargs="*", metavar="ID", help="default: E-COST")
    obs_export.add_argument("--out", default="obs-artifacts", metavar="DIR")
    obs_export.add_argument("--protocol", default="cgma", help="zoo protocol for the timeline")

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
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
