"""Every public top-level definition in ``src/repro`` has a caller.

A definition that only its own unit tests reach is surface nobody runs:
no experiment, campaign, CLI command, example or benchmark.  This guard
tokenizes every module, so docstrings and comments do not count, and
fails when a public top-level name defined outside a package
``__init__`` has no code reference elsewhere.  Elsewhere means ``src/``
(outside the definition itself and the package re-exports),
``examples/``, ``bench/``, ``benchmarks/`` or ``pyproject.toml``;
``tests/`` does not count.

The deliberate exceptions sit in :data:`KEEP`, one line of reason each.
An entry that names no definition, or a definition that has since gained
a caller, fails too, so the list cannot rot.
"""

import ast
import io
import re
import tokenize
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Directories outside ``src/`` whose code counts as a caller.
CALLER_DIRS = ("examples", "bench", "benchmarks")

_SUBSTRATE = (
    "a broadcast substrate that EXPERIMENTS.md's conformance table and the broadcast tests run"
)
_SECTION_3_2 = "Section 3.2's parallel-composition attack, run by the protocol-attack tests"

#: ``module.Name`` -> why it stays although nothing outside tests calls it.
KEEP = {
    "repro.broadcast.ideal.IdealBroadcast": _SUBSTRATE,
    "repro.broadcast.dolev_strong.DolevStrongBroadcast": _SUBSTRATE,
    "repro.broadcast.eig.EIGBroadcast": _SUBSTRATE,
    "repro.broadcast.phase_king.PhaseKingConsensus": _SUBSTRATE,
    "repro.protocols.pease.PeaseInteractiveConsistency": _SECTION_3_2,
    "repro.adversaries.copier.RushedBroadcastCopier": _SECTION_3_2,
    "repro.mpc.bgw.BGWProtocol": "runs bgw_evaluate on its own for the MPC tests",
    "repro.faults.harness.with_faults": "the conformance suite's estimator proxy",
    "repro.obs.flightrec.read_dump": "the reader of the format the flight recorder writes",
    "repro.protocols.cgma.CGMAPedersen": (
        "DESIGN.md §6's Pedersen-VSS ablation; benchmarks/ times PedersenVSS"
    ),
    "repro.core.simulators.HonestInputSimulator": (
        "leaves with core/simulators.py under ROADMAP item 3"
    ),
    "repro.core.simulators.ReplaySimulator": (
        "leaves with core/simulators.py under ROADMAP item 3"
    ),
}


def _module_name(path):
    return ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)


def _reexport_lines(tree):
    """Lines of a package ``__init__``'s imports and ``__all__``: re-exports, not calls."""
    lines = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


@lru_cache(maxsize=None)
def _census():
    """(definitions, references): every public top-level definition of the
    package as ``(module, name, path, first line, last line)``, and every
    code reference as ``name -> [(path, line), ...]``."""
    references = defaultdict(list)
    definitions = []
    files = sorted(PACKAGE.rglob("*.py"))
    for directory in CALLER_DIRS:
        files += sorted((ROOT / directory).rglob("*.py"))
    for path in files:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        skipped = _reexport_lines(tree) if path.name == "__init__.py" else set()
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME and token.start[0] not in skipped:
                references[token.string].append((path, token.start[0]))
        if PACKAGE in path.parents and path.name != "__init__.py":
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    names = [node.target.id]
                else:
                    names = []
                for name in names:
                    if not name.startswith("_"):
                        definitions.append(
                            (_module_name(path), name, path, node.lineno, node.end_lineno)
                        )
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    for match in re.finditer(r"[A-Za-z_][A-Za-z0-9_]*", pyproject):
        references[match.group()].append((ROOT / "pyproject.toml", 0))
    return definitions, references


def _uncalled():
    """``module.Name`` -> ``path:line`` of every definition without a caller."""
    definitions, references = _census()
    uncalled = {}
    for module, name, path, first, last in definitions:
        callers = [
            (where, line)
            for where, line in references[name]
            if not (where == path and first <= line <= last)
        ]
        if not callers:
            uncalled[f"{module}.{name}"] = f"{path.relative_to(ROOT)}:{first}"
    return uncalled


def test_every_public_definition_has_a_caller():
    unexpected = {key: where for key, where in _uncalled().items() if key not in KEEP}
    assert not unexpected, (
        "public definitions that nothing outside tests/ calls; delete them"
        " (with the tests that exercise only them) or give KEEP a reason:\n  "
        + "\n  ".join(f"{where}  {key}" for key, where in sorted(unexpected.items()))
    )


def test_every_exception_names_an_uncalled_definition():
    definitions, _ = _census()
    defined = {f"{module}.{name}" for module, name, *_ in definitions}
    missing = sorted(set(KEEP) - defined)
    assert not missing, f"KEEP names definitions that no longer exist: {missing}"
    called = sorted(set(KEEP) - set(_uncalled()))
    assert not called, f"KEEP entries that now have a caller, so need no exception: {called}"
