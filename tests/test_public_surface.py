"""Every public definition in ``src/repro`` has a caller.

A definition that only its own unit tests reach is surface nobody runs:
no experiment, campaign, CLI command, example or benchmark.  This guard
tokenizes every module, so docstrings and comments do not count, and
fails when a public top-level name defined outside a package
``__init__``, or a public method of a class, has no code reference
elsewhere.  Elsewhere means ``src/`` (outside the definition itself, the
same-named methods of other classes and the package re-exports),
``examples/``, ``bench/``, ``benchmarks/`` or ``pyproject.toml``;
``tests/`` does not count.  A method counts as called when any code token
carries its name, so the method census finds only uniquely named dead
methods.

The deliberate exceptions sit in :data:`KEEP` and :data:`KEEP_METHODS`,
one line of reason each.  An entry that names no definition, or a
definition that has since gained a caller, fails too, so the lists cannot
rot.
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


#: ``module.Class.method`` -> why it stays although nothing outside tests calls it.
KEEP_METHODS = {
    "repro.core.verdict.IndependenceReport.summary": "README's library example prints it",
    "repro.net.adversary.PassiveAdversary.set_program_factory": (
        "the scheduler installs it through getattr, which a token census cannot see"
    ),
    "repro.obs.tracer.Tracer.spans": "the reader every instrumentation test queries spans with",
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
    """(definitions, methods, references): every public top-level
    definition of the package as ``(module, name, path, first line, last
    line)``, every public method as ``(module.Class, name, path, first
    line, last line)``, and every code reference as ``name -> [(path,
    line), ...]``."""
    references = defaultdict(list)
    definitions = []
    methods = []
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
        if PACKAGE in path.parents:
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                owner = f"{_module_name(path)}.{node.name}"
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not item.name.startswith("_"):
                            methods.append((owner, item.name, path, item.lineno, item.end_lineno))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    for match in re.finditer(r"[A-Za-z_][A-Za-z0-9_]*", pyproject):
        references[match.group()].append((ROOT / "pyproject.toml", 0))
    return definitions, methods, references


def _without_callers(definitions, references, overrides=False):
    """``owner.name`` -> ``path:line`` of every definition that no reference
    outside itself reaches (nor, with ``overrides``, outside any same-named
    definition: one override does not call another)."""
    spans = defaultdict(list)
    for _, name, path, first, last in definitions:
        spans[name].append((path, first, last))
    uncalled = {}
    for owner, name, path, first, last in definitions:
        skipped = spans[name] if overrides else [(path, first, last)]
        callers = [
            (where, line)
            for where, line in references[name]
            if not any(where == at and start <= line <= end for at, start, end in skipped)
        ]
        if not callers:
            uncalled[f"{owner}.{name}"] = f"{path.relative_to(ROOT)}:{first}"
    return uncalled


def _uncalled():
    """``module.Name`` -> ``path:line`` of every top-level definition without a caller."""
    definitions, _, references = _census()
    return _without_callers(definitions, references)


def _uncalled_methods():
    """``module.Class.method`` -> ``path:line`` of every method without a caller."""
    _, methods, references = _census()
    return _without_callers(methods, references, overrides=True)


def test_every_public_definition_has_a_caller():
    unexpected = {key: where for key, where in _uncalled().items() if key not in KEEP}
    assert not unexpected, (
        "public definitions that nothing outside tests/ calls; delete them"
        " (with the tests that exercise only them) or give KEEP a reason:\n  "
        + "\n  ".join(f"{where}  {key}" for key, where in sorted(unexpected.items()))
    )


def test_every_exception_names_an_uncalled_definition():
    definitions, methods, _ = _census()
    for keep, census, uncalled in (
        (KEEP, definitions, _uncalled()),
        (KEEP_METHODS, methods, _uncalled_methods()),
    ):
        defined = {f"{owner}.{name}" for owner, name, *_ in census}
        missing = sorted(set(keep) - defined)
        assert not missing, f"keep list names definitions that no longer exist: {missing}"
        called = sorted(set(keep) - set(uncalled))
        assert not called, f"keep entries that now have a caller, so need no exception: {called}"


def test_every_public_method_has_a_caller():
    unexpected = {
        key: where for key, where in _uncalled_methods().items() if key not in KEEP_METHODS
    }
    assert not unexpected, (
        "public methods that nothing outside tests/ calls; delete them"
        " (with the tests that exercise only them) or give KEEP_METHODS a reason:\n  "
        + "\n  ".join(f"{where}  {key}" for key, where in sorted(unexpected.items()))
    )
