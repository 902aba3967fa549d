"""AST rule engine for the determinism & protocol-discipline analyzer.

Every guarantee the reproduction makes — bit-identical serial vs
``--jobs N`` artifacts, replayable fault/timing schedules, the
rushing-adversary degeneracy proofs — rests on coding invariants (seeded
RNG streams only, no wall-clock in artifact paths, no set-iteration
order leaking into transcripts) that CI replay jobs only catch
*dynamically*, late, and with poor shrinking.  This engine makes the
discipline a static property: each :class:`Rule` inspects one parsed
module and yields :class:`Finding` objects; ``python -m repro analyze``
(:mod:`repro.__main__`) gates CI on zero findings.

Escape hatches, in order of preference:

* **module allowlists** — designed seams (the obs timing clock, the
  deployment-settings environment reads) are enumerated per rule in
  :mod:`repro.analysis.rules` with a documented justification;
* **inline suppressions** — ``# repro: allow[RULE001]`` on the flagged
  line silences that rule there (comma-separate to allow several).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: ``# repro: allow[DET001]`` / ``# repro: allow[DET001,ENV001]``.
_ALLOW_COMMENT = re.compile(r"#\s*repro:\s*allow\[(?P<rules>[A-Z0-9_,\s]+)\]")


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class FileContext:
    """Everything a rule may need about the module under analysis."""

    def __init__(self, path: str, module: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.module = module
        self.source = source
        self.tree = tree
        self.allowed_lines: Dict[int, Set[str]] = _parse_suppressions(source)
        self._imports: Optional[Dict[str, str]] = None

    # -- suppressions ------------------------------------------------------------

    def is_allowed(self, rule_id: str, line: int) -> bool:
        allowed = self.allowed_lines.get(line)
        return allowed is not None and (rule_id in allowed or "*" in allowed)

    # -- import resolution -------------------------------------------------------

    @property
    def imports(self) -> Dict[str, str]:
        """Local name -> fully qualified module/object it was imported as."""
        if self._imports is None:
            self._imports = _collect_imports(self.tree, self.module)
        return self._imports

    def qualified(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain through this module's imports.

        ``random.Random`` -> ``"random.Random"``; with ``import numpy as
        np``, ``np.random.seed`` -> ``"numpy.random.seed"``; with ``from
        os import urandom``, ``urandom`` -> ``"os.urandom"``.  Returns
        ``None`` for expressions that are not a dotted-name chain.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        root = parts[0]
        resolved = self.imports.get(root)
        if resolved is not None:
            return ".".join([resolved] + parts[1:])
        return ".".join(parts)


class Rule:
    """Base class: subclasses set the metadata and implement :meth:`check`."""

    id: str = "RULE000"
    severity: str = SEVERITY_ERROR
    title: str = ""
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.path,
            line=line,
            col=col,
            message=message,
        )


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of rule ids allowed by an inline comment."""
    allowed: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_COMMENT.search(token.string)
            if match is None:
                continue
            rule_ids = {part.strip() for part in match.group("rules").split(",")}
            rule_ids.discard("")
            allowed.setdefault(token.start[0], set()).update(rule_ids)
    except tokenize.TokenError:
        pass
    return allowed


def _collect_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local binding -> fully qualified origin, relative imports resolved."""
    imports: Dict[str, str] = {}
    package_parts = module.split(".")[:-1] if module else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # ``from ..obs import runtime``: climb level-1 packages up.
                base_parts = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(base_parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


# -- file discovery and driving ------------------------------------------------------


def module_name_for(path: str, root: str) -> str:
    """Dotted module name of ``path`` relative to the scan root's parent."""
    rel = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    rel = rel.replace(os.sep, "/")
    if rel.endswith(".py"):
        rel = rel[: -len(".py")]
    parts = [part for part in rel.split("/") if part not in ("", ".")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    found: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.add(os.path.abspath(path))
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.add(os.path.abspath(os.path.join(dirpath, filename)))
    return sorted(found)


def analyze_source(
    source: str,
    rules: Sequence[Rule],
    path: str = "<memory>",
    module: str = "",
) -> List[Finding]:
    """Run rules over one source string (the test-fixture entry point)."""
    tree = ast.parse(source, filename=path)
    ctx = FileContext(path=path, module=module, source=source, tree=tree)
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(ctx):
            if not ctx.is_allowed(finding.rule, finding.line):
                findings.append(finding)
    return findings


def analyze_files(
    files: Iterable[str],
    rules: Sequence[Rule],
    root: str,
) -> Tuple[List[Finding], int]:
    """Analyze files, returning (findings sorted by location, files scanned).

    ``root`` anchors the stable relative paths used in finding keys; scan
    ``src/repro`` with ``root=src`` and keys read ``repro/net/runtime.py``
    no matter where the analyzer was invoked from.
    """
    findings: List[Finding] = []
    scanned = 0
    for filename in files:
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        rel = os.path.relpath(os.path.abspath(filename), os.path.abspath(root))
        rel = rel.replace(os.sep, "/")
        module = module_name_for(filename, root)
        findings.extend(
            analyze_source(source, rules, path=rel, module=module)
        )
        scanned += 1
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, scanned
