"""Analysis reports.

The JSON report (``results/ANALYSIS.json``) is itself an artifact and so
obeys the discipline it polices: no timestamps, no environment detail —
two runs over the same tree produce byte-identical reports.  Every
finding gates; a designed exception is an allowlist entry or an inline
suppression (:mod:`repro.analysis.rules`).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from .engine import Finding
from .rules import rule_catalog

REPORT_VERSION = 2

#: Where the emitted report lives, relative to the invocation directory
#: (the repo root in CI).
DEFAULT_REPORT_PATH = os.path.join("results", "ANALYSIS.json")


@dataclass(slots=True)
class AnalysisReport:
    """The outcome of one analyzer run, ready to render or serialize."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Counter[str] = Counter(f.rule for f in self.findings)
        return dict(sorted(counts.items()))

    def to_json(self) -> Dict[str, object]:
        return {
            "version": REPORT_VERSION,
            "files_scanned": self.files_scanned,
            "rules": rule_catalog(),
            "summary": {
                "gating": len(self.findings),
                "by_rule": self.counts_by_rule(),
            },
            "findings": [f.to_json() for f in self.findings],
        }

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"{len(self.findings)} gating finding(s), "
            f"{self.files_scanned} file(s) scanned"
        )
        return "\n".join(lines)


def write_report(report: AnalysisReport, path: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_json(), handle, indent=2)
        handle.write("\n")
