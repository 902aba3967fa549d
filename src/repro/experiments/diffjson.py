"""Compare two ``--json`` artifact directories, ignoring wall-clock fields.

The CI ``parallel-equivalence`` gate runs the experiment suite twice —
``--jobs 1`` and ``--jobs 4`` — and feeds both artifact directories to::

    python -m repro diffjson artifacts-serial artifacts-par

Every field of every result must match exactly except the wall-clock
measurements (``metrics.wall_seconds``), which are the only
non-deterministic values an experiment records.  Any other divergence —
a missing artifact, a different table, a drifted counter — is a
determinism regression in :mod:`repro.parallel` and fails the build.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List

#: Result fields that legitimately differ between runs (wall-clock only).
#: ``wall_ms_per_run`` is E-ABL's per-variant timing table — measured cost,
#: same class of value as ``wall_seconds``.
WALL_CLOCK_FIELDS = ("wall_seconds", "wall_ms_per_run")


def strip_wall_clock(result: Dict[str, Any]) -> Dict[str, Any]:
    """A deep copy of a result dict with wall-clock metrics removed."""
    stripped = json.loads(json.dumps(result))
    metrics = stripped.get("metrics")
    if isinstance(metrics, dict):
        for field in WALL_CLOCK_FIELDS:
            metrics.pop(field, None)
    return stripped


def _equal(a: Any, b: Any) -> bool:
    """Deep equality treating NaN as equal to itself.

    Inconclusive estimators record ``NaN`` gap estimates, which survive
    the JSON round-trip; under plain ``!=`` every NaN would read as a
    determinism divergence even between bit-identical artifacts.
    """
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[key], b[key]) for key in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b, strict=True))
    return a == b


def _describe_diff(path: str, a: Any, b: Any, diffs: List[str]) -> None:
    """Record the first point of divergence under ``path`` (recursively)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                diffs.append(f"{path}.{key}: only in second")
            elif key not in b:
                diffs.append(f"{path}.{key}: only in first")
            elif not _equal(a[key], b[key]):
                _describe_diff(f"{path}.{key}", a[key], b[key], diffs)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: list lengths {len(a)} != {len(b)}")
            return
        for index, (x, y) in enumerate(zip(a, b, strict=True)):
            if not _equal(x, y):
                _describe_diff(f"{path}[{index}]", x, y, diffs)
        return
    diffs.append(f"{path}: {a!r} != {b!r}")


def compare_dirs(serial_dir: str, parallel_dir: str) -> List[str]:
    """All divergences between two artifact directories (empty = identical)."""
    diffs: List[str] = []
    serial_files = sorted(f for f in os.listdir(serial_dir) if f.endswith(".json"))
    parallel_files = sorted(f for f in os.listdir(parallel_dir) if f.endswith(".json"))
    if serial_files != parallel_files:
        only_serial = set(serial_files) - set(parallel_files)
        only_parallel = set(parallel_files) - set(serial_files)
        if only_serial:
            diffs.append(f"artifacts only in {serial_dir}: {sorted(only_serial)}")
        if only_parallel:
            diffs.append(f"artifacts only in {parallel_dir}: {sorted(only_parallel)}")
    for name in sorted(set(serial_files) & set(parallel_files)):
        with open(os.path.join(serial_dir, name), encoding="utf-8") as handle:
            first = strip_wall_clock(json.load(handle))
        with open(os.path.join(parallel_dir, name), encoding="utf-8") as handle:
            second = strip_wall_clock(json.load(handle))
        if not _equal(first, second):
            _describe_diff(name, first, second, diffs)
    return diffs

