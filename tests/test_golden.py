"""The regression surface: the committed golden artifacts in ``results/golden``.

``results/golden`` holds what ``python -m repro experiments --scale 0.15
--json results/golden`` writes: one artifact per registry experiment.  CI
diffs a full serial run against it with ``python -m repro diffjson``; here
the fast experiments are re-run and compared by the same rules (wall-clock
fields stripped, NaN equal to NaN), so counter drift fails plain pytest.
A ``--trace`` run with the flight recorder on writes the same artifact,
and it must match too.

A change that moves an artifact on purpose regenerates only the ids it
changes, with the command above followed by those ids.
"""

import json
import pathlib
import shutil

import pytest

from repro.__main__ import main
from repro.experiments import REGISTRY
from repro.experiments.diffjson import compare_dirs
from repro.obs import flightrec

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "results" / "golden"

#: The experiments fast enough for tier-1 at the golden scale.  E-C66 is
#: the one BGW experiment among them: it pins the int-level field
#: arithmetic (Shamir sharing, degree reduction) bit for bit.
FAST = ("E-C56", "E-RND", "E-COST", "E-ABL", "E-FAULT", "E-C66")


def test_one_passing_artifact_per_experiment():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(f"{e}.json" for e in REGISTRY)
    for experiment_id in REGISTRY:
        artifact = json.loads((GOLDEN / f"{experiment_id}.json").read_text(encoding="utf-8"))
        assert artifact["passed"], f"{experiment_id} is golden as MISMATCH"


def test_fast_experiments_match_their_golden_artifacts(tmp_path, monkeypatch, capsys):
    # Experiments always run the paper's timing; no environment variable
    # may move a single field.
    monkeypatch.setenv("REPRO_RUNTIME", "event")
    monkeypatch.setenv("REPRO_DELAY_MODEL", "uniform:0.5,1.5")
    monkeypatch.setenv("REPRO_OMISSION", "drop-all:1")
    golden, fresh = tmp_path / "golden", tmp_path / "fresh"
    golden.mkdir()
    for experiment_id in FAST:
        shutil.copy(GOLDEN / f"{experiment_id}.json", golden)
    argv = ["experiments", "--scale", "0.15", "--jobs", "1", "--json", str(fresh), *FAST]
    assert main(argv) == 0
    diffs = compare_dirs(str(golden), str(fresh))
    if diffs:
        pytest.fail("drift from results/golden:\n" + "\n".join(diffs))


def test_traced_export_writes_the_golden_artifact(tmp_path):
    # The tracer and flight recorder on and a pool of workers: tracing must
    # not move a single artifact field.
    fresh, golden = tmp_path / "fresh", tmp_path / "golden"
    golden.mkdir()
    shutil.copy(GOLDEN / "E-RND.json", golden)
    trace = tmp_path / "trace.json"
    argv = ["experiments", "E-RND", "--scale", "0.15", "--jobs", "2", "--json", str(fresh)]
    with flightrec.recording(dump_dir=str(tmp_path / "dumps")):
        assert main(["--trace", str(trace), *argv]) == 0
    assert trace.exists()
    diffs = compare_dirs(str(golden), str(fresh))
    if diffs:
        pytest.fail("traced run drifts from results/golden:\n" + "\n".join(diffs))
