"""Edge-case tests for the artifact differ (repro.experiments.diffjson)."""

import json
import math
import os

from repro.__main__ import main
from repro.experiments.diffjson import _equal, compare_dirs, strip_wall_clock


def write_artifact(directory, name, payload):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


RESULT = {
    "experiment_id": "E-X",
    "passed": True,
    "data": {"gap": 0.25, "rows": [[1, 2], [3, 4]]},
    "metrics": {"wall_seconds": 1.23, "counters": {"net.rounds": 7}},
}


class TestEqual:
    def test_nan_equals_nan(self):
        assert _equal(float("nan"), float("nan"))
        assert _equal({"gap": float("nan")}, {"gap": float("nan")})
        assert _equal([float("nan"), 1.0], [float("nan"), 1.0])

    def test_nan_not_equal_to_number(self):
        assert not _equal(float("nan"), 0.0)
        assert not _equal(0.0, float("nan"))

    def test_plain_values(self):
        assert _equal(1, 1.0)
        assert not _equal({"a": 1}, {"a": 2})
        assert not _equal({"a": 1}, {"b": 1})
        assert not _equal([1], [1, 2])


class TestCompareDirs:
    def test_identical_dirs(self, tmp_path):
        for d in ("a", "b"):
            write_artifact(tmp_path / d, "E-X.json", RESULT)
        assert compare_dirs(str(tmp_path / "a"), str(tmp_path / "b")) == []

    def test_wall_clock_ignored(self, tmp_path):
        write_artifact(tmp_path / "a", "E-X.json", RESULT)
        fast = json.loads(json.dumps(RESULT))
        fast["metrics"]["wall_seconds"] = 0.01
        write_artifact(tmp_path / "b", "E-X.json", fast)
        assert compare_dirs(str(tmp_path / "a"), str(tmp_path / "b")) == []

    def test_nan_gap_estimates_do_not_diverge(self, tmp_path):
        # An inconclusive estimator records gap = NaN; json.dump writes the
        # (non-standard but round-tripping) NaN literal.  Two identical
        # artifacts with NaN gaps must compare clean.
        nan_result = json.loads(json.dumps(RESULT))
        nan_result["data"]["gap"] = float("nan")
        for d in ("a", "b"):
            write_artifact(tmp_path / d, "E-X.json", nan_result)
        assert compare_dirs(str(tmp_path / "a"), str(tmp_path / "b")) == []

    def test_missing_artifact_reported(self, tmp_path):
        write_artifact(tmp_path / "a", "E-X.json", RESULT)
        write_artifact(tmp_path / "a", "E-Y.json", RESULT)
        write_artifact(tmp_path / "b", "E-X.json", RESULT)
        diffs = compare_dirs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert len(diffs) == 1 and "E-Y.json" in diffs[0]

    def test_missing_key_reported_with_path(self, tmp_path):
        write_artifact(tmp_path / "a", "E-X.json", RESULT)
        short = json.loads(json.dumps(RESULT))
        del short["data"]["gap"]
        write_artifact(tmp_path / "b", "E-X.json", short)
        diffs = compare_dirs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert diffs == ["E-X.json.data.gap: only in first"]

    def test_nested_list_divergence_pinpointed(self, tmp_path):
        write_artifact(tmp_path / "a", "E-X.json", RESULT)
        mutated = json.loads(json.dumps(RESULT))
        mutated["data"]["rows"][1][0] = 99
        write_artifact(tmp_path / "b", "E-X.json", mutated)
        diffs = compare_dirs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert diffs == ["E-X.json.data.rows[1][0]: 3 != 99"]

    def test_empty_dirs_compare_clean(self, tmp_path):
        os.makedirs(tmp_path / "a")
        os.makedirs(tmp_path / "b")
        assert compare_dirs(str(tmp_path / "a"), str(tmp_path / "b")) == []

    def test_non_json_files_ignored(self, tmp_path):
        write_artifact(tmp_path / "a", "E-X.json", RESULT)
        write_artifact(tmp_path / "b", "E-X.json", RESULT)
        (tmp_path / "a" / "notes.txt").write_text("scratch")
        assert compare_dirs(str(tmp_path / "a"), str(tmp_path / "b")) == []


class TestStripWallClock:
    def test_strips_only_wall_clock(self):
        stripped = strip_wall_clock(RESULT)
        assert "wall_seconds" not in stripped["metrics"]
        assert stripped["metrics"]["counters"] == {"net.rounds": 7}
        assert RESULT["metrics"]["wall_seconds"] == 1.23  # original untouched

    def test_tolerates_missing_metrics(self):
        assert strip_wall_clock({"data": {}}) == {"data": {}}
        assert strip_wall_clock({"metrics": None}) == {"metrics": None}


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        write_artifact(tmp_path / "a", "E-X.json", RESULT)
        write_artifact(tmp_path / "b", "E-X.json", RESULT)
        assert main(["diffjson", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        mutated = json.loads(json.dumps(RESULT))
        mutated["passed"] = False
        write_artifact(tmp_path / "b", "E-X.json", mutated)
        assert main(["diffjson", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out


def test_nan_literal_round_trips():
    # Guard the assumption the NaN tests rest on: Python's json module
    # writes NaN and reads it back as float('nan') by default.
    assert math.isnan(json.loads(json.dumps(float("nan"))))
