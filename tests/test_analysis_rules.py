"""Tests for the determinism & protocol-discipline static analyzer.

One bad + one good fixture per rule, the suppression and baseline
round-trips, the JSON report schema, and the meta-test that the live
tree itself is clean modulo the checked-in baseline.
"""

import json
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

from repro.analysis.cli import main as analyze_main
from repro.analysis.engine import Finding, analyze_source, module_name_for
from repro.analysis.report import (
    apply_baseline,
    build_report,
    load_baseline,
    write_baseline,
)
from repro.analysis.rules import (
    ALL_RULES,
    RULES_BY_ID,
    resolve_rules,
    rule_catalog,
)


def run_rule(rule_id, source, module=""):
    return analyze_source(
        textwrap.dedent(source), resolve_rules([rule_id]), module=module
    )


def rule_ids(findings):
    return [f.rule for f in findings]


# -- per-rule fixtures: one bad, one good --------------------------------------------


class TestDET001UnseededRandomness:
    def test_bad_ambient_module_function(self):
        findings = run_rule(
            "DET001",
            """
            import random

            def draw():
                return random.random()
            """,
        )
        assert rule_ids(findings) == ["DET001"]

    def test_bad_os_entropy(self):
        findings = run_rule(
            "DET001",
            """
            import os

            token = os.urandom(16)
            """,
        )
        assert rule_ids(findings) == ["DET001"]

    def test_bad_unseeded_random_instance(self):
        findings = run_rule(
            "DET001",
            """
            import random

            rng = random.Random()
            """,
        )
        assert rule_ids(findings) == ["DET001"]

    def test_good_seeded_stream(self):
        findings = run_rule(
            "DET001",
            """
            import random

            def draw(seed):
                rng = random.Random(seed)
                return rng.random()
            """,
        )
        assert findings == []


class TestDET002WallClock:
    def test_bad_perf_counter(self):
        findings = run_rule(
            "DET002",
            """
            import time

            start = time.perf_counter()
            """,
            module="repro.experiments.newthing",
        )
        assert rule_ids(findings) == ["DET002"]

    def test_good_allowlisted_module(self):
        findings = run_rule(
            "DET002",
            """
            import time

            start = time.perf_counter()
            """,
            module="repro.obs.tracer",
        )
        assert findings == []


class TestDET003UnorderedIteration:
    def test_bad_for_over_set_literal(self):
        findings = run_rule(
            "DET003",
            """
            def emit(send):
                for party in {3, 1, 2}:
                    send(party)
            """,
        )
        assert rule_ids(findings) == ["DET003"]

    def test_bad_comprehension_over_set_typed_name(self):
        findings = run_rule(
            "DET003",
            """
            corrupted = set([3, 1])
            payload = [i * 2 for i in corrupted]
            """,
        )
        assert "DET003" in rule_ids(findings)

    def test_good_sorted_iteration(self):
        findings = run_rule(
            "DET003",
            """
            corrupted = set([3, 1])
            payload = [i * 2 for i in sorted(corrupted)]
            """,
        )
        assert findings == []


class TestDET004TelemetryIntoMetrics:
    def test_bad_stats_into_counter(self):
        findings = run_rule(
            "DET004",
            """
            from repro.fastpath import STATS

            def record(metrics):
                metrics.inc("crypto.pow", STATS.snapshot()["pow_calls"])
            """,
            module="repro.somewhere",
        )
        assert rule_ids(findings) == ["DET004"]

    def test_good_plain_counter(self):
        findings = run_rule(
            "DET004",
            """
            def record(metrics, n):
                metrics.inc("crypto.pow", n)
            """,
        )
        assert findings == []


class TestDET005BuiltinHash:
    def test_bad_hash_for_seed(self):
        findings = run_rule(
            "DET005",
            """
            def salt(name):
                return hash(name) & 0xFFFF
            """,
        )
        assert rule_ids(findings) == ["DET005"]

    def test_good_dunder_hash_idiom(self):
        findings = run_rule(
            "DET005",
            """
            class Element:
                def __hash__(self):
                    return hash((self.value, self.modulus))
            """,
        )
        assert findings == []


class TestART001FloatIntoCounter:
    def test_bad_float_division(self):
        findings = run_rule(
            "ART001",
            """
            def record(metrics, total, n):
                metrics.inc("avg.cost", total / n)
            """,
        )
        assert rule_ids(findings) == ["ART001"]

    def test_good_integral_increment(self):
        findings = run_rule(
            "ART001",
            """
            def record(metrics, n):
                metrics.inc("messages", n)
            """,
        )
        assert findings == []


class TestMSG001MessageSlots:
    def test_bad_message_without_slots(self):
        findings = run_rule(
            "MSG001",
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class WireMessage:
                sender: int
            """,
        )
        assert rule_ids(findings) == ["MSG001"]
        assert findings[0].severity == "warning"

    def test_good_message_with_slots(self):
        findings = run_rule(
            "MSG001",
            """
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class WireMessage:
                sender: int
            """,
        )
        assert findings == []


class TestPROTO001RunHonorsTimeout:
    def test_bad_run_override_drops_timeout(self):
        findings = run_rule(
            "PROTO001",
            """
            class WrappedBroadcast:
                def setup(self, rng):
                    return None

                def program(self, ctx, value):
                    yield []

                def run(self, inputs, seed=None):
                    return execute(self, inputs, seed)
            """,
        )
        assert rule_ids(findings) == ["PROTO001"]

    def test_good_run_forwards_timeout(self):
        findings = run_rule(
            "PROTO001",
            """
            class WrappedBroadcast:
                def setup(self, rng):
                    return None

                def program(self, ctx, value):
                    yield []

                def run(self, inputs, seed=None, timeout_rounds=None):
                    return execute(self, inputs, seed, timeout_rounds)
            """,
        )
        assert findings == []


class TestENV001EnvOutsideSeam:
    def test_bad_repro_env_read(self):
        findings = run_rule(
            "ENV001",
            """
            import os

            JOBS = os.environ.get("REPRO_JOBS", "1")
            """,
            module="repro.somewhere",
        )
        assert rule_ids(findings) == ["ENV001"]

    def test_bad_subscript_read(self):
        findings = run_rule(
            "ENV001",
            """
            import os

            runtime = os.environ["REPRO_RUNTIME"]
            """,
            module="repro.somewhere",
        )
        assert rule_ids(findings) == ["ENV001"]

    def test_good_inside_seam_module(self):
        findings = run_rule(
            "ENV001",
            """
            import os

            runtime = os.environ.get("REPRO_RUNTIME")
            """,
            module="repro.net.runtime",
        )
        assert findings == []

    def test_good_non_repro_key(self):
        findings = run_rule(
            "ENV001",
            """
            import os

            home = os.environ.get("HOME", "")
            """,
            module="repro.somewhere",
        )
        assert findings == []


class TestOBS001MetricNames:
    def test_bad_uppercase_name(self):
        findings = run_rule(
            "OBS001",
            """
            def record(metrics):
                metrics.inc("Crypto.PowCalls")
            """,
        )
        assert rule_ids(findings) == ["OBS001"]

    def test_bad_fstring_fragment(self):
        findings = run_rule(
            "OBS001",
            """
            def record(metrics, kind):
                metrics.inc(f"faults/{kind}")
            """,
        )
        assert rule_ids(findings) == ["OBS001"]

    def test_good_dotted_name(self):
        findings = run_rule(
            "OBS001",
            """
            def record(metrics, tracer):
                metrics.inc("net.rounds")
                with tracer.span("scheduler.round"):
                    pass
            """,
        )
        assert findings == []


class TestSCN001ScenarioBypassesSchema:
    def test_bad_direct_construction(self):
        findings = run_rule(
            "SCN001",
            """
            from repro.scenario import Scenario

            def make():
                return Scenario(protocol="bracha", n=4, t=1)
            """,
            module="repro.experiments.zoo",
        )
        assert rule_ids(findings) == ["SCN001"]

    def test_bad_aliased_spec_import(self):
        findings = run_rule(
            "SCN001",
            """
            from repro.scenario.spec import Scenario as Spec

            def make():
                return Spec(protocol="sequential")
            """,
            module="repro.faults.helpers",
        )
        assert rule_ids(findings) == ["SCN001"]

    def test_good_validated_entry_points(self):
        findings = run_rule(
            "SCN001",
            """
            from repro.scenario import Scenario

            def make(data, path):
                a = Scenario.from_dict(data)
                b = Scenario.build(protocol="bracha", n=4, t=1)
                c = Scenario.load(path)
                return a, b, c
            """,
            module="repro.experiments.zoo",
        )
        assert findings == []

    def test_good_inside_scenario_package(self):
        findings = run_rule(
            "SCN001",
            """
            from repro.scenario.spec import Scenario

            def generate():
                return Scenario(protocol="sequential")
            """,
            module="repro.scenario.fuzz",
        )
        assert findings == []


class TestCRY001ModularPowOutsideCrypto:
    def test_bad_three_arg_pow_in_protocol_code(self):
        findings = run_rule(
            "CRY001",
            """
            def check_commitment(c, g, m, p):
                return c == pow(g, m, p)
            """,
            module="repro.protocols.gennaro",
        )
        assert rule_ids(findings) == ["CRY001"]

    def test_good_two_arg_pow_is_not_modular(self):
        findings = run_rule(
            "CRY001",
            """
            def square(x):
                return pow(x, 2)
            """,
            module="repro.distributions.base",
        )
        assert findings == []

    def test_good_inside_the_seam(self):
        findings = run_rule(
            "CRY001",
            """
            def kernel(b, e, m):
                return pow(b, e, m)
            """,
            module="repro.fastpath.kernels",
        )
        assert findings == []
        findings = run_rule(
            "CRY001",
            """
            def kernel(b, e, m):
                return pow(b, e, m)
            """,
            module="repro.crypto.backend",
        )
        assert findings == []

    def test_allow_comment_suppresses(self):
        findings = run_rule(
            "CRY001",
            """
            def crt_step(a, n, m):
                return pow(a, n, m)  # repro: allow[CRY001] non-group CRT arithmetic
            """,
            module="repro.analysis.helpers",
        )
        assert findings == []


# -- suppressions --------------------------------------------------------------------


class TestSuppressions:
    def test_inline_allow_silences_the_named_rule(self):
        findings = run_rule(
            "DET001",
            """
            import os

            token = os.urandom(16)  # repro: allow[DET001]
            """,
        )
        assert findings == []

    def test_allow_is_rule_specific(self):
        findings = run_rule(
            "DET001",
            """
            import os

            token = os.urandom(16)  # repro: allow[ENV001]
            """,
        )
        assert rule_ids(findings) == ["DET001"]

    def test_allow_several_rules_comma_separated(self):
        findings = analyze_source(
            textwrap.dedent(
                """
                import os

                token = os.urandom(16)  # repro: allow[DET001, ENV001]
                """
            ),
            resolve_rules(["DET001", "ENV001"]),
        )
        assert findings == []


# -- baseline round-trip -------------------------------------------------------------


def _finding(path="repro/x.py", rule="DET001", message="m", line=1):
    return Finding(
        rule=rule, severity="error", path=path, line=line, col=0, message=message
    )


class TestBaseline:
    def test_write_then_load_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        write_baseline([_finding(), _finding(line=9)], path)
        baseline = load_baseline(path)
        assert baseline == Counter({_finding().key(): 2})

    def test_baseline_is_line_insensitive(self):
        baseline = Counter({_finding().key(): 1})
        gating, baselined, stale = apply_baseline([_finding(line=42)], baseline)
        assert gating == [] and len(baselined) == 1 and stale == []

    def test_multiplicity_budget_gates_the_extra_instance(self):
        baseline = Counter({_finding().key(): 1})
        findings = [_finding(line=1), _finding(line=2)]
        gating, baselined, stale = apply_baseline(findings, baseline)
        assert len(gating) == 1 and len(baselined) == 1 and stale == []

    def test_stale_entries_are_reported(self):
        baseline = Counter({_finding().key(): 1, "other::DET002::gone": 1})
        gating, baselined, stale = apply_baseline([_finding()], baseline)
        assert gating == [] and stale == ["other::DET002::gone"]

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == Counter()

    def test_stale_baseline_fails_the_gate(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps({"version": 1, "entries": {"never/existed.py::DET001::x": 1}})
        )
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        code = analyze_main(
            [str(clean), "--baseline", str(baseline_path), "--out", "-"]
        )
        assert code == 1
        assert "stale" in capsys.readouterr().out


# -- report schema -------------------------------------------------------------------


class TestReportSchema:
    def test_json_shape(self):
        report = build_report([_finding()], files_scanned=3)
        payload = report.to_json()
        assert payload["version"] == 1
        assert payload["files_scanned"] == 3
        assert payload["summary"]["gating"] == 1
        assert payload["summary"]["baselined"] == 0
        assert payload["summary"]["by_rule"] == {"DET001": 1}
        assert payload["summary"]["stale_baseline_keys"] == []
        entry = payload["findings"][0]
        assert set(entry) == {
            "rule", "severity", "path", "line", "col", "message", "key",
        }
        assert entry["key"] == "repro/x.py::DET001::m"
        rules = {r["id"] for r in payload["rules"]}
        assert rules == set(RULES_BY_ID)

    def test_report_is_deterministic(self):
        first = build_report([_finding()], files_scanned=3).to_json()
        second = build_report([_finding()], files_scanned=3).to_json()
        assert json.dumps(first) == json.dumps(second)

    def test_catalog_covers_all_rules(self):
        catalog = rule_catalog()
        assert [entry["id"] for entry in catalog] == [r.id for r in ALL_RULES]
        for entry in catalog:
            assert entry["title"] and entry["rationale"]
            assert entry["severity"] in ("error", "warning")


class TestCli:
    def test_list_rules_exits_zero(self, capsys):
        assert analyze_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_unknown_rule_id_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            analyze_main(["--rules", "NOPE999", "--out", "-"])
        assert excinfo.value.code == 2

    def test_dirty_file_gates_and_writes_report(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import os\ntoken = os.urandom(8)\n")
        out = tmp_path / "report.json"
        code = analyze_main(
            [str(dirty), "--no-baseline", "--out", str(out), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["summary"]["gating"] == 1
        assert payload["findings"][0]["rule"] == "DET001"
        capsys.readouterr()

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import os\ntoken = os.urandom(8)\n")
        baseline = tmp_path / "baseline.json"
        assert (
            analyze_main(
                [str(dirty), "--baseline", str(baseline), "--update-baseline"]
            )
            == 0
        )
        code = analyze_main(
            [str(dirty), "--baseline", str(baseline), "--out", "-"]
        )
        assert code == 0
        capsys.readouterr()


# -- the live tree -------------------------------------------------------------------


class TestLiveTree:
    def test_module_name_resolution(self):
        assert (
            module_name_for("src/repro/net/runtime.py", "src")
            == "repro.net.runtime"
        )
        assert module_name_for("src/repro/obs/__init__.py", "src") == "repro.obs"

    def test_repo_tree_is_clean_modulo_baseline(self):
        """Meta-test: the analyzer passes over the installed package."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", "--out", "-"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 gating finding(s)" in proc.stdout
