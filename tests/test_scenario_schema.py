"""Schema validation + CLI bad-input behaviour for scenarios and fault plans.

Every user-supplied structured input — scenario files, ``--faults`` plans
— must fail with a field-by-field diagnosis naming the offending key,
never a stack trace from deep inside the injector or runtime.  These
tests pin the diagnosis text users actually see.
"""

import json

import pytest

from repro.__main__ import main
from repro.errors import ScenarioError
from repro.scenario import Scenario
from repro.scenario.schema import (
    fault_plan_errors,
    load_fault_plan,
    load_structured,
    scenario_errors,
    validate_scenario_dict,
)


def problems_of(data):
    return "\n".join(scenario_errors(data))


class TestScenarioSchema:
    def test_empty_mapping_is_the_default_scenario(self):
        assert scenario_errors({"protocol": "sequential"}) == []

    def test_non_mapping_rejected(self):
        assert scenario_errors(["not", "a", "dict"]) == [
            "scenario: expected a mapping, got list"
        ]

    def test_unknown_key_is_named(self):
        assert "scenario.protocl: unknown key" in problems_of(
            {"protocol": "sequential", "protocl": "typo"}
        )

    def test_unknown_protocol_lists_the_zoo(self):
        message = problems_of({"protocol": "quantum"})
        assert "scenario.protocol: expected one of" in message
        assert "'sequential'" in message and "'bracha'" in message

    def test_resilience_bound_names_the_protocol(self):
        assert "n > 3t" in problems_of({"protocol": "bracha", "n": 4, "t": 2})

    def test_threshold_and_range_checks(self):
        message = problems_of(
            {"protocol": "sequential", "n": 1, "t": -1, "trials": 0}
        )
        assert "scenario.n: must be >= 2" in message
        assert "scenario.t: must be >= 0" in message
        assert "scenario.trials: must be >= 1" in message

    def test_sender_rejected_for_parallel_broadcast(self):
        assert "no designated sender" in problems_of(
            {"protocol": "sequential", "sender": 2}
        )

    def test_runtime_is_an_unknown_key(self):
        # Timing is the delay_model/omission pair; no preset name rides along.
        message = problems_of({"protocol": "sequential", "runtime": "event"})
        assert "scenario.runtime: unknown key" in message

    def test_bad_delay_spec_is_diagnosed(self):
        message = problems_of({"protocol": "sequential", "delay_model": "warp:9"})
        assert "scenario.delay_model:" in message

    def test_adversary_out_of_threshold(self):
        message = problems_of(
            {"protocol": "sequential", "t": 1, "adversary": "silent:2,3"}
        )
        assert "scenario.adversary:" in message

    def test_crash_party_out_of_range(self):
        message = problems_of(
            {
                "protocol": "sequential",
                "n": 3,
                "t": 1,
                "faults": {"crashes": [{"party": 9}]},
            }
        )
        assert "scenario.faults.crashes[0].party: 9 out of range for n=3" in message

    def test_defaults_mirror_the_dataclass(self):
        # The schema's assumed defaults must equal the dataclass defaults:
        # a canonical to_dict() (which omits defaults) has to re-validate.
        scenario = Scenario.build(protocol="bracha", n=7, t=2)
        assert scenario_errors(json.loads(scenario.canonical())) == []

    def test_validate_scenario_dict_raises_with_all_problems(self):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario_dict({"protocol": "quantum", "n": 1})
        message = str(excinfo.value)
        assert "scenario.protocol" in message and "scenario.n" in message


class TestFaultPlanSchema:
    def test_clean_plan(self):
        assert fault_plan_errors({"rules": [{"kind": "drop"}]}) == []

    def test_bad_kind_lists_known_kinds(self):
        message = "\n".join(
            fault_plan_errors({"rules": [{"kind": "dropp"}]}, field="plan")
        )
        assert "plan.rules[0].kind: expected one of" in message
        assert "'drop'" in message

    def test_unknown_key_negative_seed_bad_probability(self):
        message = "\n".join(
            fault_plan_errors(
                {
                    "extra": True,
                    "seed": -1,
                    "rules": [{"kind": "drop", "probability": 2.0}],
                },
                field="plan",
            )
        )
        assert "plan.extra: unknown key" in message
        assert "plan.seed: must be >= 0" in message
        assert "plan.rules[0].probability: expected a number in [0, 1]" in message

    def test_crash_requires_party_and_ordered_recovery(self):
        message = "\n".join(
            fault_plan_errors(
                {"crashes": [{}, {"party": 1, "at_round": 3, "recover_at": 2}]},
            )
        )
        assert "faults.crashes[0].party: required" in message
        assert "faults.crashes[1].recover_at: must be after at_round" in message


class TestStructuredLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_structured(str(tmp_path / "nope.json"))

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="is not valid JSON"):
            load_structured(str(path))

    def test_yaml_file_is_not_valid_json(self, tmp_path, capsys):
        """Scenarios and plans are JSON only: a YAML file fails as invalid
        JSON with a clean exit (1 from validate, 2 elsewhere), never a
        traceback."""
        path = tmp_path / "plan.yaml"
        path.write_text("rules:\n- kind: drop\n  probability: 0.5\n")
        with pytest.raises(ScenarioError, match="is not valid JSON"):
            load_fault_plan(str(path))
        assert main(["campaign", "validate", str(path)]) == 1
        assert "is not valid JSON" in capsys.readouterr().out
        for argv in (
            ["campaign", "exec", str(path)],
            ["campaign", "shrink", str(path)],
            ["experiments", "E-FAULT", "--faults", str(path)],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "is not valid JSON" in capsys.readouterr().err

    def test_load_fault_plan_diagnoses_fields(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"rules": [{"kind": "dropp"}], "seed": -2}))
        with pytest.raises(ScenarioError) as excinfo:
            load_fault_plan(str(path))
        message = str(excinfo.value)
        assert "plan.rules[0].kind" in message and "plan.seed" in message


class TestExperimentsFaultsFlag:
    """--faults on the experiments CLI: schema errors become parser errors."""

    def test_malformed_plan_is_a_clean_cli_error(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"rules": [{"kind": "dropp"}]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "E-FAULT", "--faults", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--faults" in err
        assert "plan.rules[0].kind: expected one of" in err

    def test_unreadable_plan_is_a_clean_cli_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "E-FAULT", "--faults", str(tmp_path / "missing.json")])
        assert excinfo.value.code == 2
        assert "cannot read" in capsys.readouterr().err


class TestCampaignValidateSubcommand:
    def test_reports_problems_per_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"protocol": "bracha", "n": 4, "t": 2}))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"protocol": "sequential"}))
        code = main(["campaign", "validate", str(bad), str(good)])
        out = capsys.readouterr().out
        assert code == 1
        assert f"{bad}: INVALID" in out
        assert "n > 3t" in out
        assert f"{good}: ok" in out

    def test_exec_rejects_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"protocol": "quantum"}))
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "exec", str(path)])
        assert excinfo.value.code == 2
        assert "scenario.protocol" in capsys.readouterr().err

    def test_shrink_rejects_clean_scenario(self, tmp_path, capsys):
        path = tmp_path / "clean.json"
        path.write_text(json.dumps({"protocol": "sequential"}))
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "shrink", str(path)])
        assert excinfo.value.code == 2
        assert "no violation to shrink" in capsys.readouterr().err

    def test_run_rejects_bad_budget_and_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--budget", "0"])
        assert "argument --budget: must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["campaign", "--jobs", "0"])
        assert "argument --jobs: must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--batch", "0"])
        assert excinfo.value.code == 2
        assert "argument --batch: must be >= 1" in capsys.readouterr().err
