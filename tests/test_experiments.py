"""Tests for the experiment harness: registry, config, CLI, cheap experiments.

Every experiment's output is pinned by its committed golden artifact
(``results/golden``, see ``tests/test_golden.py``); here we pin the harness
machinery and run the cheap experiments at tiny scale.
"""

import pytest

from repro.__main__ import main
from repro.errors import ExperimentError
from repro.experiments import (
    REGISTRY,
    TITLES,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)

EXPECTED_IDS = {
    "E-FIG1",
    "E-C56",
    "E-L52",
    "E-L54",
    "E-L61",
    "E-L62",
    "E-P63",
    "E-L64",
    "E-C66",
    "E-RND",
    "E-COST",
    "E-TRD",
    "E-ABL",
    "E-APB",
    "E-FAULT",
}


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(REGISTRY) == EXPECTED_IDS
        assert set(TITLES) == EXPECTED_IDS

    def test_titles_nonempty(self):
        assert all(TITLES[i] for i in TITLES)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("E-NOPE")


class TestConfig:
    def test_rng_deterministic_per_salt(self):
        config = ExperimentConfig(seed=1)
        assert config.rng(5).random() == config.rng(5).random()
        assert config.rng(5).random() != config.rng(6).random()

    def test_samples_scaling_and_floor(self):
        config = ExperimentConfig(scale=0.1)
        assert config.samples(1000) == 100
        assert config.samples(1000, floor=500) == 500


class TestResultRendering:
    def test_render_includes_status_and_notes(self):
        result = ExperimentResult(
            experiment_id="E-X",
            title="demo",
            table="t",
            passed=True,
            notes=["something"],
        )
        text = result.render()
        assert "[E-X]" in text and "PASS" in text and "note: something" in text

    def test_render_mismatch(self):
        result = ExperimentResult("E-X", "demo", "t", passed=False)
        assert "MISMATCH" in result.render()


class TestCheapExperiments:
    def test_claim56(self):
        result = run_experiment("E-C56", ExperimentConfig(scale=0.05))
        assert result.passed
        assert result.data["monotone"]

    def test_claim66(self):
        result = run_experiment("E-C66", ExperimentConfig(scale=0.05))
        assert result.passed
        assert result.data["all_zero"]

    def test_rounds(self):
        result = run_experiment("E-RND", ExperimentConfig(scale=0.05))
        assert result.passed
        assert result.data["rounds"]["gennaro"] == {4: 2, 6: 2, 8: 2}

    def test_ablation(self):
        result = run_experiment("E-ABL", ExperimentConfig(scale=0.05))
        assert result.passed


class TestCLI:
    def test_cli_runs_selected_experiment(self, capsys):
        code = main(["experiments", "E-C56", "--scale", "0.05"])
        captured = capsys.readouterr()
        assert code == 0
        assert "E-C56" in captured.out
        assert "PASS" in captured.out

    def test_cli_scale_and_seed_flags(self, capsys):
        code = main(["experiments", "E-RND", "--scale", "0.05", "--seed", "7"])
        assert code == 0

    def test_cli_list_prints_every_id_and_title(self, capsys):
        assert main(["experiments", "--list"]) == 0
        printed = dict(line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines())
        assert printed == TITLES

    def test_cli_unknown_experiment_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "E-NOPE"])
        assert excinfo.value.code == 2
        assert "E-NOPE" in capsys.readouterr().err
