"""Scenario runner + campaign integration: detection, shrinking, determinism.

The paper's Section 3.2 attack — a rushing copier echoing the target's
commitment through naive commit-reveal — is the standing known violation
here: it must be *detected* (the cross-trial ``copy`` kind), *classified*
(cell dirty, but breaching no expected guarantee, since independence is
never promised by naive CR), and *shrunk* to the same minimal scenario on
every run.  Campaign runs must be bit-identical between ``--jobs 1`` and
``--jobs N`` and across interrupt/resume, artifact for artifact.
"""

import json
import os

import pytest

from repro.errors import ScenarioError
from repro.obs.flightrec import read_dump
from repro.scenario import (
    Campaign,
    Scenario,
    expected_guarantees,
    run_scenario,
    shrink_violation,
)
from repro.scenario.campaign import DIRTY_ADVERSARIES
from repro.scenario.runner import MIN_COPY_TRIALS, cell_key, violation_kinds


def commit_echo_scenario(**overrides):
    """The paper's Section 3.2 commit-echo attack as a scenario."""
    base = dict(
        protocol="naive-commit-reveal",
        n=5,
        t=2,
        adversary="commit-echo:5,1",
        trials=4,
        seed=11,
    )
    base.update(overrides)
    return Scenario.build(**base)


class TestExpectedGuarantees:
    def test_mailbox_protocols_promise_through_wire_faults(self):
        scenario = Scenario.build(
            protocol="ideal-sb",
            faults={"rules": [{"kind": "drop", "probability": 1.0}]},
        )
        assert expected_guarantees(scenario) == {
            "agreement",
            "termination",
            "validity",
        }

    def test_wire_faults_void_promises_for_real_protocols(self):
        scenario = Scenario.build(
            protocol="naive-commit-reveal",
            faults={"rules": [{"kind": "drop", "probability": 0.1}]},
        )
        assert expected_guarantees(scenario) == frozenset()

    def test_degenerate_event_timing_keeps_promises(self):
        clean = Scenario.build(
            protocol="bracha", n=4, t=1, delay_model="constant:1"
        )
        assert expected_guarantees(clean) == {
            "agreement",
            "termination",
            "validity",
        }

    def test_omission_and_real_delays_are_observe_only(self):
        lossy = Scenario.build(
            protocol="bracha", n=4, t=1, omission="drop-all:2"
        )
        delayed = Scenario.build(
            protocol="bracha",
            n=4,
            t=1,
            delay_model="uniform:0.5,1.5",
        )
        assert expected_guarantees(lossy) == frozenset()
        assert expected_guarantees(delayed) == frozenset()

    def test_corrupt_sender_voids_rbc_liveness_and_validity(self):
        bracha = Scenario.build(
            protocol="bracha", n=4, t=1, sender=1, adversary="silent:1"
        )
        assert expected_guarantees(bracha) == {"agreement"}
        # Phase king's fixed round structure terminates regardless.
        king = Scenario.build(
            protocol="phase-king", n=5, t=1, sender=2, adversary="silent:2"
        )
        assert expected_guarantees(king) == {"agreement", "termination"}


class TestRunScenario:
    def test_clean_scenario_is_clean_and_deterministic(self):
        scenario = Scenario.build(protocol="sequential", trials=3, seed=5)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first["verdict"] == "clean"
        assert first["unexpected"] == []
        assert first == second

    def test_commit_echo_fires_the_copy_violation(self):
        row = run_scenario(commit_echo_scenario())
        assert violation_kinds(row) == {"copy"}
        # Independence is never *promised* for naive CR, so the cell is
        # dirty (a positive control) but not an unexpected breach.
        assert row["unexpected"] == []
        assert row["cell"].split("|")[1] in DIRTY_ADVERSARIES

    def test_copy_detector_needs_minimum_trials(self):
        row = run_scenario(commit_echo_scenario(trials=MIN_COPY_TRIALS - 1))
        assert "copy" not in violation_kinds(row)

    def test_cell_key_axes(self):
        scenario = Scenario.build(
            protocol="bracha",
            n=4,
            t=1,
            omission="random:0.1",
            faults={"crashes": [{"party": 2, "at_round": 1}]},
        )
        assert cell_key(scenario) == "bracha|none|crashes|event-lossy"


class TestShrinkKnownViolation:
    """The acceptance bar: naive-CR × commit-echo shrinks deterministically."""

    EXPECTED_MINIMAL = {
        "adversary": "commit-echo:5,1",
        "protocol": "naive-commit-reveal",
        "t": 1,
        "trials": 3,
    }

    def test_shrinks_to_the_known_minimal(self):
        minimal, row, steps = shrink_violation(commit_echo_scenario())
        assert json.loads(minimal.canonical()) == self.EXPECTED_MINIMAL
        assert violation_kinds(row) == {"copy"}
        assert steps > 0

    def test_shrink_is_reproducible_and_idempotent(self):
        scenario = commit_echo_scenario()
        first, _, first_steps = shrink_violation(scenario)
        second, _, second_steps = shrink_violation(scenario)
        assert first.canonical() == second.canonical()
        assert first_steps == second_steps
        again, _, again_steps = shrink_violation(first)
        assert again_steps == 0
        assert again.canonical() == first.canonical()

    def test_shrinking_a_clean_scenario_is_an_error(self):
        clean = Scenario.build(protocol="sequential")
        with pytest.raises(ScenarioError, match="no violation"):
            shrink_violation(clean)


SEED = 99
BUDGET = 16
BATCH = 5


def run_campaign(tmp_path, tag, jobs=1, budget=BUDGET, shrink_limit=0, resume=True):
    out_dir = str(tmp_path / tag)
    campaign = Campaign(
        seed=SEED,
        budget=budget,
        jobs=jobs,
        out_dir=out_dir,
        report_path=os.path.join(out_dir, "CAMPAIGN.json"),
        batch=BATCH,
        shrink_limit=shrink_limit,
    )
    report = campaign.run(resume=resume)
    return campaign, report


def artifact_bytes(out_dir):
    """Every JSON artifact in a campaign directory, by name."""
    return {
        name: open(os.path.join(out_dir, name), "rb").read()
        for name in sorted(os.listdir(out_dir))
        if name.endswith(".json") or name.endswith(".jsonl")
    }


class TestCampaign:
    def test_serial_and_parallel_are_bit_identical(self, tmp_path):
        serial, _ = run_campaign(tmp_path, "serial", jobs=1)
        parallel, _ = run_campaign(tmp_path, "parallel", jobs=2)
        assert artifact_bytes(serial.out_dir) == artifact_bytes(parallel.out_dir)

    def test_resume_matches_an_uninterrupted_run(self, tmp_path):
        # An "interrupted" campaign: half the budget, then the full one
        # picks the checkpoint up; artifacts must match a fresh full run.
        interrupted, _ = run_campaign(tmp_path, "resumed", budget=BUDGET // 2)
        resumed, _ = run_campaign(tmp_path, "resumed")
        assert resumed.out_dir == interrupted.out_dir
        fresh, _ = run_campaign(tmp_path, "fresh")
        assert artifact_bytes(resumed.out_dir) == artifact_bytes(fresh.out_dir)

    def test_resume_skips_completed_indices(self, tmp_path):
        campaign, _ = run_campaign(tmp_path, "skip", budget=6)
        before = open(campaign.checkpoint_path, encoding="utf-8").read()
        campaign.run(resume=True)  # nothing pending: no new checkpoint rows
        after = open(campaign.checkpoint_path, encoding="utf-8").read()
        assert after == before

    def test_checkpoint_tolerates_a_truncated_line(self, tmp_path):
        campaign, _ = run_campaign(tmp_path, "trunc", budget=6)
        with open(campaign.checkpoint_path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 99, "truncated')  # crash mid-append
        rows = campaign.load_checkpoint()
        assert sorted(rows) == list(range(6))

    def test_report_shape_and_expected_clean_cells(self, tmp_path):
        campaign, report = run_campaign(tmp_path, "report")
        assert report["schema"] == "campaign/v1"
        assert report["campaign"] == {
            "seed": SEED,
            "budget": BUDGET,
            "completed": BUDGET,
        }
        assert report["totals"]["scenarios"] == BUDGET
        # The campaign's failure signal: no cell may breach a guarantee
        # the conservative model promised.
        assert report["totals"]["unexpected"] == 0
        on_disk = json.load(open(os.path.join(campaign.out_dir, "CAMPAIGN.json")))
        assert on_disk == report

    def test_shrink_limit_produces_minimal_repro_artifacts(self, tmp_path):
        campaign, report = run_campaign(
            tmp_path, "shrunk", budget=6, shrink_limit=1
        )
        violators = [entry["id"] for entry in report["violating"]]
        if not violators:
            pytest.skip("no violator in this budget window")
        assert len(report["shrunk"]) == 1
        entry = report["shrunk"][0]
        assert entry["id"] == violators[0]
        names = set(os.listdir(campaign.out_dir))
        assert f"{entry['id']}.json" in names
        assert f"{entry['id']}.outcome.json" in names
        assert f"{entry['id']}.min.json" in names
        assert f"{entry['id']}.min.outcome.json" in names
        assert f"{entry['id']}.trace.jsonl" in names
        minimal = Scenario.load(os.path.join(campaign.out_dir, f"{entry['id']}.min.json"))
        assert violation_kinds(run_scenario(minimal))

    def test_a_timed_out_minimal_repro_leaves_only_its_trace(self, tmp_path):
        """Re-run for its trace, the campaign's Bracha repro (n = 2, party 1
        crashed at round 1) hits its timeout, which dumps the ring on its
        own; the trace holds that ``scheduler.timeout`` record too, so it
        stays the repro's one file."""
        minimal = Scenario.from_dict(
            {
                "protocol": "bracha",
                "n": 2,
                "t": 0,
                "trials": 1,
                "faults": {"crashes": [{"at_round": 1, "party": 1}], "seed": 27698},
            }
        )
        out_dir = str(tmp_path / "corpus")
        campaign = Campaign(
            seed=SEED,
            budget=0,
            out_dir=out_dir,
            report_path=os.path.join(out_dir, "CAMPAIGN.json"),
        )
        campaign._record_trace("2be560ae8398", minimal)
        assert os.listdir(out_dir) == ["2be560ae8398.trace.jsonl"]
        trace = read_dump(os.path.join(out_dir, "2be560ae8398.trace.jsonl"))
        assert "scheduler.timeout" in [record["kind"] for record in trace]
