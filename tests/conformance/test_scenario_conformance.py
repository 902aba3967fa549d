"""Conformance via the scenario DSL: combined fault-plan + network-timing cells.

The existing conformance suites exercise the FaultPlan library and the
delay/omission timing separately; this one drives the
*combination* through :class:`repro.scenario.Scenario` — the gap the
campaign fuzzer sweeps at scale — and certifies the two single-sender
zoo members under it:

* **Bracha RBC** (n > 3t): tolerates a crashed non-sender on top of
  non-degenerate delays (and even an omission policy silencing the same
  party); when the *sender's* traffic is omitted from the start, the
  totality contract ends every trial in a clean graceful timeout with no
  honest split;
* **phase king** (n > 4t): fully clean under a silent corrupted party at
  the explicit degenerate timing (which must reproduce the default
  round), and degrades without ever splitting honest outputs under a
  kitchen-sink cell (drop rules + a recovering crash + delays + random
  omission).

Each cell also re-checks the DSL's runtime glue directly: scenarios are
materialized with the spec's own helpers (``build_protocol`` /
``adversary_spec`` / ``run_kwargs``), not hand-built objects.
"""

from __future__ import annotations

import random

import pytest

from repro.net.network import run_protocol
from repro.scenario import Scenario, run_scenario
from repro.scenario.runner import violation_kinds

#: The per-trial RNG mixing constant (matches repro.scenario.runner).
SEED_MIX = 1_000_003


def materialized_trials(scenario):
    """Run every trial through the DSL's own materialization helpers."""
    distribution = scenario.distribution_spec()
    adversary_spec = scenario.adversary_spec()
    plan = None if scenario.faults.is_empty() else scenario.faults
    executions = []
    for trial in range(scenario.trials):
        trial_rng = random.Random(scenario.seed * SEED_MIX + trial)
        inputs = distribution.sample(scenario.n, trial_rng)
        protocol = scenario.build_protocol()
        executions.append(
            (
                inputs,
                run_protocol(
                    protocol,
                    inputs,
                    adversary=adversary_spec.build(protocol),
                    seed=trial_rng.getrandbits(48),
                    fault_plan=plan,
                    fault_seed=trial_rng.getrandbits(48),
                    timeout_rounds=scenario.timeout(),
                    timeout_output=None,
                    **scenario.run_kwargs(),
                ),
            )
        )
    return executions


class TestBrachaCombined:
    def build(self, **overrides):
        base = dict(
            protocol="bracha",
            n=4,
            t=1,
            sender=1,
            seed=7,
            trials=4,
            delay_model="uniform:0.5,1.5",
        )
        base.update(overrides)
        return Scenario.build(**base)

    def test_crashed_non_sender_under_delays(self, conformance_log):
        scenario = self.build(faults={"crashes": [{"party": 3, "at_round": 2}]})
        row = run_scenario(scenario)
        ok = not violation_kinds(row) and not row["unexpected"]
        conformance_log(
            protocol="bracha",
            plan="scenario:crash+delay",
            check="delivers despite crashed non-sender on a delayed network",
            ok=ok,
        )
        assert ok, row["violations"]

    def test_totality_when_sender_omitted(self, conformance_log):
        scenario = self.build(omission="drop-all:1")
        row = run_scenario(scenario)
        # Delivery is impossible; every trial must end in a graceful
        # timeout, never a crash and never a split among honest parties.
        ok = violation_kinds(row) == {"timeout"} and not row["unexpected"]
        for _, execution in materialized_trials(scenario):
            assert execution.timed_out
            honest_outputs = {execution.outputs.get(p) for p in execution.honest}
            assert honest_outputs == {None}
        conformance_log(
            protocol="bracha",
            plan="scenario:sender-omitted+delay",
            check="totality: all honest time out together, none deliver",
            ok=ok,
        )
        assert ok, row["violations"]

    def test_crash_combined_with_omission(self, conformance_log):
        scenario = self.build(
            omission="drop-all:3",
            faults={"crashes": [{"party": 3, "at_round": 2}]},
        )
        row = run_scenario(scenario)
        ok = not violation_kinds(row) and not row["unexpected"]
        conformance_log(
            protocol="bracha",
            plan="scenario:crash+omission+delay",
            check="redundantly silenced non-sender cannot block delivery",
            ok=ok,
        )
        assert ok, row["violations"]

    def test_agreement_on_delivered_value(self):
        scenario = self.build(faults={"crashes": [{"party": 3, "at_round": 2}]})
        for inputs, execution in materialized_trials(scenario):
            values = {execution.outputs.get(p) for p in execution.honest}
            assert values == {inputs[scenario.sender - 1]}


class TestPhaseKingCombined:
    def build(self, **overrides):
        base = dict(
            protocol="phase-king",
            n=5,
            t=1,
            sender=2,
            seed=7,
            trials=4,
        )
        base.update(overrides)
        return Scenario.build(**base)

    def test_silent_party_on_degenerate_event_runtime(self, conformance_log):
        scenario = self.build(delay_model="rush:constant:1", adversary="silent:4")
        row = run_scenario(scenario)
        # Degenerate timing must reproduce lockstep exactly, so this is a
        # fully-expected cell: every guarantee holds, nothing degrades.
        ok = not violation_kinds(row) and row["expected"] == [
            "agreement",
            "termination",
            "validity",
        ]
        conformance_log(
            protocol="phase-king",
            plan="scenario:silent+degenerate-event",
            check="silent corrupted party, event runtime == lockstep",
            ok=ok,
        )
        assert ok, row

    def test_kitchen_sink_never_splits_honest_outputs(self, conformance_log):
        scenario = self.build(
            delay_model="uniform:0.5,1.5",
            omission="random:0.05",
            faults={
                "seed": 3,
                "rules": [{"kind": "drop", "probability": 0.25, "rounds": [1, 2]}],
                "crashes": [{"party": 5, "at_round": 3, "recover_at": 5}],
            },
        )
        row = run_scenario(scenario)
        kinds = violation_kinds(row)
        # Observe-only cell: degradation (lost validity) is legitimate,
        # but honest parties must never disagree and nothing may crash.
        ok = (
            not row["unexpected"]
            and "disagree" not in kinds
            and "crash" not in kinds
        )
        conformance_log(
            protocol="phase-king",
            plan="scenario:rules+crash+delay+omission",
            check="combined degradation without honest splits or crashes",
            ok=ok,
        )
        assert ok, row["violations"]


class TestScenarioRejectsIllFormedCells:
    def test_resilience_bound_enforced(self):
        from repro.errors import ScenarioError

        with pytest.raises(ScenarioError, match="n > 3t"):
            Scenario.build(protocol="bracha", n=4, t=2)
