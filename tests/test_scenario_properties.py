"""Property-based tests for the scenario DSL and shrinker (hypothesis).

Quantified over the campaign fuzzer's own output — every scenario a
campaign can generate is, by construction, a fair sample of the DSL:

* **round-trip identity** — ``to_dict``/``from_dict`` and the JSON
  serialization are lossless, and the canonical form / ``scenario_id``
  are stable across round trips;
* **validity by construction** — everything the fuzzer generates passes
  the schema with zero recorded problems;
* **shrinker fixpoint** — shrinking is idempotent (the minimal scenario
  shrinks to itself), deterministic (same input, same minimal), and
  predicate-preserving (the minimal still satisfies the predicate it was
  shrunk under).  Predicates here are cheap structural ones, so the
  properties run hundreds of cases without executing any protocol; the
  end-to-end "shrink a real violation" path is covered by
  ``tests/test_scenario_runner.py``.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import Scenario, generate_scenario, scenario_errors
from repro.scenario.shrink import shrink_scenario

seeds = st.integers(min_value=0, max_value=2**32 - 1)
indices = st.integers(min_value=0, max_value=9999)

scenarios = st.builds(generate_scenario, seeds, indices)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(scenarios)
    def test_dict_round_trip_is_identity(self, scenario):
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert rebuilt.canonical() == scenario.canonical()
        assert rebuilt.scenario_id() == scenario.scenario_id()

    @settings(max_examples=60, deadline=None)
    @given(scenarios)
    def test_json_round_trip_is_identity(self, scenario):
        rebuilt = Scenario.from_dict(json.loads(scenario.dumps()))
        assert rebuilt == scenario

    @settings(max_examples=60, deadline=None)
    @given(scenarios)
    def test_canonical_omits_defaults(self, scenario):
        data = json.loads(scenario.canonical())
        defaults = {
            f.name: f.default for f in dataclasses.fields(Scenario) if f.init
        }
        for key, value in data.items():
            if key in ("protocol", "faults", "name"):
                continue
            assert value != defaults[key], (
                f"canonical form carries default {key}={value!r}"
            )


class TestFuzzerOutputValidates:
    @settings(max_examples=100, deadline=None)
    @given(seeds, indices)
    def test_generated_scenarios_are_schema_clean(self, seed, index):
        scenario = generate_scenario(seed, index)
        assert scenario_errors(scenario.to_dict()) == []

    @settings(max_examples=50, deadline=None)
    @given(seeds, indices)
    def test_generation_is_pure(self, seed, index):
        first = generate_scenario(seed, index)
        second = generate_scenario(seed, index)
        assert first.canonical() == second.canonical()


#: Cheap structural predicates a shrink must preserve — each one mimics a
#: violation signature that depends on one scenario dimension.
PREDICATES = [
    ("always", lambda s: True),
    ("timed", lambda s: bool(s.delay_model or s.omission)),
    ("has-faults", lambda s: not s.faults.is_empty()),
    ("has-crashes", lambda s: bool(s.faults.crashes)),
    ("copier", lambda s: s.adversary_spec().copier_pair is not None),
    ("large-n", lambda s: s.n >= 4),
]

predicate_items = st.sampled_from(PREDICATES)


class TestShrinkerFixpoint:
    @settings(max_examples=40, deadline=None)
    @given(scenarios, predicate_items)
    def test_shrink_preserves_predicate(self, scenario, item):
        _, predicate = item
        if not predicate(scenario):
            return
        minimal, _ = shrink_scenario(scenario, predicate)
        assert predicate(minimal)

    @settings(max_examples=40, deadline=None)
    @given(scenarios, predicate_items)
    def test_shrink_is_idempotent(self, scenario, item):
        _, predicate = item
        if not predicate(scenario):
            return
        minimal, _ = shrink_scenario(scenario, predicate)
        again, steps = shrink_scenario(minimal, predicate)
        assert steps == 0
        assert again.canonical() == minimal.canonical()

    @settings(max_examples=30, deadline=None)
    @given(scenarios, predicate_items)
    def test_shrink_is_deterministic(self, scenario, item):
        _, predicate = item
        if not predicate(scenario):
            return
        first, _ = shrink_scenario(scenario, predicate)
        second, _ = shrink_scenario(scenario, predicate)
        assert first.canonical() == second.canonical()

    @settings(max_examples=25, deadline=None)
    @given(scenarios)
    def test_unconstrained_shrink_reaches_the_floor(self, scenario):
        minimal, _ = shrink_scenario(scenario, lambda s: True)
        # With nothing to preserve, everything reducible must go.
        assert minimal.faults.is_empty()
        assert minimal.delay_model == "" and minimal.omission == ""
        assert minimal.adversary == "none"
        assert minimal.trials == 1
        assert minimal.n == 2 and minimal.t == 0
        assert minimal.seed == 0 and minimal.name == ""
