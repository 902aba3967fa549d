"""Independence verdicts must survive (or keep failing) under faults.

Two paper-grounded checks:

* **Π_G under sub-threshold drops** — on the BGW backend, dropping every
  round-1 input share of one honest party (tag ``bgw:theta:in``) is a
  *consistent* input substitution to 0 (missing shares default to the
  field zero), so the protocol completes, honest parties agree, and the
  Lemma 6.4 verdict is unchanged: the A* attack still leaves G consistent
  while breaking CR with the parity witness.  On the ideal backend all
  traffic rides the trusted-party mailbox, so wire faults are vacuous and
  the faulted execution must be *identical* to the clean one.

* **Naive commit-reveal stays broken under delays** — delaying the
  commit broadcasts of uninvolved honest parties degrades their
  coordinates to the default 0 but leaves the rushing
  :class:`CommitEchoAdversary` copy attack fully intact: the G** gap is
  still ~1 on the target's coordinate.
"""

from __future__ import annotations

import random

import pytest

from repro.adversaries import CommitEchoAdversary, XorAttacker
from repro.core import cr_report_from_samples, g_report_from_samples, g_star_star_report
from repro.core.announced import announce_once
from repro.faults import FaultPlan, FaultRule, get_plan, with_faults
from repro.protocols import NaiveCommitReveal, PiGBroadcast

N, T = 5, 2

#: Drop every round-1 BGW input share of honest party 3 — the consistent
#: input-omission fault (sub-threshold: one party, weaker than Byzantine).
INPUT_OMISSION = FaultPlan(
    name="input-omission",
    rules=(FaultRule(kind="drop", rounds=[1], senders=[3], tags=["bgw:theta:in"]),),
)

#: The same shares garbled instead of dropped: BGW skips what it cannot
#: parse, so a garbled share must read exactly as a dropped one.
INPUT_GARBLE = FaultPlan(
    name="input-garble",
    rules=(FaultRule(kind="corrupt", rounds=[1], senders=[3], tags=["bgw:theta:in"]),),
)


def xor_factory(protocol):
    return lambda: XorAttacker(protocol, corrupted_pair=[1, 2])


class TestPiGIdealBackendImmune:
    """Wire faults never touch the trusted-party mailbox."""

    @pytest.mark.parametrize(
        "plan_name", ["drop-light", "delay-light", "corrupt-light", "crash-1", "mixed"]
    )
    def test_faulted_run_identical_to_clean(self, plan_name, conformance_log):
        protocol = PiGBroadcast(N, T, backend="ideal")
        plan = get_plan(plan_name)
        inputs = [1, 0, 1, 1, 0]
        for seed in (1, 7):
            clean = protocol.announced(inputs, seed=seed)
            faulted = protocol.announced(
                inputs, seed=seed, fault_plan=plan, fault_seed=99, timeout_rounds=40
            )
            assert faulted == clean == tuple(inputs)
        conformance_log(
            protocol="pi-g", plan=plan_name, check="ideal-backend-immune", ok=True
        )

    def test_verdict_equal_under_attack(self):
        protocol = PiGBroadcast(N, T, backend="ideal")
        # Pinning fault_seed keeps the run RNG stream identical to the
        # clean run, so the executions are coin-for-coin comparable.
        faulted = with_faults(
            protocol, get_plan("drop-light"), timeout_rounds=40, fault_seed=123
        )
        rng_a, rng_b = random.Random(5), random.Random(5)
        attacker = xor_factory(protocol)
        for _ in range(10):
            clean = announce_once(protocol, [1, 0, 1, 1, 0], attacker, rng_a)
            dirty = announce_once(faulted, [1, 0, 1, 1, 0], attacker, rng_b)
            assert dirty.announced == clean.announced


class TestPiGBgwUnderDrops:
    def test_input_omission_is_consistent_substitution(self, conformance_log):
        protocol = PiGBroadcast(N, T, backend="bgw")
        inputs = [1, 0, 1, 1, 0]
        substituted = list(inputs)
        substituted[2] = 0
        for seed in (3, 9):
            faulted = protocol.run(
                inputs, seed=seed, fault_plan=INPUT_OMISSION, timeout_rounds=80
            )
            assert not faulted.timed_out
            assert len(faulted.faults) == N  # one dropped share per recipient
            announced = faulted.announced_vector()
            assert announced == protocol.run(substituted, seed=seed).announced_vector()
        conformance_log(
            protocol="pi-g", plan="input-omission", check="consistent-substitution", ok=True
        )

    def test_input_garble_is_the_same_substitution(self, conformance_log):
        protocol = PiGBroadcast(N, T, backend="bgw")
        inputs = [1, 0, 1, 1, 0]
        substituted = list(inputs)
        substituted[2] = 0
        for seed in (3, 9):
            faulted = protocol.run(
                inputs, seed=seed, fault_plan=INPUT_GARBLE, timeout_rounds=80
            )
            assert not faulted.timed_out
            assert len(faulted.faults) == N  # one garbled share per recipient
            announced = faulted.announced_vector()
            assert announced == protocol.run(substituted, seed=seed).announced_vector()
        conformance_log(
            protocol="pi-g", plan="input-garble", check="consistent-substitution", ok=True
        )

    def test_xor_attack_parity_invariant_survives_drops(self):
        # Under A*, ⊕W = 0 is an invariant of g's output — input
        # substitution changes W, never the invariant.
        protocol = PiGBroadcast(N, T, backend="bgw")
        faulted = with_faults(protocol, INPUT_OMISSION, timeout_rounds=80)
        attacker = xor_factory(protocol)
        rng = random.Random(13)
        for _ in range(8):
            inputs = [rng.randrange(2) for _ in range(N)]
            sample = announce_once(faulted, inputs, attacker, rng)
            w = sample.announced
            assert len(w) == N
            parity = 0
            for bit in w:
                parity ^= bit
            assert parity == 0
            # Honest, un-dropped coordinates still announce their inputs.
            assert w[3] == inputs[3] and w[4] == inputs[4]
            # The dropped party's coordinate is the substituted default.
            assert w[2] == 0

    @pytest.mark.slow
    def test_lemma64_verdict_unchanged_under_drops(self, conformance_log):
        # The headline Lemma 6.4 separation, re-measured on the degraded
        # network: G stays consistent, CR still breaks with the parity
        # predicate at gap ~p(1-p).
        protocol = PiGBroadcast(N, T, backend="bgw")
        faulted = with_faults(protocol, INPUT_OMISSION, timeout_rounds=80)
        attacker = xor_factory(protocol)
        rng = random.Random(64)
        draws = []
        for _ in range(420):
            inputs = [rng.randrange(2) for _ in range(N)]
            draws.append(announce_once(faulted, inputs, attacker, rng))
        g = g_report_from_samples(draws, N, min_condition_count=10)
        cr = cr_report_from_samples(draws[:300], N)
        assert not g.violated, f"G broke under sub-threshold drops: {g.witness}"
        assert cr.violated, "the Lemma 6.4 CR break vanished under drops"
        assert cr.gap >= 0.15
        conformance_log(
            protocol="pi-g",
            plan="input-omission",
            check="lemma64-verdict",
            ok=(not g.violated) and cr.violated,
            g_gap=g.gap,
            cr_gap=cr.gap,
        )


class TestNaiveCommitRevealStaysBroken:
    #: Delay the *other* honest parties' commits by one round; the copy
    #: attack on party 1 is untouched.
    DELAY_PLAN = FaultPlan(
        name="delay-bystanders",
        rules=(
            FaultRule(
                kind="delay", rounds=[1], senders=[2, 3], tags=["naive:commit"], delay=1
            ),
        ),
    )

    def echo_factory(self):
        return lambda: CommitEchoAdversary(copier=N, target=1)

    def test_copy_attack_gap_survives_delays(self, conformance_log):
        protocol = NaiveCommitReveal(N, T)
        faulted = with_faults(protocol, self.DELAY_PLAN, timeout_rounds=40)
        report = g_star_star_report(
            faulted,
            self.echo_factory(),
            samples_per_point=24,
            rng=random.Random(42),
            honest_assignments=[(0,) * (N - 1), (1,) + (0,) * (N - 2)],
            corrupted_assignments=[(0,)],
        )
        assert report.violated
        assert report.gap >= 0.9
        conformance_log(
            protocol="naive-commit-reveal",
            plan="delay-bystanders",
            check="cr-break-persists",
            ok=report.violated,
            gap=report.gap,
        )

    def test_bystander_coordinates_default_consistently(self):
        protocol = NaiveCommitReveal(N, T)
        execution = protocol.run(
            [1, 1, 1, 1, 1], seed=8, fault_plan=self.DELAY_PLAN, timeout_rounds=40
        )
        announced = execution.announced_vector()
        # Delayed commits arrive a round late and are ignored: slots 2 and 3
        # default to 0 for *every* honest party identically.
        assert announced[1] == 0 and announced[2] == 0
        assert announced[0] == 1 and announced[3] == 1 and announced[4] == 1
