"""Tests for the independence definition estimators (the paper's core).

These tests pin the scientific behaviour: secure protocols score
CONSISTENT, the paper's attacks score VIOLATED, and the G/CR split on
Π_G reproduces Lemma 6.4 in miniature.
"""

import random

import pytest

from repro.adversaries import SequentialCopier, XorAttacker
from repro.analysis import Decision
from repro.core import (
    HONEST,
    AnnouncedSample,
    MeasurementBudget,
    announce_once,
    cr_report,
    g_report,
    g_report_from_samples,
    g_star_report,
    g_star_star_report,
    measure,
    sample_announced,
    sb_report,
)
from repro.core.predicates import (
    default_family,
    equality_predicate,
    parity_predicate,
    projection_predicate,
    threshold_predicate,
)
from repro.distributions import uniform
from repro.errors import ExperimentError
from repro.protocols import (
    GennaroBroadcast,
    IdealSimultaneousBroadcast,
    PiGBroadcast,
    SequentialBroadcast,
)

N, T = 4, 1
UNIFORM = uniform(N)


def rng():
    return random.Random(1234)


class TestAnnouncedSamplers:
    def test_announce_once(self):
        protocol = IdealSimultaneousBroadcast(N, T)
        sample = announce_once(protocol, (1, 0, 1, 0), HONEST, rng())
        assert sample.announced == (1, 0, 1, 0)
        assert sample.corrupted == frozenset()

    def test_sample_announced_counts(self):
        protocol = IdealSimultaneousBroadcast(N, T)
        draws = sample_announced(protocol, UNIFORM, HONEST, 50, rng())
        assert len(draws) == 50
        assert all(d.announced == d.inputs for d in draws)

    def test_adversary_factory_fresh_instances(self):
        protocol = SequentialBroadcast(N, T)
        factory = lambda: SequentialCopier(copier=4, target=1)
        draws = sample_announced(protocol, UNIFORM, factory, 20, rng())
        assert all(d.corrupted == frozenset({4}) for d in draws)
        assert all(d.announced[3] == d.inputs[0] for d in draws)


class TestPredicates:
    def test_parity(self):
        p = parity_predicate(0)
        assert p((1, 1, 0, 0), excluded=3)  # 1^1^0 = 0
        assert not p((1, 0, 0, 0), excluded=3)

    def test_projection_excluded_coordinate(self):
        p = projection_predicate(2, 1)
        assert p((0, 1, 0), excluded=1)
        assert not p((0, 1, 0), excluded=2)  # projecting the excluded coord

    def test_equality(self):
        p = equality_predicate(1, 3)
        assert p((1, 0, 1), excluded=2)
        assert not p((1, 0, 0), excluded=2)
        assert not p((1, 0, 1), excluded=1)

    def test_threshold(self):
        p = threshold_predicate(2)
        assert p((1, 1, 1, 0), excluded=1)
        assert not p((1, 1, 0, 0), excluded=1)

    def test_family_size_and_names(self):
        family = default_family(4)
        names = {p.name for p in family}
        assert len(names) == len(family)  # all distinct
        assert "parity==0" in names


class TestCREstimator:
    def test_secure_protocol_consistent(self):
        report = cr_report(
            IdealSimultaneousBroadcast(N, T), UNIFORM, HONEST, 400, rng()
        )
        assert report.decision == Decision.CONSISTENT

    def test_copy_attack_violates(self):
        report = cr_report(
            SequentialBroadcast(N, T),
            UNIFORM,
            lambda: SequentialCopier(copier=4, target=1),
            400,
            rng(),
        )
        assert report.decision == Decision.VIOLATED
        # The witness predicate involves the copied coordinate.
        assert "P_1" in report.witness or "W[4]" in report.witness

    def test_sample_floor(self):
        with pytest.raises(ExperimentError):
            cr_report(SequentialBroadcast(N, T), UNIFORM, HONEST, 5, rng())

    def test_report_metadata(self):
        report = cr_report(
            IdealSimultaneousBroadcast(N, T), UNIFORM, HONEST, 100, rng()
        )
        assert report.definition == "CR"
        assert report.samples == 100
        assert report.details["distribution"] == UNIFORM.name
        assert "CR" in report.summary()


class TestGEstimator:
    def test_vacuous_without_corruption(self):
        report = g_report(
            IdealSimultaneousBroadcast(N, T), UNIFORM, HONEST, 100, rng()
        )
        assert report.gap == 0.0
        assert "vacuous" in report.witness

    def test_pig_under_xor_attack_consistent(self):
        """Lemma 6.4 half 1: Π_G remains G-independent under A*."""
        protocol = PiGBroadcast(N, T, backend="ideal")
        report = g_report(
            protocol,
            UNIFORM,
            lambda: XorAttacker(protocol, corrupted_pair=[2, 4]),
            1200,
            rng(),
            min_condition_count=40,
        )
        assert report.decision == Decision.CONSISTENT

    def test_copier_violates_g(self):
        protocol = SequentialBroadcast(N, T)
        report = g_report(
            protocol,
            UNIFORM,
            lambda: SequentialCopier(copier=4, target=1),
            800,
            rng(),
        )
        assert report.decision == Decision.VIOLATED

    def test_min_condition_count_respected(self):
        protocol = PiGBroadcast(N, T, backend="ideal")
        report = g_report(
            protocol,
            UNIFORM,
            lambda: XorAttacker(protocol, corrupted_pair=[2, 4]),
            100,
            rng(),
            min_condition_count=1000,
        )
        assert report.details["conditioning_events"] == 0

    def test_witness_has_the_largest_lower_bound(self):
        """Two thin groups with the largest raw gap lose to two thick ones.

        n = 3 with P_3 corrupted: the honest groups (0,0) and (0,1) hold 10
        draws each (rates 0.8 and 0.2), (1,0) and (1,1) hold 200 each
        (rates 0.75 and 0.25).  The raw-gap maximum, 0.6 on the thin pair,
        cannot be certified; 0.5 on the thick pair can.
        """
        draws = []
        for honest, size, ones in (
            ((0, 0), 10, 8),
            ((0, 1), 10, 2),
            ((1, 0), 200, 150),
            ((1, 1), 200, 50),
        ):
            draws += [
                AnnouncedSample(
                    inputs=(), announced=honest + (int(k < ones),), corrupted=frozenset({3})
                )
                for k in range(size)
            ]
        report = g_report_from_samples(draws, 3, min_condition_count=10)
        assert report.witness == "corrupted P_3, W_honest = (1, 0) vs (1, 1)"
        assert report.gap == pytest.approx(0.5)
        assert report.error == pytest.approx(0.117, abs=5e-4)
        assert report.decision == Decision.VIOLATED


class TestCRSeparatesPiG:
    def test_pig_under_xor_attack_violates_cr(self):
        """Lemma 6.4 half 2 / Claim 6.6: the parity predicate exposes Π_G."""
        protocol = PiGBroadcast(N, T, backend="ideal")
        report = cr_report(
            protocol,
            UNIFORM,
            lambda: XorAttacker(protocol, corrupted_pair=[2, 4]),
            400,
            rng(),
        )
        assert report.decision == Decision.VIOLATED
        assert "parity" in report.witness

    def test_pig_honest_is_cr_consistent(self):
        protocol = PiGBroadcast(N, T, backend="ideal")
        report = cr_report(protocol, UNIFORM, HONEST, 400, rng())
        assert report.decision == Decision.CONSISTENT


class TestGStarEstimators:
    def test_vacuous_without_corruption(self):
        for fn in (g_star_report, g_star_star_report):
            report = fn(IdealSimultaneousBroadcast(N, T), HONEST, 10, rng())
            assert report.gap == 0.0

    def test_pig_xor_attack_gstar_consistent(self):
        protocol = PiGBroadcast(N, T, backend="ideal")
        factory = lambda: XorAttacker(protocol, corrupted_pair=[2, 4])
        # The interventional estimator maxes over many (w, r, s) triples, so
        # small per-point samples inflate the noise floor; 400 per point puts
        # the max comfortably under the threshold.
        report = g_star_star_report(protocol, factory, 400, rng())
        assert report.decision == Decision.CONSISTENT

    def test_copier_violates_gstarstar(self):
        protocol = SequentialBroadcast(N, T)
        factory = lambda: SequentialCopier(copier=4, target=1)
        report = g_star_star_report(protocol, factory, 60, rng())
        assert report.decision == Decision.VIOLATED
        assert "corrupted P_4" in report.witness

    def test_copier_violates_gstar(self):
        protocol = SequentialBroadcast(N, T)
        factory = lambda: SequentialCopier(copier=4, target=1)
        report = g_star_report(protocol, factory, 60, rng())
        assert report.decision == Decision.VIOLATED

    def test_equivalence_direction_on_examples(self):
        """Proposition B.3 sampled: on our examples G* and G** agree."""
        cases = [
            (SequentialBroadcast(N, T), lambda p: lambda: SequentialCopier(4, 1)),
            (PiGBroadcast(N, T, backend="ideal"), lambda p: lambda: XorAttacker(p, [2, 4])),
        ]
        for protocol, suite in cases:
            factory = suite(protocol)
            star = g_star_report(protocol, factory, 60, rng())
            star_star = g_star_star_report(protocol, factory, 60, rng())
            assert star.violated == star_star.violated

    def test_sample_floor(self):
        with pytest.raises(ExperimentError):
            g_star_star_report(SequentialBroadcast(N, T), HONEST, 1, rng())


class TestSbEstimator:
    def test_ideal_protocol_consistent(self):
        report = sb_report(IdealSimultaneousBroadcast(N, T), HONEST, 30, rng())
        assert report.decision == Decision.CONSISTENT
        assert report.details["correctness_violation"] == 0.0

    def test_copier_violates_sb(self):
        protocol = SequentialBroadcast(N, T)
        report = sb_report(
            protocol, lambda: SequentialCopier(copier=4, target=1), 30, rng()
        )
        assert report.decision == Decision.VIOLATED
        assert report.details["simulation_gap"] > 0.5

    def test_input_substitution_is_simulatable(self):
        """Announcing a substituted input is ideal-model legal: Sb holds."""
        from repro.adversaries import InputSubstitution

        protocol = GennaroBroadcast(N, T, security_bits=16)
        report = sb_report(
            protocol,
            lambda: InputSubstitution(protocol, corrupted=[2], substitution=1),
            20,
            rng(),
        )
        assert report.decision == Decision.CONSISTENT

    def test_restricted_input_class(self):
        protocol = SequentialBroadcast(N, T)
        report = sb_report(
            protocol,
            lambda: SequentialCopier(copier=4, target=1),
            30,
            rng(),
            input_vectors=[(0, 0, 0, 0), (1, 0, 0, 0)],
        )
        # Two singletons differing only in the target's bit expose the copier.
        assert report.decision == Decision.VIOLATED


class TestMeasureAndGrid:
    def test_measure_dispatch(self):
        protocol = IdealSimultaneousBroadcast(N, T)
        budget = MeasurementBudget(distribution_samples=100, samples_per_point=10)
        for definition in ("CR", "G", "Sb", "G*", "G**"):
            report = measure(
                definition, protocol, UNIFORM, {"honest": HONEST}, rng(), budget
            )
            assert report.definition == definition
            assert report.gap <= 0.2

    def test_measure_unknown_definition(self):
        with pytest.raises(ExperimentError):
            measure("XYZ", IdealSimultaneousBroadcast(N, T), UNIFORM, {}, rng())

    def test_measure_takes_worst_adversary(self):
        protocol = SequentialBroadcast(N, T)
        suite = {
            "honest": HONEST,
            "copier": lambda: SequentialCopier(copier=4, target=1),
        }
        budget = MeasurementBudget(distribution_samples=400, samples_per_point=20)
        report = measure("CR", protocol, UNIFORM, suite, rng(), budget)
        assert report.violated
        assert "copier" in report.witness
