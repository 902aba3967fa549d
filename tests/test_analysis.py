"""Tests for the statistics, trend and table-rendering helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Decision,
    assess_trend,
    decide,
    empirical_tv,
    hoeffding_halfwidth,
    render_figure1,
    render_table,
)
from repro.errors import ExperimentError


class TestHoeffding:
    def test_halfwidth_decreases_with_samples(self):
        assert hoeffding_halfwidth(100) > hoeffding_halfwidth(1000)

    def test_known_value(self):
        # sqrt(ln(200)/200) for 99% confidence at n=100.
        expected = math.sqrt(math.log(2 / 0.01) / (2 * 100))
        assert hoeffding_halfwidth(100, 0.99) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            hoeffding_halfwidth(0)
        with pytest.raises(ExperimentError):
            hoeffding_halfwidth(10, confidence=1.0)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_halfwidth_positive(self, n):
        assert hoeffding_halfwidth(n) > 0


class TestDecide:
    def test_violated(self):
        assert decide(gap=0.5, error=0.05) == Decision.VIOLATED

    def test_consistent(self):
        assert decide(gap=0.01, error=0.02) == Decision.CONSISTENT

    def test_inconclusive(self):
        # Large estimate, but the error bar straddles the threshold.
        assert decide(gap=0.14, error=0.05) == Decision.INCONCLUSIVE

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            decide(gap=-0.1, error=0.0)

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=0.2),
    )
    @settings(max_examples=50, deadline=None)
    def test_always_returns_a_decision(self, gap, error):
        assert decide(gap, error) in set(Decision)


class TestEmpiricalTV:
    def test_identical(self):
        assert empirical_tv({"a": 5, "b": 5}, 10, {"a": 50, "b": 50}, 100) == 0.0

    def test_disjoint(self):
        assert empirical_tv({"a": 10}, 10, {"b": 10}, 10) == pytest.approx(1.0)

    def test_half(self):
        assert empirical_tv({"a": 10}, 10, {"a": 5, "b": 5}, 10) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            empirical_tv({}, 0, {"a": 1}, 1)


class TestTrend:
    def test_violated_trend(self):
        verdict = assess_trend(
            {16: 0.4, 24: 0.42, 32: 0.39},
            {16: 0.05, 24: 0.05, 32: 0.05},
        )
        assert verdict.decision == Decision.VIOLATED

    def test_consistent_trend(self):
        verdict = assess_trend(
            {16: 0.02, 24: 0.015, 32: 0.01},
            {16: 0.02, 24: 0.02, 32: 0.02},
        )
        assert verdict.decision == Decision.CONSISTENT

    def test_growth_makes_inconclusive(self):
        verdict = assess_trend(
            {16: 0.0, 24: 0.02, 32: 0.06},
            {16: 0.005, 24: 0.005, 32: 0.005},
        )
        assert verdict.decision == Decision.INCONCLUSIVE

    def test_mixed_is_inconclusive(self):
        verdict = assess_trend({16: 0.4, 32: 0.01}, {16: 0.05, 32: 0.05})
        assert verdict.decision == Decision.INCONCLUSIVE

    def test_validation(self):
        with pytest.raises(ExperimentError):
            assess_trend({}, {})
        with pytest.raises(ExperimentError):
            assess_trend({16: 0.1}, {24: 0.1})

    def test_gaps_recorded_sorted(self):
        verdict = assess_trend({32: 0.4, 16: 0.45}, {32: 0.01, 16: 0.01})
        assert [k for k, _ in verdict.gaps] == [16, 32]


class TestTables:
    def test_render_alignment(self):
        text = render_table(
            ["name", "value"], [["a", 1], ["long-name", 22]], title="demo"
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "long-name" in text
        # name column is padded to len("long-name") = 9 plus two spaces.
        assert lines[2].index("value") == 11

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["x", "y"]])

    def test_render_figure1(self):
        text = render_figure1(
            {
                ("Sb", "CR"): {"class": "D(CR)", "holds": True},
                ("G", "CR"): {"class": "D(G)", "holds": False, "note": "Pi_G"},
            }
        )
        assert "==>" in text
        assert "=/=>" in text
        assert "Pi_G" in text
