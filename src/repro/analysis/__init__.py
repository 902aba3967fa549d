"""Statistics, negligibility trends, and table rendering for the harness."""

from .stats import (
    DEFAULT_CONFIDENCE,
    DEFAULT_TAU_HIGH,
    DEFAULT_TAU_LOW,
    Decision,
    decide,
    empirical_tv,
    hoeffding_halfwidth,
)
from .tables import render_cost_report, render_figure1, render_table
from .trend import TrendVerdict, assess_trend

__all__ = [
    "DEFAULT_CONFIDENCE",
    "DEFAULT_TAU_HIGH",
    "DEFAULT_TAU_LOW",
    "Decision",
    "decide",
    "empirical_tv",
    "hoeffding_halfwidth",
    "render_table",
    "render_cost_report",
    "render_figure1",
    "TrendVerdict",
    "assess_trend",
]
