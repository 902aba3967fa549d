"""Shared configuration for the benchmark harness.

Each ``test_bench_*`` module regenerates one of the paper's tables or
figures (see DESIGN.md §4) at a reduced sample scale, asserts that the
measured behaviour matches the paper's claim, and reports the wall-clock
cost through pytest-benchmark.  Run with::

    pytest benchmarks/ --benchmark-only

Full-scale numbers (the ones recorded in EXPERIMENTS.md) come from
``python -m repro experiments`` instead.
"""

import pytest

from repro.experiments import ExperimentConfig

BENCH_SCALE = 0.15


@pytest.fixture
def bench_config():
    """Reduced-scale configuration used by every experiment benchmark."""
    return ExperimentConfig(scale=BENCH_SCALE)


def run_once(benchmark, runner, config):
    """Run an experiment exactly once under the benchmark timer."""
    result = benchmark.pedantic(runner, args=(config,), rounds=1, iterations=1)
    return result
