"""Vectorized fleet-lifetime engine timings at paper-grade population.

The Figure 3.1 pipeline (sample fault arrivals, reduce to faulty-page
fractions per year) and a heterogeneous scenario sweep, both through the
struct-of-arrays :mod:`repro.fleet` engine at 10^5 channels. The
timings land in the CI benchmark job's ``BENCH_pr.json`` artifact;
end-to-end absolute time is tracked by ``perfbench/``.
"""

import pytest

from repro.experiments.fig3_1 import plan_fig3_1
from repro.fleet.report import plan_fleet
from repro.runner.executor import execute_plan

pytestmark = pytest.mark.mc

#: Paper-grade confidence scale.
CHANNELS = 100_000
YEARS = 7


def test_bench_fleet_vectorized(benchmark):
    result = benchmark(
        lambda: execute_plan(
            plan_fig3_1(years=YEARS, channels=CHANNELS, multipliers=(4.0,))
        )
    )
    assert len(result.series[4.0]) == YEARS


def test_bench_fleet_scenario_100k(benchmark):
    """A heterogeneous 10^5-channel scenario sweep, single core."""
    report = benchmark.pedantic(
        lambda: execute_plan(
            plan_fleet(scenario="mixed-generations", channels=CHANNELS)
        ),
        rounds=1,
        iterations=1,
    )
    assert report.total_channels == pytest.approx(CHANNELS, abs=2)
