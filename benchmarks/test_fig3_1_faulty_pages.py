"""Figure 3.1: average fraction of faulty 4 KB pages vs lifespan."""

import pytest

from conftest import emit

from repro.experiments.fig3_1 import plan_fig3_1
from repro.runner import execute_plan

pytestmark = [pytest.mark.slow, pytest.mark.mc]

CHANNELS = 800


def test_fig3_1_faulty_memory_vs_time(once):
    result = once(
        lambda: execute_plan(plan_fig3_1(years=7, channels=CHANNELS))
    )
    emit("Figure 3.1: Faulty Memory vs Time", result.to_table())

    for mult, series in result.series.items():
        # Monotone accumulation of faulty pages.
        assert all(b >= a for a, b in zip(series, series[1:])), mult

    # Shape: "just a few percent during most of the lifetime ... even for
    # a worst case failure rate that is 4X as high" (Chapter 3).
    assert result.final_fraction(1.0) < 0.06
    assert 0.005 < result.final_fraction(4.0) < 0.20

    # Rate multiplier ordering at every year.
    for year in range(7):
        assert (
            result.series[1.0][year]
            <= result.series[2.0][year] + 0.01
            <= result.series[4.0][year] + 0.02
        )
