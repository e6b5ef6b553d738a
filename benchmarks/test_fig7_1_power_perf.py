"""Figure 7.1: fault-free power and performance, ARCC vs baseline.

All 12 Table 7.3 mixes on both Table 7.1 organizations. Shape targets:
~36.7% average power saving (uniform across mixes), small positive average
performance gain from doubled rank-level parallelism.
"""

import pytest

from conftest import emit

from repro.experiments.fig7_1 import plan_fig7_1
from repro.runner.executor import execute_plan

pytestmark = pytest.mark.slow

INSTRUCTIONS = 40_000


def test_fig7_1_power_and_performance(once):
    result = once(
        lambda: execute_plan(plan_fig7_1(instructions_per_core=INSTRUCTIONS))
    )
    emit("Figure 7.1: Power and Performance Improvements", result.to_table())

    # Headline averages (paper: 36.7% power, +5.9% performance).
    assert 0.30 < result.average_power_saving < 0.45
    assert 0.0 < result.average_performance_gain < 0.12

    # "The power benefits across the workloads are relatively uniform":
    savings = [row.power_saving for row in result.rows]
    assert max(savings) - min(savings) < 0.15

    # ARCC wins power on every single mix.
    assert all(row.power_saving > 0.25 for row in result.rows)

    # Performance varies by mix but never collapses.
    assert all(row.performance_gain > -0.05 for row in result.rows)
