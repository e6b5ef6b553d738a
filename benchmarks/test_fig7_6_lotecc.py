"""Figure 7.6: ARCC+LOT-ECC worst-case overhead vs nine-device LOT-ECC."""

import pytest

from conftest import emit

from repro.experiments.fig7_6 import plan_fig7_6
from repro.runner.executor import execute_plan

pytestmark = [pytest.mark.slow, pytest.mark.mc]

CHANNELS = 800


def test_fig7_6_arcc_lotecc_overhead(once):
    result = once(
        lambda: execute_plan(plan_fig7_6(years=7, channels=CHANNELS))
    )
    emit("Figure 7.6: ARCC + LOT-ECC", result.to_table())

    # Paper: ~1.6% average at 1x over the 7-year period.
    assert result.average_overhead(1.0) < 0.05
    # Paper: "no more than 6.3%" at 4x (we allow modeling slack).
    assert result.average_overhead(4.0) < 0.15
    # Rate ordering.
    assert (
        result.average_overhead(1.0)
        < result.average_overhead(2.0)
        < result.average_overhead(4.0)
    )
    # The payoff that justifies the cost: >= 17x DUE reduction.
    assert result.due_reduction >= 17.0
