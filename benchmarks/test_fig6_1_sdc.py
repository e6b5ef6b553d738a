"""Figure 6.1: SDCs per 1000 machine-years, SCCDCD vs SCCDCD+ARCC.

Analytical models across lifespans and rate multipliers, plus a
Monte-Carlo cross-check at the elevated rate (genuine 1x SDCs need
millions of channel-lifetimes). Also covers the Section 6.1 DUE claims.
"""

import pytest

from conftest import emit

from repro.experiments.fig6_1 import plan_fig6_1
from repro.reliability.analytical import ReliabilityParams
from repro.reliability.due import due_reduction_factor
from repro.runner import execute_plan

pytestmark = pytest.mark.mc


def test_fig6_1_sdc_rates(once):
    result = once(
        lambda: execute_plan(
            plan_fig6_1(
                lifespans=(3, 5, 7),
                multipliers=(1.0, 2.0, 4.0),
                monte_carlo_channels=2000,
                monte_carlo_years=7.0,
            )
        )
    )
    emit("Figure 6.1: Reliability Comparison", result.to_table())

    for (years, mult), (sccdcd, arcc) in result.cells.items():
        # ARCC admits more SDCs than always-on double detection...
        assert arcc >= sccdcd
        # ...but the increase is insignificant: far below one event per
        # 1000 machine-years in every cell (the paper's claim).
        assert arcc < 0.01, (years, mult)

    # SDC counts grow with the fault-rate multiplier.
    assert result.cells[(7, 4.0)][1] > result.cells[(7, 1.0)][1]


def test_section_6_1_due_not_degraded(once):
    """Section 6.1 + 5.2: sparing-style detection shrinks the DUE
    exposure window by far more than the 17x the paper cites."""
    factor = once(due_reduction_factor, ReliabilityParams())
    emit(
        "Section 6.1 / 5.2: DUE exposure-window reduction",
        f"double chip sparing reduces DUE rate by {factor:.0f}x "
        "(paper cites 17x from [4])",
    )
    assert factor >= 17.0
