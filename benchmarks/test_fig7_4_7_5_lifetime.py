"""Figures 7.4 and 7.5: lifetime-average power/performance overheads.

Monte-Carlo fault arrivals composed with the measured per-fault-type
overheads of Figures 7.2/7.3 (regenerated here at reduced scale rather
than trusting the recorded fallbacks).
"""

import pytest

from conftest import emit

from repro.experiments.fig7_4_7_5 import plan_fig7_4_7_5_measured
from repro.runner.executor import execute_plan
from repro.workloads.spec import ALL_MIXES

pytestmark = [pytest.mark.slow, pytest.mark.mc]

CHANNELS = 800


def test_fig7_4_and_7_5_lifetime_overheads(once):
    def full_run():
        return execute_plan(
            plan_fig7_4_7_5_measured(
                years=7,
                channels=CHANNELS,
                mixes=ALL_MIXES[:3],
                instructions_per_core=15_000,
            )
        )

    result = once(full_run)
    emit(
        "Figures 7.4 / 7.5: Lifetime Overhead of Error Correction",
        result.to_table(),
    )

    for mult in (1.0, 2.0, 4.0):
        power = result.power_overhead[mult]
        worst = result.worst_case_power[mult]
        # Cumulative averages grow with time.
        assert all(b >= a - 1e-9 for a, b in zip(power, power[1:]))
        # Measured never exceeds the worst-case estimate.
        assert all(m <= w + 1e-9 for m, w in zip(power, worst))

    # The paper's punchline: "power benefits from ARCC even at the end of
    # 7 years for 4X the memory fault rate is no less than 30%" — i.e.
    # the overhead eats only a few points of the ~37% saving.
    assert result.power_overhead[4.0][-1] < 0.07
    assert result.performance_overhead[4.0][-1] < 0.05

    # Rate ordering at year 7.
    assert (
        result.power_overhead[1.0][-1]
        <= result.power_overhead[2.0][-1]
        <= result.power_overhead[4.0][-1]
    )
