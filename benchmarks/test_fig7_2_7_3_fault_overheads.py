"""Figures 7.2 and 7.3: power/performance with a single device-level fault.

Each Table 7.4 fault type sets its fraction of pages upgraded; results
normalize to the fault-free run. Shape targets: power overhead ordered
lane > device > bank > column and below the 1+fraction worst case;
performance near unity on average, with high-locality mixes improving
(the paired fetch is a free prefetch) and low-locality mixes degrading.
"""

import pytest

from conftest import emit

from repro.experiments.fig7_2_7_3 import plan_fig7_2_7_3
from repro.faults.models import upgraded_page_fraction
from repro.faults.types import FaultType
from repro.perf.simulator import worst_case_power_ratio
from repro.runner import execute_plan
from repro.workloads.spec import ALL_MIXES

pytestmark = pytest.mark.slow

INSTRUCTIONS = 30_000
MIXES = ALL_MIXES[:6]  # half the mixes keeps the bench under a minute


def test_fig7_2_and_7_3_fault_overheads(once):
    result = once(
        lambda: execute_plan(
            plan_fig7_2_7_3(mixes=MIXES, instructions_per_core=INSTRUCTIONS)
        )
    )
    emit(
        "Figures 7.2 / 7.3: Power and Performance with Faults",
        result.to_table(),
    )

    overheads = result.overheads()
    lane = overheads[FaultType.LANE][0]
    device = overheads[FaultType.DEVICE][0]
    bank = overheads[FaultType.BANK][0]
    column = overheads[FaultType.COLUMN][0]

    # Figure 7.2 ordering and worst-case bound.
    assert lane > device > bank >= column >= 1.0 - 1e-6
    for fault_type, ratio in (
        (FaultType.LANE, lane),
        (FaultType.DEVICE, device),
        (FaultType.BANK, bank),
        (FaultType.COLUMN, column),
    ):
        worst = worst_case_power_ratio(upgraded_page_fraction(fault_type))
        assert ratio <= worst + 0.02, fault_type

    # Figure 7.3: negligible average degradation; some mixes *improve*
    # under a lane fault thanks to spatial locality.
    perf_lane = [
        result.ratios[(mix.name, upgraded_page_fraction(FaultType.LANE))][1]
        for mix in MIXES
    ]
    assert sum(perf_lane) / len(perf_lane) > 0.95
    assert any(ratio > 1.0 for ratio in perf_lane)
