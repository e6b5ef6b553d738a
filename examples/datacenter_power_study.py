#!/usr/bin/env python3
"""Datacenter scenario: how much DRAM power does ARCC save on my mixes?

The question a capacity planner would ask of this library: given the
SPEC-like mixes of the paper's Table 7.3, compare the commercial SCCDCD
organization against ARCC fault-free (Figure 7.1), then ask what a worst
case fault does to those savings (Figure 7.2/7.3).

Run:  python examples/datacenter_power_study.py          (quick subset)
      python examples/datacenter_power_study.py --full   (all 12 mixes)
"""

import sys

from repro.experiments.fig7_1 import plan_fig7_1
from repro.experiments.fig7_2_7_3 import plan_fig7_2_7_3
from repro.faults.types import FaultType
from repro.runner.executor import execute_plan
from repro.workloads.spec import ALL_MIXES


def main() -> None:
    full = "--full" in sys.argv
    mixes = ALL_MIXES if full else ALL_MIXES[:4]
    instructions = 40_000 if full else 25_000

    print("== Fault-free comparison (Figure 7.1) ==")
    fig71 = execute_plan(
        plan_fig7_1(mixes=mixes, instructions_per_core=instructions)
    )
    print(fig71.to_table())
    print()
    print(
        f"Headline: {fig71.average_power_saving:.1%} average power saving "
        f"(paper: 36.7%), {fig71.average_performance_gain:+.1%} performance "
        "(paper: +5.9%)"
    )
    print()

    print("== With a single device-level fault (Figures 7.2/7.3) ==")
    overheads = execute_plan(
        plan_fig7_2_7_3(mixes=mixes[:3], instructions_per_core=instructions)
    )
    print(overheads.to_table())
    print()
    lane = overheads.overheads()[FaultType.LANE][0]
    print(
        "Even a lane fault (every page upgraded) costs "
        f"{lane - 1:.0%} extra power — still well under the 2x worst case, "
        "thanks to spatial locality."
    )


if __name__ == "__main__":
    main()
