#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

This is the library's end-to-end demonstration: Tables 7.1-7.4 from the
live configs, Figure 3.1 (faulty memory vs time), Figure 6.1 (SDC rates),
Figure 7.1 (fault-free power/performance), Figures 7.2/7.3 (single-fault
power/performance), Figures 7.4/7.5 (lifetime overheads) and Figure 7.6
(ARCC+LOT-ECC). Everything is expressed as ``repro.runner`` jobs and
fanned out across ``--jobs N`` worker processes — the printed numbers
are identical for any N. Expect a few minutes single-process at default
scale; pass ``--quick`` for a reduced-size pass.

Run:  python examples/full_reproduction.py [--quick] [--jobs N]
"""

import argparse
import time

from repro.experiments import (
    plan_fig3_1,
    plan_fig6_1,
    plan_fig7_1,
    plan_fig7_2_7_3,
    plan_fig7_4_7_5,
    plan_fig7_6,
    plan_sweep_upgraded_fraction_measured,
    render_table_7_1,
    render_table_7_2,
    render_table_7_3,
    render_table_7_4,
)
from repro.runner import execute_plans
from repro.workloads.spec import ALL_MIXES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (results are identical for any value)",
    )
    args = parser.parse_args()

    quick = args.quick
    channels = 500 if quick else 2000
    instructions = 20_000 if quick else 40_000
    mixes = ALL_MIXES[:4] if quick else ALL_MIXES

    started = time.time()
    for section in (
        render_table_7_1(),
        render_table_7_2(),
        render_table_7_3(),
        render_table_7_4(),
    ):
        print(section)
        print()

    # Phase 1: everything without cross-figure dependencies, one pool.
    # The three trace-simulation plans share per-(mix, point) jobs:
    # identical points (e.g. every fault-free ARCC run) are simulated
    # once per batch by the runner's dedup and shared via the cache.
    fig3_1, fig6_1, fig7_1, fig7_2_7_3, sensitivity, fig7_6 = execute_plans(
        [
            plan_fig3_1(channels=channels),
            plan_fig6_1(monte_carlo_channels=0 if quick else 2000),
            plan_fig7_1(mixes=mixes, instructions_per_core=instructions),
            plan_fig7_2_7_3(
                mixes=mixes[:3], instructions_per_core=instructions
            ),
            plan_sweep_upgraded_fraction_measured(
                mixes=mixes[:3], instructions_per_core=instructions
            ),
            plan_fig7_6(channels=channels),
        ],
        max_workers=args.jobs,
    )

    print(fig3_1.to_table())
    print()
    print(fig6_1.to_table())
    print()
    print(fig7_1.to_table())
    print()
    print(fig7_2_7_3.to_table())
    print()
    print(sensitivity.to_table())
    print()

    # Phase 2: Figures 7.4/7.5 consume the overheads measured in 7.2/7.3.
    (fig7_4_7_5,) = execute_plans(
        [
            plan_fig7_4_7_5(
                channels=channels, overheads=fig7_2_7_3.overheads()
            )
        ],
        max_workers=args.jobs,
    )
    print(fig7_4_7_5.to_table())
    print()
    print(fig7_6.to_table())
    print()
    print(
        f"full reproduction finished in {time.time() - started:.1f}s "
        f"(--jobs {args.jobs})"
    )


if __name__ == "__main__":
    main()
