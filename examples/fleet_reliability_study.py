#!/usr/bin/env python3
"""Fleet-reliability scenario: is relaxing detection actually safe?

The question a reliability engineer would ask: over a *real* datacenter
fleet — mixed DIMM generations, a hot-aisle slice at elevated fault
rates, infant-mortality burn-in — how much memory ever needs ARCC's
strong mode, and how many silent data corruptions does relaxed
detection admit compared to always-on SCCDCD?

Drives a custom heterogeneous :class:`repro.fleet.FleetScenario` through
the vectorized fleet-lifetime engine (10^5 channels in well under a
second per slice), sweeps the three protection policies (ARCC, SCCDCD,
LOT-ECC) over the same fault histories to get the TCO-style decision
table, then cross-checks the paper's Figure 6.1 SDC claim with
Monte-Carlo confidence intervals.

The same study works without Python: dump the scenario with
:func:`repro.fleet.dump_scenario_json` and run ``repro fleet
--scenario-file study.json --policies arcc,sccdcd,lotecc``.

Run:  python examples/fleet_reliability_study.py [--jobs N]
"""

import argparse

from repro.config import ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG
from repro.experiments.fig6_1 import plan_fig6_1
from repro.fleet import (
    FleetScenario,
    RatePhase,
    SubPopulation,
    plan_fleet,
    plan_fleet_compare,
    plan_fleet_compare_measured,
)
from repro.reliability.analytical import ReliabilityParams
from repro.reliability.due import due_rate_sccdcd, due_rate_sparing
from repro.runner import execute_plan

#: A fleet no single homogeneous simulation covers: three ARCC cohorts
#: (fresh with burn-in, mid-life, hot-aisle) plus a legacy x4 remnant.
DATACENTER_FLEET = FleetScenario(
    name="datacenter-2026",
    description=(
        "fresh ARCC racks (0.5y burn-in at 3x), mid-life ARCC at 2x, "
        "a hot-aisle ARCC slice at 4x, and a retiring x4 lockstep cohort"
    ),
    populations=(
        SubPopulation(
            name="fresh-burnin",
            channels=50_000,
            config=ARCC_MEMORY_CONFIG,
            schedule=(RatePhase(duration_years=0.5, multiplier=3.0),),
        ),
        SubPopulation(
            name="midlife-2x",
            channels=30_000,
            config=ARCC_MEMORY_CONFIG,
            rate_multiplier=2.0,
            lifespan_years=5.0,
        ),
        SubPopulation(
            name="hot-aisle-4x",
            channels=12_000,
            config=ARCC_MEMORY_CONFIG,
            rate_multiplier=4.0,
        ),
        SubPopulation(
            name="legacy-x4",
            channels=8_000,
            config=BASELINE_MEMORY_CONFIG,
            rate_multiplier=2.0,
            lifespan_years=3.0,
        ),
    ),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    print("== How much of the fleet ever sees a fault? ==")
    report = execute_plan(plan_fleet(DATACENTER_FLEET), max_workers=args.jobs)
    print(report.to_table())
    print()
    worst_slice = max(
        report.subpopulations, key=lambda s: s.final_fraction()
    )
    print(
        f"Even the worst slice ({worst_slice.name}) ends its lifespan with "
        f"{worst_slice.final_fraction():.1%} of pages faulty — everything "
        "else runs the cheap relaxed mode the whole time."
    )
    print()

    print("== Which protection policy should this fleet run? ==")
    comparison = execute_plan(
        plan_fleet_compare(
            DATACENTER_FLEET,
            policies=("arcc", "sccdcd", "lotecc"),
        ),
        max_workers=args.jobs,
    )
    print(comparison.to_table())
    arcc = comparison.fleet_summary("arcc")
    sccdcd = comparison.fleet_summary("sccdcd")
    print(
        f"ARCC runs this fleet at {arcc.power_overhead[0]:.2%} lifetime "
        f"power overhead vs always-strong SCCDCD's "
        f"{sccdcd.power_overhead[0]:.2%}, at an SDC exposure of "
        f"{arcc.sdc_events_per_year:.2e} events/year fleet-wide."
    )
    print()

    print("== The same decision with *measured* policy weights ==")
    # The perf -> fleet bridge replays per-(policy, fault-class) trace
    # points against both organizations of this fleet, so LOT-ECC is
    # priced at its locality-aware cost instead of the flat 4x worst
    # case. The measurement shares its cache with fig7.2/7.3; the plan's
    # assembly returns the comparison on the measured weights as a
    # follow-up plan, which execute_plan runs as a second stage.
    measured = execute_plan(
        plan_fleet_compare_measured(
            DATACENTER_FLEET,
            policies=("arcc", "sccdcd", "lotecc"),
        ),
        max_workers=args.jobs,
    )
    print(measured.to_table())
    lot_worst = comparison.fleet_summary("lotecc")
    lot_measured = measured.fleet_summary("lotecc")
    print(
        f"Worst-case arithmetic prices LOT-ECC at "
        f"{lot_worst.power_overhead[0]:.2%} lifetime power overhead; "
        f"measured locality brings it to "
        f"{lot_measured.power_overhead[0]:.2%} — adaptive protection "
        "stays an order of magnitude under always-strong SCCDCD."
    )
    print()

    print("== What does relaxed detection cost? (Figure 6.1) ==")
    fig61 = execute_plan(
        plan_fig6_1(
            lifespans=(3, 5, 7),
            multipliers=(1.0, 2.0, 4.0),
            monte_carlo_channels=20_000,
            monte_carlo_years=7.0,
        ),
        max_workers=args.jobs,
    )
    print(fig61.to_table())
    print()
    worst = fig61.arcc_increase(7, 4.0)
    print(
        f"Worst cell (7y, 4x): ARCC adds {worst:.2e} SDCs per 1000 "
        "machine-years — orders of magnitude below one event."
    )
    print()

    print("== Scrub-race arithmetic behind the model ==")
    params = ReliabilityParams()
    print(
        f"SCCDCD DUE rate (month-long repair exposure): "
        f"{due_rate_sccdcd(params):.3e} /channel-hour"
    )
    print(
        f"Sparing DUE rate (4h scrub exposure):          "
        f"{due_rate_sparing(params):.3e} /channel-hour"
    )


if __name__ == "__main__":
    main()
