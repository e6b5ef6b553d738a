"""Figures 7.4 and 7.5 — lifetime-average power/performance overhead.

The Section 7.1 methodology, steps 2-4: Monte-Carlo fault arrivals over
10 000 channels x 7 years; each arrival adds the per-fault-type overhead
measured by the trace simulator (Figures 7.2/7.3) to that channel from its
arrival time on; report the population average cumulatively per year, for
1x/2x/4x rates, next to the worst-case analytical estimate.

Sampling and accumulation run on the vectorized :mod:`repro.fleet`
engine: one runner job per (rate multiplier, channel block), shipping
pre-reduced per-year moments, so measured series carry Monte-Carlo
confidence intervals at 10^5-channel populations. The legacy per-channel
reduction is kept as :func:`_overhead_series` — the reference the
vectorized accumulation is tested against on identical histories.

By default the per-fault overheads are the recorded
:data:`FALLBACK_OVERHEADS`. The fully measured methodology is its own
plan, :func:`plan_fig7_4_7_5_measured`: its jobs are the Figure 7.2/7.3
grid's, shared with the trace figures and ``repro fleet --measured``
through the cache, and its assembly returns :func:`plan_fig7_4_7_5` on
the per-fault-type averages as a follow-up plan, whose blocks the
executor runs and caches like the first stage's::

    execute_plan(plan_fig7_4_7_5_measured())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import MEASUREMENT_CONFIG
from repro.experiments.fig7_2_7_3 import plan_fig7_2_7_3
from repro.faults.lifetime import FaultEvent
from repro.faults.models import TABLE_7_4_TYPES, upgraded_page_fraction
from repro.faults.types import FaultType
from repro.fleet.engine import (
    check_channels,
    fleet_blocks,
    overhead_series_by_year,
    sample_block,
)
from repro.perf.simulator import (
    worst_case_performance_ratio,
    worst_case_power_ratio,
)
from repro.runner import ExperimentPlan, Job
from repro.util.stats import confidence_interval_from_moments
from repro.util.tables import format_table
from repro.util.units import HOURS_PER_YEAR
from repro.workloads.spec import WorkloadMix

DEFAULT_MULTIPLIERS = (1.0, 2.0, 4.0)

#: Measured per-fault-type overheads (power ratio, performance ratio)
#: averaged over the 12 mixes at the default simulation scale. Regenerate
#: with :func:`plan_fig7_4_7_5_measured` when the simulator or profiles
#: change — `benchmarks/test_fig7_4_7_5_lifetime.py` runs it.
FALLBACK_OVERHEADS: Dict[FaultType, Tuple[float, float]] = {
    FaultType.LANE: (1.38, 1.02),
    FaultType.DEVICE: (1.16, 1.00),
    FaultType.BANK: (1.02, 1.00),
    FaultType.COLUMN: (1.01, 1.00),
}


@dataclass
class LifetimeOverheadResult:
    """Cumulative-average overheads per year and rate multiplier."""

    years: int
    channels: int
    #: multiplier -> per-year average power overhead (fraction, measured)
    power_overhead: Dict[float, List[float]]
    #: multiplier -> per-year average performance loss (fraction, measured)
    performance_overhead: Dict[float, List[float]]
    #: multiplier -> per-year worst-case power overhead
    worst_case_power: Dict[float, List[float]]
    #: multiplier -> per-year worst-case performance loss
    worst_case_performance: Dict[float, List[float]]
    #: multiplier -> per-year 95% confidence half-width of the measured
    #: power series (None on legacy constructions).
    power_ci: Optional[Dict[float, List[float]]] = None
    #: multiplier -> per-year confidence half-width, measured performance.
    performance_ci: Optional[Dict[float, List[float]]] = None

    def to_table(self) -> str:
        """Render both figures."""
        out = []
        for title, measured, worst, ci in (
            (
                "Figure 7.4: Power overhead of error correction",
                self.power_overhead,
                self.worst_case_power,
                self.power_ci,
            ),
            (
                "Figure 7.5: Performance overhead of error correction",
                self.performance_overhead,
                self.worst_case_performance,
                self.performance_ci,
            ),
        ):
            headers = ["Series"] + [
                f"Year {y}" for y in range(1, self.years + 1)
            ]
            rows = []
            for mult in sorted(measured):
                cells = []
                for year, value in enumerate(measured[mult]):
                    cell = f"{value * 100:.3f}%"
                    if ci is not None:
                        cell += f" ±{ci[mult][year] * 100:.3f}"
                    cells.append(cell)
                rows.append([f"{mult:g}x measured"] + cells)
                rows.append(
                    [f"{mult:g}x worst case"]
                    + [f"{v * 100:.3f}%" for v in worst[mult]]
                )
            out.append(format_table(headers, rows, title=title))
        return "\n\n".join(out)


def _overhead_series(
    histories: Sequence[Sequence[FaultEvent]],
    years: int,
    per_fault: Dict[FaultType, float],
    cap: float,
    steps_per_year: int = 12,
) -> List[float]:
    """Population-average cumulative overhead per year.

    Each channel's instantaneous overhead is the sum of the overheads of
    the faults that have arrived (Section 7.1 step 3 is additive), capped
    at ``cap`` — a channel cannot exceed fully-upgraded behaviour.

    Each channel's steps are accumulated once; year ``y`` reads the
    running sum after its ``y * steps_per_year`` steps, which is the
    very float a fresh accumulation of that prefix gives.
    """
    totals = [0.0] * years
    for events in histories:
        acc = 0.0
        step = 0
        for year in range(years):
            for _ in range(steps_per_year):
                t_hours = (step + 0.5) / steps_per_year * HOURS_PER_YEAR
                overhead = sum(
                    per_fault.get(e.fault_type, 0.0)
                    for e in events
                    if e.time_hours <= t_hours
                )
                acc += min(overhead, cap)
                step += 1
            totals[year] += acc / step
    return [total / len(histories) for total in totals]


def _per_fault_weights(
    overheads: Dict[FaultType, Tuple[float, float]],
) -> Tuple[Dict[FaultType, float], ...]:
    """(power, perf, worst-power, worst-perf) additive weights per fault."""
    return (
        {ft: max(ratio - 1.0, 0.0) for ft, (ratio, _) in overheads.items()},
        {ft: max(1.0 - ratio, 0.0) for ft, (_, ratio) in overheads.items()},
        {
            ft: worst_case_power_ratio(upgraded_page_fraction(ft)) - 1.0
            for ft in TABLE_7_4_TYPES
        },
        {
            ft: 1.0 - worst_case_performance_ratio(upgraded_page_fraction(ft))
            for ft in TABLE_7_4_TYPES
        },
    )


#: (weight-set key, accumulation cap) of the four reported series.
_SERIES_SPECS = (
    ("power", 1.0),
    ("perf", 0.5),
    ("worst_power", 1.0),
    ("worst_perf", 0.5),
)


def _fig74_block_job(
    block_seed: int,
    channels: int,
    years: int,
    rate_multiplier: float,
    overheads: Dict[FaultType, Tuple[float, float]],
) -> Dict[str, Any]:
    """Picklable worker: one block's per-year overhead moments.

    Samples the block once and accumulates all four series over the same
    fault histories (measured and worst-case, power and performance).
    """
    batch = sample_block(
        block_seed, channels, float(years), rate_multiplier=rate_multiplier
    )
    weight_sets = _per_fault_weights(overheads)
    matrices = overhead_series_by_year(
        batch,
        years,
        [(per_fault, cap) for (_, cap), per_fault in zip(_SERIES_SPECS, weight_sets)],
    )
    result: Dict[str, Any] = {"channels": channels}
    for (key, _), matrix in zip(_SERIES_SPECS, matrices):
        result[f"{key}_sum"] = matrix.sum(axis=1)
        result[f"{key}_sumsq"] = np.square(matrix).sum(axis=1)
    return result


def plan_fig7_4_7_5(
    years: int = 7,
    channels: int = 2000,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    overheads: Optional[Dict[FaultType, Tuple[float, float]]] = None,
    seed: int = 0xFA117,
) -> ExperimentPlan:
    """Figures 7.4/7.5 as runner jobs: one per (rate multiplier, block).

    ``overheads`` maps fault type -> (power ratio, perf ratio); ``None``
    uses :data:`FALLBACK_OVERHEADS`. ``channels`` below 1 raises
    ``ValueError``.
    """
    check_channels(channels)
    multipliers = tuple(multipliers)
    overheads = overheads or FALLBACK_OVERHEADS
    blocks = fleet_blocks(seed, channels)
    jobs = [
        Job.create(
            f"fig7.4[{mult:g}x][{index}]",
            _fig74_block_job,
            block_seed=block_seed,
            channels=size,
            years=years,
            rate_multiplier=mult,
            overheads=overheads,
        )
        for mult in multipliers
        for index, (block_seed, size) in enumerate(blocks)
    ]

    def assemble(values: List[Dict[str, Any]]) -> LifetimeOverheadResult:
        series: Dict[str, Dict[float, List[float]]] = {
            key: {} for key, _ in _SERIES_SPECS
        }
        ci: Dict[str, Dict[float, List[float]]] = {"power": {}, "perf": {}}
        per_mult = len(blocks)
        for m, mult in enumerate(multipliers):
            mult_blocks = values[m * per_mult : (m + 1) * per_mult]
            for key, _ in _SERIES_SPECS:
                total = sum(block[f"{key}_sum"] for block in mult_blocks)
                total_sq = sum(block[f"{key}_sumsq"] for block in mult_blocks)
                intervals = [
                    confidence_interval_from_moments(
                        channels, float(total[year]), float(total_sq[year])
                    )
                    for year in range(years)
                ]
                series[key][mult] = [mean for mean, _ in intervals]
                if key in ci:
                    ci[key][mult] = [half for _, half in intervals]
        return LifetimeOverheadResult(
            years=years,
            channels=channels,
            power_overhead=series["power"],
            performance_overhead=series["perf"],
            worst_case_power=series["worst_power"],
            worst_case_performance=series["worst_perf"],
            power_ci=ci["power"],
            performance_ci=ci["perf"],
        )

    return ExperimentPlan(name="fig7.4", jobs=jobs, assemble=assemble)


def plan_fig7_4_7_5_measured(
    years: int = 7,
    channels: int = 2000,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    seed: int = 0xFA117,
    mixes: Optional[Sequence[WorkloadMix]] = None,
    instructions_per_core: int = MEASUREMENT_CONFIG.instructions_per_core,
    measurement_seed: int = MEASUREMENT_CONFIG.seed,
) -> ExperimentPlan:
    """Figures 7.4/7.5 on freshly measured overheads, as one plan.

    Composed the way
    :func:`~repro.fleet.policies.plan_fleet_compare_measured` is: the
    plan's jobs are the Figure 7.2/7.3 ratio grid's (cache-shared with
    the trace figures); assembly averages the ratios per fault type
    across mixes and returns :func:`plan_fig7_4_7_5` with them as the
    follow-up plan, whose blocks are keyed on those averages.

    Examples
    --------
    >>> from repro.workloads.spec import ALL_MIXES
    >>> len(plan_fig7_4_7_5_measured(mixes=ALL_MIXES[:3]).jobs)
    15
    """
    check_channels(channels)
    grid = plan_fig7_2_7_3(
        mixes=mixes,
        instructions_per_core=instructions_per_core,
        seed=measurement_seed,
    )

    def assemble(values: List[Any]) -> ExperimentPlan:
        return plan_fig7_4_7_5(
            years=years,
            channels=channels,
            multipliers=multipliers,
            overheads=grid.assemble(values).overheads(),
            seed=seed,
        )

    return ExperimentPlan(name="fig7.4", jobs=grid.jobs, assemble=assemble)
