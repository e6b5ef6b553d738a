"""Sensitivity studies beyond the paper's figures.

The paper fixes several knobs (4 h scrubs, 4 KB pages, page-granularity
upgrades). These sweeps quantify how ARCC's trade-offs move when they
change — the analyses a deployment would actually run before turning the
feature on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.config import ARCC_MEMORY_CONFIG, MemoryConfig, ScrubConfig
from repro.core.scrubber import scrub_bandwidth_overhead
from repro.faults.models import upgraded_page_fraction
from repro.faults.types import FaultType
from repro.perf.engine import TraceRatios, plan_trace_ratios
from repro.perf.simulator import worst_case_performance_ratio, worst_case_power_ratio
from repro.reliability.analytical import ReliabilityParams, sdc_rate_arcc_ded
from repro.runner.job import ExperimentPlan
from repro.util.fields import FieldError, check_range
from repro.util.tables import format_table
from repro.util.units import GB, KB
from repro.workloads.spec import WorkloadMix

#: Default measured-sweep grid: the Table 7.4 fractions (so those points
#: are shared with the Figure 7.2/7.3 cache) plus midpoints that chart
#: the curve between them.
DEFAULT_MEASURED_FRACTIONS: Tuple[float, ...] = (
    0.0,
    0.03125,
    0.0625,
    0.125,
    0.25,
    0.5,
    1.0,
)


@dataclass
class ScrubIntervalSensitivity:
    """SDC-rate vs scrub-bandwidth trade as the interval moves."""

    #: interval hours -> (ARCC SDC rate per channel-hour, bandwidth frac)
    points: Dict[float, Tuple[float, float]]

    def to_table(self) -> str:
        """Render the sweep."""
        rows = [
            [f"{hours:g}h", f"{sdc:.3e}", f"{bw:.5%}"]
            for hours, (sdc, bw) in sorted(self.points.items())
        ]
        return format_table(
            ["Scrub interval", "ARCC SDC rate", "Scrub bandwidth"],
            rows,
            title="Sensitivity: scrub interval",
        )

    def knee_hours(self) -> float:
        """The longest interval whose bandwidth cost stays under 0.1%.

        Everything below that cost is effectively free, so the knee is
        where one should *stop* shortening the interval for reliability.
        """
        affordable = [
            hours
            for hours, (_, bw) in self.points.items()
            if bw < 0.001
        ]
        if not affordable:
            raise ValueError("no interval meets the bandwidth budget")
        return max(affordable)


def sweep_scrub_interval(
    intervals_hours: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0, 24.0),
    capacity_bytes: int = 4 * GB,
    rate_multiplier: float = 1.0,
) -> ScrubIntervalSensitivity:
    """SDC rate and scrub bandwidth across scrub intervals."""
    points = {}
    for hours in intervals_hours:
        params = ReliabilityParams(
            scrub_interval_hours=hours, rate_multiplier=rate_multiplier
        )
        sdc = sdc_rate_arcc_ded(params)
        bandwidth = scrub_bandwidth_overhead(
            capacity_bytes, ScrubConfig(interval_hours=hours)
        )
        points[hours] = (sdc, bandwidth)
    return ScrubIntervalSensitivity(points=points)


@dataclass
class PageSizeSensitivity:
    """Upgraded-page fractions and upgrade cost across page sizes."""

    #: page bytes -> {fault type: fraction}, plus lines to rewrite/upgrade
    fractions: Dict[int, Dict[FaultType, float]]
    upgrade_lines: Dict[int, int]

    def to_table(self) -> str:
        """Render the sweep."""
        fault_types = (FaultType.BANK, FaultType.COLUMN, FaultType.ROW)
        headers = ["Page size"] + [ft.value for ft in fault_types] + [
            "Lines rewritten per upgrade"
        ]
        rows = []
        for page_bytes in sorted(self.fractions):
            per_type = self.fractions[page_bytes]
            rows.append(
                [f"{page_bytes // KB} KB"]
                + [f"{per_type[ft]:.3g}" for ft in fault_types]
                + [self.upgrade_lines[page_bytes]]
            )
        return format_table(
            headers, rows, title="Sensitivity: page size"
        )


def sweep_page_size(
    page_sizes: Sequence[int] = (2 * KB, 4 * KB, 8 * KB, 16 * KB),
) -> PageSizeSensitivity:
    """How page size moves the Table 7.4 fractions and the upgrade cost.

    Smaller pages confine small faults to less memory (lower steady-state
    power overhead) but do not change the rank-level fractions (device and
    lane faults dominate either way); larger pages make each upgrade
    rewrite more lines.
    """
    fractions: Dict[int, Dict[FaultType, float]] = {}
    upgrade_lines: Dict[int, int] = {}
    base = ARCC_MEMORY_CONFIG
    for page_bytes in page_sizes:
        config = MemoryConfig(
            name=f"ARCC-{page_bytes // KB}K",
            technology=base.technology,
            io_width=base.io_width,
            channels=base.channels,
            ranks_per_channel=base.ranks_per_channel,
            devices_per_rank=base.devices_per_rank,
            data_devices_per_rank=base.data_devices_per_rank,
            page_bytes=page_bytes,
            capacity_per_channel_bytes=base.capacity_per_channel_bytes,
        )
        fractions[page_bytes] = {
            ft: upgraded_page_fraction(ft, config) for ft in FaultType
        }
        # An upgrade reads+writes every (paired) line of the page.
        upgrade_lines[page_bytes] = config.lines_per_page // 2
    return PageSizeSensitivity(
        fractions=fractions, upgrade_lines=upgrade_lines
    )


@dataclass
class UpgradedFractionCurve:
    """Worst-case power/bandwidth response to the upgraded fraction."""

    #: fraction -> (power ratio, performance ratio), worst case
    points: Dict[float, Tuple[float, float]]

    def to_table(self) -> str:
        """Render the curve."""
        rows = [
            [f"{frac:.0%}", f"{power:.3f}", f"{perf:.3f}"]
            for frac, (power, perf) in sorted(self.points.items())
        ]
        return format_table(
            ["Upgraded fraction", "Power ratio", "Perf ratio"],
            rows,
            title="Sensitivity: upgraded fraction (worst case)",
        )

    def crossover_fraction(self, power_budget_ratio: float) -> float:
        """Largest upgraded fraction whose worst-case power stays under
        ``power_budget_ratio`` x fault-free — e.g. 1.37 is the point at
        which ARCC's entire fault-free saving is consumed."""
        eligible = [
            frac
            for frac, (power, _) in self.points.items()
            if power <= power_budget_ratio
        ]
        if not eligible:
            raise ValueError("budget below the fault-free point")
        return max(eligible)


def sweep_upgraded_fraction(
    fractions: Sequence[float] = (0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0),
) -> UpgradedFractionCurve:
    """Worst-case power/performance across upgraded fractions."""
    return UpgradedFractionCurve(
        points={
            frac: (
                worst_case_power_ratio(frac),
                worst_case_performance_ratio(frac),
            )
            for frac in fractions
        }
    )


# -- measured upgraded-fraction response (batched-engine sweep) ----------------


def check_sweep_fractions(
    fractions: Sequence[float], field: str = "fractions"
) -> Tuple[float, ...]:
    """A measured sweep's grid: all finite in [0, 1], with the
    fault-free 0.0 point.

    The one check of a sweep's fractions, for
    :func:`plan_sweep_upgraded_fraction_measured` and
    :class:`~repro.fleet.study.Study`. Raises
    :class:`~repro.util.fields.FieldError` at ``field[i]`` for an
    element, at ``field`` for the missing zero point.
    """
    fractions = tuple(fractions)
    for i, fraction in enumerate(fractions):
        check_range(f"{field}[{i}]", fraction, at_least=0.0, at_most=1.0)
    if 0.0 not in fractions:
        raise FieldError(
            field,
            "needs the fault-free 0.0 point (ratios are normalized to it)",
        )
    return fractions


@dataclass
class MeasuredFractionSweep(TraceRatios):
    """Simulated power/performance response to the upgraded fraction.

    Where :class:`UpgradedFractionCurve` charts the closed-form worst
    case, this is the *measured* curve: every (mix, fraction) point is
    a full trace simulation on the batched engine, normalized to the
    mix's fault-free run. The spread between the two is the paper's
    locality argument — real workloads reuse the second sub-line, so
    measured overheads sit well under ``1 + fraction``.
    """

    fractions: Tuple[float, ...]

    def to_table(self) -> str:
        """Render the measured curve next to the worst case."""
        headers = ["Fraction", "Power (avg)", "Power (worst)", "Perf (avg)", "Perf (worst)"]
        rows = [
            [
                f"{fraction:.5g}",
                f"{self.average_power_ratio(fraction):.3f}",
                f"{worst_case_power_ratio(fraction):.3f}",
                f"{self.average_performance_ratio(fraction):.3f}",
                f"{worst_case_performance_ratio(fraction):.3f}",
            ]
            for fraction in self.fractions
        ]
        return format_table(
            headers,
            rows,
            title="Sensitivity: upgraded fraction (measured vs worst case)",
        )


def plan_sweep_upgraded_fraction_measured(
    mixes: Optional[Sequence[WorkloadMix]] = None,
    fractions: Sequence[float] = DEFAULT_MEASURED_FRACTIONS,
    instructions_per_core: int = 40_000,
    seed: int = 0x7ACE,
    config: MemoryConfig = ARCC_MEMORY_CONFIG,
) -> ExperimentPlan:
    """The measured fraction sweep as runner jobs: one per (mix, point).

    A :func:`~repro.perf.engine.plan_trace_ratios` grid: all of a mix's
    points replay the same trace, and the fractions shared with Table
    7.4 (and the fault-free zero point) are the *same cached jobs* as
    Figures 7.1/7.2/7.3's. ``config`` selects the memory organization
    under test.

    Examples
    --------
    >>> len(plan_sweep_upgraded_fraction_measured().jobs)  # 12 mixes x 7
    84
    """
    fractions = check_sweep_fractions(fractions)
    return fraction_sweep_plan(
        mixes, fractions, instructions_per_core, seed, config
    )


def fraction_sweep_plan(
    mixes: Optional[Sequence[WorkloadMix]],
    fractions: Tuple[float, ...],
    instructions_per_core: int,
    seed: int,
    config: MemoryConfig,
) -> ExperimentPlan:
    """:func:`plan_sweep_upgraded_fraction_measured` on fractions that
    :func:`check_sweep_fractions` has passed — a study's, checked once
    when the :class:`~repro.fleet.study.Study` is built."""
    grid = plan_trace_ratios(
        f"sensitivity[{config.name}]",
        mixes,
        fractions,
        config,
        instructions_per_core,
        seed,
    )
    return ExperimentPlan(
        name="sensitivity",
        jobs=grid.jobs,
        assemble=lambda values: MeasuredFractionSweep(
            ratios=grid.assemble(values), fractions=fractions
        ),
    )
