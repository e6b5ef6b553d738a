"""Figures 7.2 and 7.3 — power and performance with a single fault.

For each Table 7.4 fault type, the corresponding fraction of pages is set
to upgraded mode and every mix re-runs; results are normalized to the
fault-free run. The shapes being reproduced:

* power (7.2): lane > device > bank > column, each below the worst-case
  estimate ``1 + fraction``;
* performance (7.3): high-spatial-locality mixes *improve* (the paired
  fetch acts as a prefetch), low-locality mixes degrade, bounded by the
  worst case ``1 / (1 + fraction)``.

The plan is a :func:`~repro.perf.engine.plan_trace_ratios` grid over the
fault types' fractions. Section 7.1 feeds its per-fault-type averages
into Figures 7.4/7.5
(:func:`~repro.experiments.fig7_4_7_5.plan_fig7_4_7_5_measured`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.config import ARCC_MEMORY_CONFIG
from repro.faults.models import TABLE_7_4_TYPES, upgraded_page_fraction
from repro.faults.types import FaultType
from repro.perf.engine import TraceRatios, plan_trace_ratios
from repro.perf.simulator import (
    worst_case_performance_ratio,
    worst_case_power_ratio,
)
from repro.runner.job import ExperimentPlan
from repro.util.tables import format_table
from repro.workloads.spec import WorkloadMix


@dataclass
class FaultOverheadResult(TraceRatios):
    """Normalized power/performance per (mix, fault type's fraction).

    ``ratios`` is keyed by each fault type's Table 7.4 fraction on the
    ARCC organization.
    """

    fault_types: Tuple[FaultType, ...] = TABLE_7_4_TYPES

    def overheads(self) -> Dict[FaultType, Tuple[float, float]]:
        """Mean (power, performance) ratio per fault type across mixes:
        the ``overheads=`` input of Figures 7.4/7.5."""
        return {
            ft: (
                self.average_power_ratio(upgraded_page_fraction(ft)),
                self.average_performance_ratio(upgraded_page_fraction(ft)),
            )
            for ft in self.fault_types
        }

    def to_table(self) -> str:
        """Render both figures as one table per metric."""
        fractions = [upgraded_page_fraction(ft) for ft in self.fault_types]
        out = []
        for title, metric, worst in (
            (
                "Figure 7.2: Power with fault (normalized)",
                0,
                worst_case_power_ratio,
            ),
            (
                "Figure 7.3: Performance with fault (normalized)",
                1,
                worst_case_performance_ratio,
            ),
        ):
            headers = ["Mix"] + [ft.value for ft in self.fault_types]
            rows = []
            for mix in self.mixes():
                rows.append(
                    [mix]
                    + [
                        f"{self.ratios[(mix, fraction)][metric]:.3f}"
                        for fraction in fractions
                    ]
                )
            rows.append(
                ["worst case est."]
                + [f"{worst(fraction):.3f}" for fraction in fractions]
            )
            out.append(format_table(headers, rows, title=title))
        return "\n\n".join(out)


def plan_fig7_2_7_3(
    mixes: Optional[Sequence[WorkloadMix]] = None,
    fault_types: Sequence[FaultType] = TABLE_7_4_TYPES,
    instructions_per_core: int = 40_000,
    seed: int = 0x7ACE,
) -> ExperimentPlan:
    """Figures 7.2/7.3 as runner jobs: one per (mix, sweep point).

    Each mix contributes its fault-free baseline job plus one job per
    fault type. The baseline is one cache entry shared with Figure
    7.1's ARCC point and the sensitivity sweep's zero point; the
    normalization happens at assembly.

    Examples
    --------
    >>> len(plan_fig7_2_7_3().jobs)      # 12 mixes x (1 + 4 fault types)
    60
    """
    fault_types = tuple(fault_types)
    grid = plan_trace_ratios(
        "fig7.2",
        mixes,
        [upgraded_page_fraction(ft) for ft in fault_types],
        ARCC_MEMORY_CONFIG,
        instructions_per_core,
        seed,
    )
    return ExperimentPlan(
        name="fig7.2",
        jobs=grid.jobs,
        assemble=lambda values: FaultOverheadResult(
            ratios=grid.assemble(values), fault_types=fault_types
        ),
    )
