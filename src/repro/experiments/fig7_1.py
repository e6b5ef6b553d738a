"""Figure 7.1 — fault-free power and performance: ARCC vs baseline.

Runs every Table 7.3 mix on both Table 7.1 organizations. The paper's
headline: 36.7% average DRAM power reduction and 5.9% average performance
improvement (from the doubled rank-level parallelism), with power savings
uniform across mixes and performance gains workload-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.config import ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG
from repro.perf.engine import point_jobs
from repro.perf.trace import check_instructions_per_core
from repro.runner import ExperimentPlan
from repro.util.tables import format_table
from repro.workloads.spec import ALL_MIXES, WorkloadMix


@dataclass
class Fig71Row:
    """One mix's comparison."""

    mix_name: str
    baseline_power_w: float
    arcc_power_w: float
    baseline_performance: float
    arcc_performance: float

    @property
    def power_saving(self) -> float:
        """Fractional power reduction of ARCC."""
        return 1.0 - self.arcc_power_w / self.baseline_power_w

    @property
    def performance_gain(self) -> float:
        """Fractional IPC-sum improvement of ARCC."""
        return self.arcc_performance / self.baseline_performance - 1.0


@dataclass
class Fig71Result:
    """All mixes plus the paper's two averages."""

    rows: List[Fig71Row]

    @property
    def average_power_saving(self) -> float:
        """Mean power reduction (paper: 36.7%)."""
        return sum(r.power_saving for r in self.rows) / len(self.rows)

    @property
    def average_performance_gain(self) -> float:
        """Mean performance improvement (paper: 5.9%)."""
        return sum(r.performance_gain for r in self.rows) / len(self.rows)

    def to_table(self) -> str:
        """Render the per-mix bars plus averages."""
        rows = [
            [
                r.mix_name,
                f"{r.baseline_power_w:.2f}",
                f"{r.arcc_power_w:.2f}",
                f"{r.power_saving:.1%}",
                f"{r.performance_gain:+.1%}",
            ]
            for r in self.rows
        ]
        rows.append(
            [
                "Average",
                "",
                "",
                f"{self.average_power_saving:.1%}",
                f"{self.average_performance_gain:+.1%}",
            ]
        )
        return format_table(
            ["Mix", "Base W", "ARCC W", "Power saving", "Perf gain"],
            rows,
            title="Figure 7.1: Power and Performance Improvements",
        )


def plan_fig7_1(
    mixes: Optional[Sequence[WorkloadMix]] = None,
    instructions_per_core: int = 40_000,
    seed: int = 0x7ACE,
) -> ExperimentPlan:
    """Figure 7.1 as runner jobs: one per (mix, organization) point.

    Both points of a mix run on the batched engine against one
    memoized trace; the ARCC point is the same cached simulation as the
    Figure 7.2/7.3 fault-free baseline and the sensitivity sweep's zero
    point (the runner dedups identical jobs within a batch and the
    result cache shares them across figures).
    """
    check_instructions_per_core(instructions_per_core)
    mixes = list(mixes) if mixes is not None else list(ALL_MIXES)
    jobs = point_jobs(
        "fig7.1",
        mixes,
        [
            (config.name, config, 0.0)
            for config in (BASELINE_MEMORY_CONFIG, ARCC_MEMORY_CONFIG)
        ],
        instructions_per_core,
        seed,
    )

    def assemble(values: List[dict]) -> Fig71Result:
        rows = []
        for index, mix in enumerate(mixes):
            baseline, arcc = values[2 * index], values[2 * index + 1]
            rows.append(
                Fig71Row(
                    mix_name=mix.name,
                    baseline_power_w=baseline["power_w"],
                    arcc_power_w=arcc["power_w"],
                    baseline_performance=baseline["performance"],
                    arcc_performance=arcc["performance"],
                )
            )
        return Fig71Result(rows=rows)

    return ExperimentPlan(name="fig7.1", jobs=jobs, assemble=assemble)
