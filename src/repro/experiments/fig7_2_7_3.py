"""Figures 7.2 and 7.3 — power and performance with a single fault.

For each Table 7.4 fault type, the corresponding fraction of pages is set
to upgraded mode and every mix re-runs; results are normalized to the
fault-free run. The shapes being reproduced:

* power (7.2): lane > device > bank > column, each below the worst-case
  estimate ``1 + fraction``;
* performance (7.3): high-spatial-locality mixes *improve* (the paired
  fetch acts as a prefetch), low-locality mixes degrade, bounded by the
  worst case ``1 / (1 + fraction)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import ARCC_MEMORY_CONFIG
from repro.faults.models import TABLE_7_4_TYPES, upgraded_page_fraction
from repro.faults.types import FaultType
from repro.perf.engine import point_job
from repro.perf.simulator import (
    worst_case_performance_ratio,
    worst_case_power_ratio,
)
from repro.perf.trace import check_instructions_per_core
from repro.runner import ExperimentPlan
from repro.util.tables import format_table
from repro.workloads.spec import ALL_MIXES, WorkloadMix


@dataclass
class FaultOverheadResult:
    """Normalized power/performance per (mix, fault type)."""

    #: (mix, fault type) -> power ratio (faulty / fault-free)
    power_ratio: Dict[Tuple[str, FaultType], float]
    #: (mix, fault type) -> performance ratio
    performance_ratio: Dict[Tuple[str, FaultType], float]
    fault_types: Tuple[FaultType, ...] = TABLE_7_4_TYPES

    def mixes(self) -> List[str]:
        """Mix names present, in run order."""
        seen: List[str] = []
        for mix_name, _ in self.power_ratio:
            if mix_name not in seen:
                seen.append(mix_name)
        return seen

    def average_power_ratio(self, fault_type: FaultType) -> float:
        """Mean power ratio of one fault type across mixes."""
        values = [
            v
            for (mix, ft), v in self.power_ratio.items()
            if ft == fault_type
        ]
        return sum(values) / len(values)

    def average_performance_ratio(self, fault_type: FaultType) -> float:
        """Mean performance ratio of one fault type across mixes."""
        values = [
            v
            for (mix, ft), v in self.performance_ratio.items()
            if ft == fault_type
        ]
        return sum(values) / len(values)

    def to_table(self) -> str:
        """Render both figures as one table per metric."""
        out = []
        for title, ratios, worst in (
            (
                "Figure 7.2: Power with fault (normalized)",
                self.power_ratio,
                worst_case_power_ratio,
            ),
            (
                "Figure 7.3: Performance with fault (normalized)",
                self.performance_ratio,
                worst_case_performance_ratio,
            ),
        ):
            headers = ["Mix"] + [ft.value for ft in self.fault_types]
            rows = []
            for mix in self.mixes():
                rows.append(
                    [mix]
                    + [
                        f"{ratios[(mix, ft)]:.3f}"
                        for ft in self.fault_types
                    ]
                )
            rows.append(
                ["worst case est."]
                + [
                    f"{worst(upgraded_page_fraction(ft)):.3f}"
                    for ft in self.fault_types
                ]
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

    Each mix contributes one shared fault-free *baseline job* plus one
    job per fault type, all on the batched engine against one memoized
    trace. The baseline used to be recomputed inside every mix job —
    hoisted out, the result cache stores it once per mix (and shares it
    with Figure 7.1's ARCC point and the sensitivity sweep), and the
    normalization happens at assembly.
    """
    check_instructions_per_core(instructions_per_core)
    mixes = list(mixes) if mixes is not None else list(ALL_MIXES)
    fault_types = tuple(fault_types)
    jobs = []
    for mix in mixes:
        jobs.append(
            point_job(
                f"fig7.2[{mix.name}][fault-free]",
                mix=mix,
                config=ARCC_MEMORY_CONFIG,
                upgraded_fraction=0.0,
                instructions_per_core=instructions_per_core,
                seed=seed,
            )
        )
        for fault_type in fault_types:
            jobs.append(
                point_job(
                    f"fig7.2[{mix.name}][{fault_type.value}]",
                    mix=mix,
                    config=ARCC_MEMORY_CONFIG,
                    upgraded_fraction=upgraded_page_fraction(fault_type),
                    instructions_per_core=instructions_per_core,
                    seed=seed,
                )
            )

    def assemble(values: List[dict]) -> FaultOverheadResult:
        power: Dict[Tuple[str, FaultType], float] = {}
        perf: Dict[Tuple[str, FaultType], float] = {}
        stride = 1 + len(fault_types)
        for index, mix in enumerate(mixes):
            fault_free = values[index * stride]
            for offset, fault_type in enumerate(fault_types, start=1):
                faulty = values[index * stride + offset]
                power[(mix.name, fault_type)] = (
                    faulty["power_w"] / fault_free["power_w"]
                )
                perf[(mix.name, fault_type)] = (
                    faulty["performance"] / fault_free["performance"]
                )
        return FaultOverheadResult(
            power_ratio=power,
            performance_ratio=perf,
            fault_types=fault_types,
        )

    return ExperimentPlan(name="fig7.2", jobs=jobs, assemble=assemble)
