"""Figure 7.6 — ARCC applied to LOT-ECC (Section 7.2.1).

Worst-case application scenario: every access a read, no spatial locality,
so an upgraded (18-device) access costs 4x a relaxed (nine-device) one.
The paper's numbers: ~1.6% average overhead over 7 years at 1x field
rates, no more than ~6.3% at 4x — the price of a ~17x DUE-rate reduction
from gaining double chip sparing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.lotecc_arcc import lotecc_lifetime_overhead
from repro.fleet.engine import check_channels
from repro.reliability.analytical import ReliabilityParams
from repro.reliability.due import due_reduction_factor
from repro.runner import ExperimentPlan, Job
from repro.util.tables import format_table

DEFAULT_MULTIPLIERS = (1.0, 2.0, 4.0)


@dataclass
class Fig76Result:
    """Worst-case overhead series plus the DUE payoff."""

    years: int
    channels: int
    #: multiplier -> cumulative-average overhead per year (fraction)
    overhead: Dict[float, List[float]]
    due_reduction: float

    def to_table(self) -> str:
        """Render the figure plus the DUE-reduction payoff line."""
        headers = ["Rate"] + [f"Year {y}" for y in range(1, self.years + 1)]
        rows = [
            [f"{mult:g}x"] + [f"{v * 100:.2f}%" for v in self.overhead[mult]]
            for mult in sorted(self.overhead)
        ]
        table = format_table(
            headers,
            rows,
            title=(
                "Figure 7.6: ARCC+LOT-ECC worst-case overhead "
                "(power increase == performance decrease)"
            ),
        )
        return (
            table
            + f"\nDUE-rate reduction from double chip sparing: "
            f"{self.due_reduction:.0f}x (paper cites 17x)"
        )

    def average_overhead(self, multiplier: float) -> float:
        """The figure's headline: lifetime-average overhead at year 7."""
        return self.overhead[multiplier][-1]


def plan_fig7_6(
    years: int = 7,
    channels: int = 2000,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    seed: int = 0x107ECC,
) -> ExperimentPlan:
    """Figure 7.6 as runner jobs: one job per rate multiplier.

    ``channels`` below 1 raises ``ValueError``.
    """
    check_channels(channels)
    multipliers = tuple(multipliers)
    jobs = [
        Job.create(
            f"fig7.6[{mult:g}x]",
            lotecc_lifetime_overhead,
            years=years,
            channels=channels,
            rate_multiplier=mult,
            seed=seed,
        )
        for mult in multipliers
    ]

    def assemble(values: List[List[float]]) -> Fig76Result:
        return Fig76Result(
            years=years,
            channels=channels,
            overhead=dict(zip(multipliers, values)),
            due_reduction=due_reduction_factor(ReliabilityParams()),
        )

    return ExperimentPlan(name="fig7.6", jobs=jobs, assemble=assemble)
