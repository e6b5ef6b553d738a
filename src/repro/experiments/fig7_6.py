"""Figure 7.6 — ARCC applied to LOT-ECC (Section 7.2.1).

Worst-case application scenario: every access a read, no spatial locality,
so an upgraded (18-device) access costs 4x a relaxed (nine-device) one.
The paper's numbers: ~1.6% average overhead over 7 years at 1x field
rates, no more than ~6.3% at 4x — the price of a ~17x DUE-rate reduction
from gaining double chip sparing.

Each fault upgrades its Table 7.4 page fraction, so the instantaneous
overhead is ``(factor - 1) * fraction_upgraded(t)``; year ``y``
averages it over the mid-step times of the first ``y`` years. Each
rate multiplier is one population, sampled from FIT rates scaled by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.ecc.lotecc import WORST_CASE_UPGRADE_FACTOR
from repro.fleet.engine import FractionMoments
from repro.fleet.report import BlockAnswers, population_plan, rate_populations
from repro.reliability.analytical import ReliabilityParams
from repro.reliability.due import due_reduction_factor
from repro.runner.job import ExperimentPlan, gather
from repro.util.stats import Moments
from repro.util.tables import format_table
from repro.util.units import HOURS_PER_YEAR

DEFAULT_MULTIPLIERS = (1.0, 2.0, 4.0)

#: Mid-step sample times per year.
STEPS_PER_YEAR = 12


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
    """Figure 7.6 as runner jobs: one per (rate multiplier, block),
    each reporting faulty-fraction moments at every mid-step time.

    A ``channels`` below 1 or an empty ``multipliers`` raises
    :class:`~repro.util.fields.FieldError`.
    """
    multipliers = tuple(multipliers)
    steps = np.arange(years * STEPS_PER_YEAR)
    hours = (steps + 0.5) / STEPS_PER_YEAR * HOURS_PER_YEAR
    reductions = (FractionMoments(tuple(hours.tolist())),)
    plans = [
        population_plan(f"fig7.6[{pop.name}]", pop, seed, reductions)
        for pop in rate_populations(channels, years, multipliers, scale_rates=True)
    ]

    def assemble(answered: List[BlockAnswers]) -> Fig76Result:
        overhead: Dict[float, List[float]] = {}
        for mult, blocks in zip(multipliers, answered):
            moments = [Moments() for _ in steps]
            for n, ((totals, squares),) in blocks:
                for step_moments, total, total_sq in zip(moments, totals, squares):
                    step_moments.add(n, total, total_sq)
            per_step = np.array([step_moments.interval()[0] for step_moments in moments])
            running = np.cumsum(per_step) / (steps + 1)
            year_ends = running[STEPS_PER_YEAR - 1 :: STEPS_PER_YEAR]
            overhead[mult] = ((WORST_CASE_UPGRADE_FACTOR - 1.0) * year_ends).tolist()
        return Fig76Result(
            years=years,
            channels=channels,
            overhead=overhead,
            due_reduction=due_reduction_factor(ReliabilityParams()),
        )

    batch = gather(plans, assemble)
    return ExperimentPlan(name="fig7.6", jobs=batch.jobs, assemble=batch.assemble)
