"""Figure 3.1 — fraction of faulty 4 KB pages vs operational lifespan.

A channel of two 36-device ranks accumulates field-study faults over 1-7
years; each fault marks its Table-7.4 page footprint faulty. The paper's
point: even at 4x the measured fault rates, only a few percent of pages
are ever affected — the headroom ARCC exploits.

Sampling runs on the vectorized :mod:`repro.fleet` engine: each rate
multiplier is one population
(:func:`~repro.fleet.report.rate_populations`), planned as one
:func:`~repro.fleet.engine.block_job` per channel block, each asking
for the per-channel fraction matrix of its block at the year ends (the
two-pass interval needs every sample), so 10^5-channel populations
fan out across a pool and every reported mean carries a Monte-Carlo
confidence interval. The block partition owns the RNG streams — ``jobs=1`` and
``jobs=N`` produce bit-identical series. :func:`plan_fig3_1` is the one
Figure 3.1 path; ``execute_plan(plan_fig3_1(...))`` runs it inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.fleet.engine import FractionMatrix
from repro.fleet.report import BlockAnswers, population_plan, rate_populations
from repro.runner.job import ExperimentPlan, gather
from repro.util.stats import confidence_interval
from repro.util.tables import format_table
from repro.util.units import HOURS_PER_YEAR

DEFAULT_MULTIPLIERS = (1.0, 2.0, 4.0)


@dataclass
class Fig31Result:
    """Per-multiplier time series of faulty-page fractions."""

    years: int
    channels: int
    series: Dict[float, List[float]]  # multiplier -> fraction per year
    #: multiplier -> per-year 95% confidence half-width.
    ci: Dict[float, List[float]]

    def to_table(self) -> str:
        """Render the figure's series as rows."""
        headers = ["Rate"] + [f"Year {y}" for y in range(1, self.years + 1)]
        rows = []
        for mult in sorted(self.series):
            cells = [
                f"{value * 100:.3f}% ±{half * 100:.3f}"
                for value, half in zip(self.series[mult], self.ci[mult])
            ]
            rows.append([f"{mult:g}x"] + cells)
        return format_table(
            headers,
            rows,
            title=(
                "Figure 3.1: Faulty Memory vs Time "
                f"({self.channels} Monte-Carlo channels, 95% CI)"
            ),
        )

    def final_fraction(self, multiplier: float) -> float:
        """Faulty fraction at the end of the simulated lifespan."""
        return self.series[multiplier][-1]


def plan_fig3_1(
    years: int = 7,
    channels: int = 2000,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    seed: int = 0xFA117,
) -> ExperimentPlan:
    """Figure 3.1 as runner jobs: one per (rate multiplier, block).

    Every multiplier samples the same block partition (common random
    numbers across the 1x/2x/4x sweep), and each block's stream derives
    only from ``seed`` and the block index. A ``channels`` below 1 or an
    empty ``multipliers`` raises :class:`~repro.util.fields.FieldError`.
    """
    multipliers = tuple(multipliers)
    reductions = (
        FractionMatrix(tuple(year * HOURS_PER_YEAR for year in range(1, years + 1))),
    )
    plans = [
        population_plan(f"fig3.1[{pop.name}]", pop, seed, reductions)
        for pop in rate_populations(channels, years, multipliers)
    ]

    def assemble(answered: List[BlockAnswers]) -> Fig31Result:
        series: Dict[float, List[float]] = {}
        ci: Dict[float, List[float]] = {}
        for mult, blocks in zip(multipliers, answered):
            matrix = np.concatenate([answers[0] for _, answers in blocks], axis=1)
            intervals = [confidence_interval(row) for row in matrix]
            series[mult] = [mean for mean, _ in intervals]
            ci[mult] = [half for _, half in intervals]
        return Fig31Result(
            years=years, channels=channels, series=series, ci=ci
        )

    batch = gather(plans, assemble)
    return ExperimentPlan(name="fig3.1", jobs=batch.jobs, assemble=batch.assemble)
