"""Figure 6.1 — SDCs per 1000 machine-years: SCCDCD vs SCCDCD+ARCC.

Analytical model (the paper's primary source) with an optional Monte-Carlo
cross-check; both live in :mod:`repro.reliability`. The claim being
reproduced: ARCC's reduced double-error detection adds an *insignificant*
number of SDCs relative to always-on double detection, across lifespans
and fault-rate multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.reliability.analytical import (
    PairTableMemo,
    ReliabilityParams,
    sdc_events_per_1000_machine_years,
)
from repro.reliability.montecarlo import plan_montecarlo
from repro.runner import ExperimentPlan
from repro.util.stats import binomial_confidence_interval
from repro.util.tables import format_table

DEFAULT_LIFESPANS = (3, 5, 7)
DEFAULT_MULTIPLIERS = (1.0, 2.0, 4.0)


@dataclass
class Fig61Result:
    """SDC counts per (lifespan, multiplier) cell."""

    #: (lifespan, multiplier) -> (sccdcd, arcc) SDCs / 1000 machine-years
    cells: Dict[Tuple[int, float], Tuple[float, float]]
    monte_carlo: Optional[Dict[float, Tuple[float, float]]] = None
    #: multiplier -> (sccdcd, arcc) 95% confidence half-widths of the
    #: Monte-Carlo rates (binomial normal approximation over channels).
    monte_carlo_ci: Optional[Dict[float, Tuple[float, float]]] = None

    def to_table(self) -> str:
        """Render the figure's bar groups as rows."""
        rows = []
        for (years, mult), (sccdcd, arcc) in sorted(self.cells.items()):
            rows.append(
                [
                    f"{years}y",
                    f"{mult:g}x",
                    f"{sccdcd:.3e}",
                    f"{arcc:.3e}",
                ]
            )
        table = format_table(
            ["Lifespan", "Rate", "SCCDCD DED", "ARCC DED"],
            rows,
            title="Figure 6.1: SDCs per 1000 machine-years",
        )
        if self.monte_carlo:
            mc_rows = []
            for mult, (s, a) in sorted(self.monte_carlo.items()):
                s_cell, a_cell = f"{s:.3e}", f"{a:.3e}"
                if self.monte_carlo_ci and mult in self.monte_carlo_ci:
                    s_half, a_half = self.monte_carlo_ci[mult]
                    s_cell += f" ±{s_half:.1e}"
                    a_cell += f" ±{a_half:.1e}"
                mc_rows.append([f"{mult:g}x", s_cell, a_cell])
            table += "\n" + format_table(
                ["Rate", "SCCDCD (MC)", "ARCC (MC)"],
                mc_rows,
                title="Monte-Carlo cross-check (95% CI)",
            )
        return table

    def arcc_increase(self, years: int, multiplier: float) -> float:
        """Absolute SDC increase of ARCC over SCCDCD for one cell."""
        sccdcd, arcc = self.cells[(years, multiplier)]
        return arcc - sccdcd


def plan_fig6_1(
    lifespans: Sequence[int] = DEFAULT_LIFESPANS,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    monte_carlo_channels: int = 0,
    monte_carlo_years: float = 7.0,
    seed: int = 0x5DC,
) -> ExperimentPlan:
    """Figure 6.1 as runner jobs.

    The analytical cells are closed-form and assemble inline. The
    Monte-Carlo cross-check (off at ``monte_carlo_channels=0``) is a
    :func:`~repro.reliability.montecarlo.plan_montecarlo` plan whose
    block jobs become this plan's jobs, so a pool interleaves them with
    other figures' work; a negative channel count or a non-positive
    ``monte_carlo_years`` raises ``ValueError`` here.
    """
    lifespans = tuple(lifespans)
    multipliers = tuple(multipliers)
    mc_mult = max(multipliers)
    mc_plan = None
    if monte_carlo_channels:
        mc_plan = plan_montecarlo(
            ReliabilityParams(rate_multiplier=mc_mult),
            monte_carlo_channels,
            monte_carlo_years,
            seed=seed,
        )

    def assemble(values: List[Any]) -> Fig61Result:
        cells = {}
        tables: PairTableMemo = {}
        for years in lifespans:
            for mult in multipliers:
                params = ReliabilityParams(rate_multiplier=mult)
                cells[(years, mult)] = sdc_events_per_1000_machine_years(
                    years, params, tables
                )
        if mc_plan is None:
            return Fig61Result(cells=cells)
        outcome = mc_plan.assemble(values)
        # Each channel either fails or not: the rate CI is the
        # binomial proportion CI scaled to the per-1000-machine-year
        # unit (x 1000 / years).
        scale = 1000.0 / monte_carlo_years
        return Fig61Result(
            cells=cells,
            monte_carlo={
                mc_mult: (
                    outcome.per_1000_machine_years(outcome.sdc_machines_sccdcd),
                    outcome.per_1000_machine_years(outcome.sdc_machines_arcc),
                )
            },
            monte_carlo_ci={
                mc_mult: tuple(
                    binomial_confidence_interval(count, monte_carlo_channels)[1]
                    * scale
                    for count in (
                        outcome.sdc_machines_sccdcd,
                        outcome.sdc_machines_arcc,
                    )
                )
            },
        )

    return ExperimentPlan(
        name="fig6.1",
        jobs=mc_plan.jobs if mc_plan else [],
        assemble=assemble,
    )
