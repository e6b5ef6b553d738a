"""Registry of reproducible artifacts for ``repro run``.

Maps figure keys to plan builders with two calibrated scales: the
paper's default sample sizes and a ``--quick`` variant for smoke runs.
``repro run`` imports it only when it runs: this module pulls in every
experiment module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.fig3_1 import plan_fig3_1
from repro.experiments.fig6_1 import plan_fig6_1
from repro.experiments.fig7_1 import plan_fig7_1
from repro.experiments.fig7_2_7_3 import plan_fig7_2_7_3
from repro.experiments.fig7_4_7_5 import plan_fig7_4_7_5
from repro.experiments.fig7_6 import plan_fig7_6
from repro.experiments.sensitivity import plan_sweep_upgraded_fraction_measured
from repro.experiments.tables import (
    render_table_7_1,
    render_table_7_2,
    render_table_7_3,
    render_table_7_4,
)
from repro.fleet.policies import plan_fleet_compare, plan_fleet_compare_measured
from repro.fleet.report import plan_fleet
from repro.fleet.study import plan_study
from repro.fuzz.campaign import plan_campaign
from repro.runner.job import ExperimentPlan
from repro.util.suggest import unknown_key_message
from repro.workloads.spec import ALL_MIXES


def _render_tables(values: List[Any]) -> str:
    return "\n\n".join(
        render()
        for render in (
            render_table_7_1,
            render_table_7_2,
            render_table_7_3,
            render_table_7_4,
        )
    )


def plan_tables() -> ExperimentPlan:
    """Tables 7.1-7.4 (no jobs — rendering is instantaneous)."""
    return ExperimentPlan(name="tables", jobs=[], assemble=_render_tables)


@dataclass(frozen=True)
class FigureSpec:
    """One reproducible artifact: its plan builder and its two scales."""

    key: str
    title: str
    builder: Callable[..., ExperimentPlan]
    defaults: Dict[str, Any] = field(default_factory=dict)
    quick: Dict[str, Any] = field(default_factory=dict)

    def plan(self, quick: bool = False, **overrides: Any) -> ExperimentPlan:
        """Build the plan at the requested scale."""
        kwargs = dict(self.quick if quick else self.defaults)
        kwargs.update(overrides)
        return self.builder(**kwargs)


#: Every artifact ``repro run`` knows how to reproduce, in print order.
FIGURES: Dict[str, FigureSpec] = {
    spec.key: spec
    for spec in (
        FigureSpec("tables", "Tables 7.1-7.4", plan_tables),
        FigureSpec(
            "fig3.1",
            "Figure 3.1: faulty memory vs time",
            plan_fig3_1,
            defaults={"channels": 2000},
            quick={"channels": 500},
        ),
        FigureSpec(
            "fig6.1",
            "Figure 6.1: SDC rates",
            plan_fig6_1,
            # The vectorized Monte-Carlo engine affords paper-grade
            # populations; 20k channels tighten the cross-check CIs.
            defaults={"monte_carlo_channels": 20_000},
            quick={"monte_carlo_channels": 0},
        ),
        # The three trace-simulation sweeps below run at 2M
        # instructions per core x all 12 mixes, afforded by the
        # compiled replay kernel (repro.perf._kernel; compiler-less
        # hosts fall back to the reference TraceSimulator, where full
        # scale is ~9 min single-core).
        # Each (mix, point) is its own job, so `repro run --jobs N`
        # shards a mix's sweep points across workers; identical points
        # dedup across figures: the fault-free ARCC point is one
        # simulation shared by all three.
        FigureSpec(
            "fig7.1",
            "Figure 7.1: fault-free power/performance",
            plan_fig7_1,
            defaults={"instructions_per_core": 2_000_000},
            quick={
                "mixes": ALL_MIXES[:4],
                "instructions_per_core": 20_000,
            },
        ),
        FigureSpec(
            "fig7.2",
            "Figures 7.2/7.3: power/performance with faults",
            plan_fig7_2_7_3,
            defaults={"instructions_per_core": 2_000_000},
            quick={
                "mixes": ALL_MIXES[:3],
                "instructions_per_core": 20_000,
            },
        ),
        FigureSpec(
            "sensitivity",
            "Sensitivity: measured upgraded-fraction sweep",
            plan_sweep_upgraded_fraction_measured,
            defaults={"instructions_per_core": 2_000_000},
            quick={
                "mixes": ALL_MIXES[:3],
                "fractions": (0.0, 0.0625, 0.5, 1.0),
                "instructions_per_core": 20_000,
            },
        ),
        FigureSpec(
            "fig7.4",
            "Figures 7.4/7.5: lifetime overheads",
            plan_fig7_4_7_5,
            defaults={"channels": 2000},
            quick={"channels": 500},
        ),
        FigureSpec(
            "fig7.6",
            "Figure 7.6: ARCC+LOT-ECC",
            plan_fig7_6,
            defaults={"channels": 2000},
            quick={"channels": 500},
        ),
        FigureSpec(
            "fleet",
            "Fleet scenario: heterogeneous lifetime populations",
            plan_fleet,
            defaults={"scenario": "mixed-generations", "channels": 100_000},
            quick={"scenario": "mixed-generations", "channels": 4_000},
        ),
        FigureSpec(
            "fleet-compare",
            "Fleet policy comparison: ARCC vs SCCDCD vs LOT-ECC",
            plan_fleet_compare,
            defaults={"scenario": "mixed-generations", "channels": 100_000},
            quick={"scenario": "mixed-generations", "channels": 4_000},
        ),
        # The plan's jobs are the trace-measurement points (shared with
        # fig7.1/fig7.2/sensitivity through the cache); its assembly
        # returns the comparison blocks, priced with the measured
        # weights, as a follow-up plan that runs through the same cache.
        FigureSpec(
            "fleet-compare-measured",
            "Fleet policy comparison with measured per-fault weights",
            plan_fleet_compare_measured,
            defaults={
                "scenario": "mixed-generations",
                "channels": 20_000,
                "instructions_per_core": 40_000,
            },
            quick={
                "scenario": "mixed-generations",
                "channels": 2_000,
                "instructions_per_core": 10_000,
            },
        ),
        # The example study campaign (docs/scenario-files.md): a
        # declarative grid over the fleet machinery, deduplicated into
        # one plan. `repro study FILE` runs arbitrary study files; this
        # key keeps the example grid inside the `repro run` sweep.
        FigureSpec(
            "study",
            "Study campaign: example scale-study grid",
            plan_study,
            defaults={"path": "examples/scenarios/scale_study.toml"},
            quick={
                "path": "examples/scenarios/scale_study.toml",
                "quick": True,
            },
        ),
        # The standing differential-fuzz campaign (docs/fuzzing.md):
        # every registered fast engine against its exact oracle on
        # seeded random scenarios, sharing the pool and cache with the
        # figures above.
        FigureSpec(
            "fuzz",
            "Differential fuzz campaign: fast engines vs exact oracles",
            plan_campaign,
            defaults={"seed": 0, "count": 40},
            quick={"seed": 0, "count": 10, "quick": True},
        ),
    )
}


def build_plans(
    keys: Optional[Sequence[str]] = None,
    quick: bool = False,
) -> List[ExperimentPlan]:
    """Plans for the requested figures (all of them by default).

    Unknown keys raise ``KeyError`` with the same did-you-mean
    suggestions the fleet scenario loader produces.
    """
    if not keys:
        keys = list(FIGURES)
    unknown = [key for key in keys if key not in FIGURES]
    if unknown:
        raise KeyError(
            unknown_key_message(
                "figure", unknown[0], FIGURES, known_label="known figures"
            )
        )
    return [FIGURES[key].plan(quick=quick) for key in keys]
