"""Fleet population statistics with confidence intervals.

Every reported mean carries a normal-approximation confidence interval
(:mod:`repro.util.stats`). Parallel block jobs ship pre-reduced moments
``(n, sum, sum of squares)`` rather than raw per-channel samples, so a
10^6-channel fleet aggregates from kilobytes of job results; merging
moments and calling :func:`confidence_interval_from_moments` matches
concatenating the samples and calling :func:`confidence_interval`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import MemoryConfig
from repro.faults.types import FaultRates
from repro.fleet.engine import (
    faulty_fractions_by_year,
    fleet_blocks,
    sample_block,
)
from repro.fleet.scenarios import FleetScenario, SubPopulation, resolve_scenario
from repro.runner import ExperimentPlan, Job
from repro.util.rng import derive_seeds
from repro.util.stats import confidence_interval_from_moments
from repro.util.tables import format_table

#: Default seed of the fleet sweeps (``repro fleet``).
DEFAULT_FLEET_SEED = 0xF1EE7

#: A reported statistic: (mean, confidence half-width).
MeanCI = Tuple[float, float]


@dataclass
class _Moments:
    """Mergeable first/second moments of one per-channel statistic."""

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    def add(self, count: int, total: float, total_sq: float) -> None:
        self.count += count
        self.total += total
        self.total_sq += total_sq

    def interval(self) -> MeanCI:
        return confidence_interval_from_moments(
            self.count, self.total, self.total_sq
        )


@dataclass
class SubPopulationReport:
    """Lifetime statistics of one fleet slice."""

    name: str
    channels: int
    years: int
    #: Faulty-page fraction at the end of each year (mean, ci half-width).
    faulty_fraction: List[MeanCI]
    #: Fault arrivals per channel over the slice's lifespan.
    events_per_channel: MeanCI
    #: Fraction of channels that saw at least one fault.
    affected_fraction: MeanCI
    #: Memory-organization name of the slice (built-in or a custom
    #: scenario-file ``[organizations.<name>]`` table).
    organization: str = ""

    def final_fraction(self) -> float:
        """Faulty-page fraction at the end of the lifespan."""
        return self.faulty_fraction[-1][0]


@dataclass
class FleetReport:
    """Scenario-wide statistics: per-slice plus in-service aggregate."""

    scenario: str
    description: str
    years: int
    subpopulations: List[SubPopulationReport]
    #: Per-year fleet aggregate over slices still in service:
    #: (mean faulty fraction, ci half-width, channels in service).
    fleet_by_year: List[Tuple[float, float, int]]

    @property
    def total_channels(self) -> int:
        """Fleet size at deployment."""
        return sum(report.channels for report in self.subpopulations)

    def to_table(self) -> str:
        """Render the faulty-fraction series and the per-slice summary."""
        headers = ["Slice", "Channels"] + [
            f"Year {y}" for y in range(1, self.years + 1)
        ]
        rows = []
        for report in self.subpopulations:
            cells = [
                f"{mean * 100:.3f}% ±{half * 100:.3f}"
                for mean, half in report.faulty_fraction
            ]
            cells += ["-"] * (self.years - report.years)
            rows.append([report.name, str(report.channels)] + cells)
        fleet_cells = [
            f"{mean * 100:.3f}% ±{half * 100:.3f}"
            for mean, half, _ in self.fleet_by_year
        ]
        rows.append(["fleet (in service)", str(self.total_channels)] + fleet_cells)
        series = format_table(
            headers,
            rows,
            title=(
                f"Fleet scenario '{self.scenario}': faulty 4 KB page "
                f"fraction over time — {self.description}"
            ),
        )

        summary_rows = [
            [
                report.name,
                report.organization or "-",
                f"{report.events_per_channel[0]:.4f} "
                f"±{report.events_per_channel[1]:.4f}",
                f"{report.affected_fraction[0] * 100:.2f}% "
                f"±{report.affected_fraction[1] * 100:.2f}",
            ]
            for report in self.subpopulations
        ]
        summary = format_table(
            ["Slice", "Organization", "Faults/channel", "Channels w/ >=1 fault"],
            summary_rows,
            title="Per-slice lifetime fault exposure",
        )
        return series + "\n" + summary


def _fleet_block_job(
    block_seed: int,
    channels: int,
    sample_years: float,
    report_years: int,
    rate_multiplier: float,
    config: MemoryConfig,
    rates: FaultRates,
    phases: Tuple[Tuple[float, float, float], ...],
    spatial: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Picklable worker: sample one block and reduce it to moments."""
    batch = sample_block(
        block_seed,
        channels,
        sample_years,
        rate_multiplier=rate_multiplier,
        config=config,
        rates=rates,
        phases=phases,
        spatial=spatial,
    )
    fractions = faulty_fractions_by_year(batch, report_years, config)
    counts = batch.per_channel.astype(np.float64)
    affected = counts > 0
    return {
        "channels": channels,
        "fraction_sum": fractions.sum(axis=1),
        "fraction_sumsq": np.square(fractions).sum(axis=1),
        "events_sum": float(counts.sum()),
        "events_sumsq": float(np.square(counts).sum()),
        "affected_sum": float(affected.sum()),
    }


def _population_jobs(
    scenario_name: str, pop: SubPopulation, seed: int
) -> List[Job]:
    """One runner job per sampling block of one slice."""
    return [
        Job.create(
            f"fleet[{scenario_name}/{pop.name}][{index}]",
            _fleet_block_job,
            block_seed=block_seed,
            channels=size,
            sample_years=pop.lifespan_years,
            report_years=pop.report_years,
            rate_multiplier=pop.rate_multiplier,
            config=pop.config,
            rates=pop.rates,
            phases=tuple(pop.phases()),
            spatial=asdict(pop.spatial) if pop.spatial else None,
        )
        for index, (block_seed, size) in enumerate(
            fleet_blocks(seed, pop.channels)
        )
    ]


def _assemble_population(
    pop: SubPopulation, blocks: Sequence[Dict[str, Any]]
) -> SubPopulationReport:
    years = pop.report_years
    fraction = [_Moments() for _ in range(years)]
    events = _Moments()
    affected = _Moments()
    for block in blocks:
        n = block["channels"]
        for year in range(years):
            fraction[year].add(
                n,
                float(block["fraction_sum"][year]),
                float(block["fraction_sumsq"][year]),
            )
        events.add(n, block["events_sum"], block["events_sumsq"])
        # An indicator's square is itself, so the sum doubles as sumsq.
        affected.add(n, block["affected_sum"], block["affected_sum"])
    return SubPopulationReport(
        name=pop.name,
        channels=pop.channels,
        years=years,
        faulty_fraction=[moments.interval() for moments in fraction],
        events_per_channel=events.interval(),
        affected_fraction=affected.interval(),
        organization=pop.config.name,
    )


def plan_fleet(
    scenario: "FleetScenario | str" = "mixed-generations",
    channels: Optional[int] = None,
    seed: int = DEFAULT_FLEET_SEED,
) -> ExperimentPlan:
    """A fleet scenario as runner jobs: one per (slice, sampling block).

    ``channels`` (when given) rescales the whole fleet proportionally —
    the ``repro fleet --channels`` sweep. Every slice owns a seed derived
    from ``seed`` and its position, and every block's stream derives from
    the slice seed and the block index, so results are independent of
    worker count and prefix-stable as the fleet grows.

    Parameters
    ----------
    scenario : FleetScenario or str
        A scenario object or a built-in name (see
        :data:`~repro.fleet.scenarios.DEFAULT_SCENARIOS`).
    channels : int, optional
        Rescale the fleet to this many total channels.
    seed : int
        Experiment seed; every RNG stream derives from it.

    Examples
    --------
    >>> plan = plan_fleet("mixed-generations", channels=1000)
    >>> plan.name
    'fleet'
    >>> len(plan.jobs)      # three slices, one sampling block each
    3
    >>> from repro.runner import execute_plan
    >>> report = execute_plan(plan_fleet("steady", channels=64, seed=1))
    >>> report.scenario
    'steady'
    >>> len(report.fleet_by_year)       # one row per service year
    7
    """
    scenario = resolve_scenario(scenario)
    if channels is not None:
        scenario = scenario.scaled_to(channels)
    pop_seeds = derive_seeds(seed, len(scenario.populations))
    jobs: List[Job] = []
    spans: List[Tuple[int, int]] = []
    for pop, pop_seed in zip(scenario.populations, pop_seeds):
        pop_jobs = _population_jobs(scenario.name, pop, pop_seed)
        spans.append((len(jobs), len(jobs) + len(pop_jobs)))
        jobs.extend(pop_jobs)

    def assemble(values: List[Any]) -> FleetReport:
        reports = [
            _assemble_population(pop, values[start:stop])
            for pop, (start, stop) in zip(scenario.populations, spans)
        ]
        fleet_by_year = []
        for year in range(1, scenario.max_years + 1):
            moments = _Moments()
            in_service = 0
            for pop, (start, stop) in zip(scenario.populations, spans):
                if pop.report_years < year:
                    continue
                in_service += pop.channels
                for block in values[start:stop]:
                    moments.add(
                        block["channels"],
                        float(block["fraction_sum"][year - 1]),
                        float(block["fraction_sumsq"][year - 1]),
                    )
            mean, half = moments.interval()
            fleet_by_year.append((mean, half, in_service))
        return FleetReport(
            scenario=scenario.name,
            description=scenario.description,
            years=scenario.max_years,
            subpopulations=reports,
            fleet_by_year=fleet_by_year,
        )

    # Named "fleet" to match the registry key; the scenario name is
    # embedded in every job name (and in the report itself).
    return ExperimentPlan(name="fleet", jobs=jobs, assemble=assemble)
