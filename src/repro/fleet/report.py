"""Fleet population statistics with confidence intervals.

:func:`plan_fleet` asks every sampling block of every slice for two
reductions of :func:`~repro.fleet.engine.block_job` — faulty-fraction
moments per year and fault-arrival moments — and merges the blocks'
``(n, sum, sum of squares)`` with :class:`~repro.util.stats.Moments`,
so a 10^6-channel fleet aggregates from kilobytes of job results and
every reported mean carries a normal-approximation confidence interval.
:func:`slice_block_jobs` is the (slice, block) job layout the policy
comparison shares.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.fleet.engine import (
    EventMoments,
    FractionMoments,
    Reduction,
    block_job,
    fleet_blocks,
)
from repro.fleet.scenarios import FleetScenario, SubPopulation, resolve_scenario
from repro.runner.job import ExperimentPlan, Job
from repro.util.rng import derive_seeds
from repro.util.stats import Moments
from repro.util.tables import format_table

#: Default seed of the fleet sweeps (``repro fleet``).
DEFAULT_FLEET_SEED = 0xF1EE7

#: A reported statistic: (mean, confidence half-width).
MeanCI = Tuple[float, float]


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


def slice_block_jobs(
    prefix: str,
    pop: SubPopulation,
    seed: int,
    blocks: Sequence[int],
    reductions: Tuple[Reduction, ...],
) -> List[Job]:
    """One :func:`~repro.fleet.engine.block_job` per sampling block of
    one slice, named ``prefix[index]``.

    ``seed`` is the slice's seed and ``blocks`` its
    :func:`~repro.fleet.engine.fleet_blocks` sizes; each job derives its
    block's stream from the two and its index. Every job shares the
    slice's reduction objects and its spatial mapping, so a batch's
    identity memo encodes each once.
    """
    phases = tuple(pop.phases())
    spatial = asdict(pop.spatial) if pop.spatial else None
    return [
        Job.create(
            f"{prefix}[{index}]",
            block_job,
            seed=seed,
            index=index,
            channels=size,
            years=pop.lifespan_years,
            reductions=reductions,
            rate_multiplier=pop.rate_multiplier,
            config=pop.config,
            rates=pop.rates,
            phases=phases,
            spatial=spatial,
        )
        for index, size in enumerate(blocks)
    ]


def _assemble_population(
    pop: SubPopulation,
    blocks: Sequence[int],
    answers: Sequence[List[Any]],
) -> SubPopulationReport:
    fraction = [Moments() for _ in range(pop.report_years)]
    events = Moments()
    affected = Moments()
    for n, ((totals, squares), exposure) in zip(blocks, answers):
        for moments, total, total_sq in zip(fraction, totals, squares):
            moments.add(n, total, total_sq)
        events.add(n, exposure[0][0], exposure[1][0])
        affected.add(n, exposure[0][1], exposure[1][1])
    return SubPopulationReport(
        name=pop.name,
        channels=pop.channels,
        years=pop.report_years,
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
    >>> from repro.runner.executor import execute_plan
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
    slices = []
    for pop, pop_seed in zip(scenario.populations, pop_seeds):
        blocks = fleet_blocks(pop.channels)
        slices.append((pop, blocks, len(jobs)))
        jobs += slice_block_jobs(
            f"fleet[{scenario.name}/{pop.name}]",
            pop,
            pop_seed,
            blocks,
            (FractionMoments(pop.report_years), EventMoments()),
        )

    def assemble(values: List[Any]) -> FleetReport:
        answered = [
            (pop, blocks, values[start : start + len(blocks)])
            for pop, blocks, start in slices
        ]
        reports = [_assemble_population(*entry) for entry in answered]
        fleet_by_year = []
        for year in range(1, scenario.max_years + 1):
            moments = Moments()
            in_service = 0
            for pop, blocks, answers in answered:
                if pop.report_years < year:
                    continue
                in_service += pop.channels
                for n, ((totals, squares), _) in zip(blocks, answers):
                    moments.add(n, totals[year - 1], squares[year - 1])
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
