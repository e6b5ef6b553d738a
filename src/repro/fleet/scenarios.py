"""Declarative fleet scenarios: heterogeneous populations, varied rates.

A datacenter fleet is rarely the homogeneous 2000-channel population the
paper simulates: machines span DIMM generations, racks see different
thermal environments, and fault rates follow a bathtub curve — elevated
during burn-in, flat in steady state. A :class:`FleetScenario` composes
:class:`SubPopulation` slices, each with its own memory organization,
FIT rates, rate multiplier, lifespan and piecewise rate schedule; the
fleet engine samples every slice with deterministic per-slice streams
and the report layer aggregates them with confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.config import (
    ARCC_MEMORY_CONFIG,
    BASELINE_MEMORY_CONFIG,
    MemoryConfig,
    distinct_organizations,
)
from repro.faults.types import DEFAULT_FIT_RATES, FaultRates
from repro.util.fields import FieldError, check_range
from repro.util.suggest import unknown_key_message

#: Most channels one fleet may deploy, in one slice or in total. The
#: fleet engine plans one job per 4096-channel block, so this bounds a
#: plan at about 2,450 jobs, built in 0.07 s on a 2-vCPU host; ten times
#: more took 0.8 s, too near a one-second budget for plan build. It is
#: ten times the 10^6-channel fleets the documentation sweeps.
MAX_FLEET_CHANNELS = 10**7

#: Spatial fault-model kinds understood by the fleet engine.
SPATIAL_KINDS = ("multi-row-cluster", "retention-cluster", "bank-wear")


@dataclass(frozen=True)
class SpatialFaultModel:
    """Spatially-correlated placement of fault coordinates within a slice.

    Rank-level models place every fault uniformly; real wear-out is not
    uniform — variable-retention cells cluster in small regions, row
    hammer and process variation concentrate failures in a few hot banks
    and adjacent rows. A spatial model redirects the *coordinate* draws
    (``bank``/``row``/``column``) of a fraction of faults into a small
    hot region, which the exact footprint-intersection screen then
    resolves — two row faults in the same bank and row now collide, two
    in different rows do not.

    The model only redraws coordinates on the independent coordinate
    stream; fault counts, arrival times and channel/rank/device
    placement are untouched, so every rank-level reduction stays
    bit-identical with or without a spatial model.

    Parameters
    ----------
    kind : str
        One of :data:`SPATIAL_KINDS`:

        * ``"multi-row-cluster"`` — correlated multi-row faults: hot
          faults land in ``banks`` banks and a window of ``rows`` rows.
        * ``"retention-cluster"`` — variable-retention clusters: hot
          faults land in a ``banks`` x ``rows`` x ``columns`` region.
        * ``"bank-wear"`` — bank-localized wear: hot faults concentrate
          in ``banks`` banks, rows/columns stay uniform.
    fraction : float
        Fraction of faults redirected into the hot region, in (0, 1].
    banks, rows, columns : int
        Extent of the hot region along each axis (>= 1); clamped to the
        slice's memory organization at sampling time.

    Examples
    --------
    >>> model = SpatialFaultModel(kind="multi-row-cluster", fraction=0.8)
    >>> (model.banks, model.rows, model.columns)  # the default hot region
    (1, 64, 64)
    """

    kind: str
    fraction: float = 0.5
    banks: int = 1
    rows: int = 64
    columns: int = 64

    def __post_init__(self) -> None:
        if self.kind not in SPATIAL_KINDS:
            raise FieldError(
                "kind", unknown_key_message("spatial kind", self.kind, SPATIAL_KINDS)
            )
        check_range("fraction", self.fraction, above=0.0, at_most=1.0)
        for name in ("banks", "rows", "columns"):
            check_range(name, getattr(self, name), at_least=1)


@dataclass(frozen=True)
class RatePhase:
    """One segment of a piecewise-constant rate schedule."""

    duration_years: float
    multiplier: float

    def __post_init__(self) -> None:
        check_range("duration_years", self.duration_years, above=0.0)
        check_range("multiplier", self.multiplier, at_least=0.0)


@dataclass(frozen=True)
class SubPopulation:
    """A homogeneous slice of the fleet.

    ``schedule`` phases apply in order from deployment; any lifespan
    beyond the last phase runs at multiplier 1.0 (steady state). An empty
    schedule is a constant-rate population. ``rate_multiplier`` scales
    everything uniformly on top (the paper's 1x/2x/4x sweeps).

    Parameters
    ----------
    name : str
        Slice name, unique within its scenario.
    channels : int
        Memory channels deployed in this slice (1 to
        :data:`MAX_FLEET_CHANNELS`).
    config : MemoryConfig
        Memory organization (Table 7.1); default is the ARCC row.
    rates : FaultRates
        Per-device fault rates in FIT (failures per 10^9 device-hours);
        default is the SC'12 field study.
    rate_multiplier : float
        Uniform scale on every FIT rate (> 0).
    lifespan_years : float
        Years in service (> 0); the slice leaves fleet aggregates after.
    schedule : tuple of RatePhase
        Piecewise rate phases from deployment, in years.
    spatial : SpatialFaultModel, optional
        Spatially-correlated coordinate placement; ``None`` keeps the
        uniform rank-level draws. Only affects the exact
        footprint-intersection screen, never rank-level reductions.

    Examples
    --------
    >>> pop = SubPopulation(
    ...     name="hot-aisle", channels=2000, rate_multiplier=4.0,
    ...     lifespan_years=5.0,
    ...     schedule=(RatePhase(duration_years=0.5, multiplier=2.0),),
    ... )
    >>> pop.phases()        # (start, duration, multiplier), in years
    [(0.0, 0.5, 2.0), (0.5, 4.5, 1.0)]
    >>> pop.report_years
    5
    """

    name: str
    channels: int
    config: MemoryConfig = ARCC_MEMORY_CONFIG
    rates: FaultRates = DEFAULT_FIT_RATES
    rate_multiplier: float = 1.0
    lifespan_years: float = 7.0
    schedule: Tuple[RatePhase, ...] = ()
    spatial: Optional[SpatialFaultModel] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise FieldError("name", "must not be empty")
        check_range(
            "channels", self.channels, at_least=1, at_most=MAX_FLEET_CHANNELS
        )
        check_range("rate_multiplier", self.rate_multiplier, above=0.0)
        check_range("lifespan_years", self.lifespan_years, above=0.0)

    @property
    def report_years(self) -> int:
        """Whole reporting years of the slice (at least one row)."""
        return max(1, int(self.lifespan_years))

    def phases(self) -> List[Tuple[float, float, float]]:
        """``(start, duration, multiplier)`` segments covering the lifespan."""
        segments: List[Tuple[float, float, float]] = []
        start = 0.0
        for phase in self.schedule:
            if start >= self.lifespan_years:
                break
            duration = min(phase.duration_years, self.lifespan_years - start)
            segments.append((start, duration, phase.multiplier))
            start += duration
        if start < self.lifespan_years:
            segments.append((start, self.lifespan_years - start, 1.0))
        return segments

    def scaled(self, factor: float) -> "SubPopulation":
        """Copy with the channel count scaled (at least one channel)."""
        return replace(self, channels=max(1, round(self.channels * factor)))


@dataclass(frozen=True)
class FleetScenario:
    """A named composition of sub-populations.

    Parameters
    ----------
    name : str
        Scenario name; appears in report titles and job names.
    description : str
        One-line description for report titles and ``repro fleet --list``.
    populations : tuple of SubPopulation
        The fleet's slices; at least one, names unique, at most
        :data:`MAX_FLEET_CHANNELS` channels in total.

    Examples
    --------
    >>> fleet = FleetScenario(
    ...     name="tiny", description="doc example",
    ...     populations=(
    ...         SubPopulation(name="a", channels=750),
    ...         SubPopulation(name="b", channels=250, lifespan_years=3.0),
    ...     ),
    ... )
    >>> fleet.total_channels
    1000
    >>> fleet.max_years      # widest slice, in whole reporting years
    7
    >>> [pop.channels for pop in fleet.scaled_to(100).populations]
    [75, 25]
    """

    name: str
    description: str
    populations: Tuple[SubPopulation, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise FieldError("name", "must not be empty")
        if not self.populations:
            raise FieldError("populations", "needs at least one sub-population")
        names = [pop.name for pop in self.populations]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise FieldError(
                    f"populations[{i}].name",
                    f"sub-population names must be unique; {name!r} repeats",
                )
        if self.total_channels > MAX_FLEET_CHANNELS:
            raise FieldError(
                "populations",
                f"total channels must be <= {MAX_FLEET_CHANNELS}, "
                f"got {self.total_channels}",
            )
        self.organizations()

    @property
    def total_channels(self) -> int:
        """Fleet size across every slice."""
        return sum(pop.channels for pop in self.populations)

    def organizations(self) -> Tuple[MemoryConfig, ...]:
        """Distinct memory organizations, in first-appearance order.

        Organization names are unique within a scenario (construction
        runs this check), so the result is usable as a keyed set — the
        measured-overhead bridge plans one measurement per entry.
        """
        return distinct_organizations(
            (pop.config for pop in self.populations), "populations"
        )

    @property
    def max_years(self) -> int:
        """Longest slice lifespan, in whole reporting years (>= 1).

        Mirrors :attr:`SubPopulation.report_years` so the fleet table
        always has exactly as many year columns as its widest slice —
        sub-year lifespans still report one row.
        """
        return max(pop.report_years for pop in self.populations)

    def scaled_to(self, channels: int) -> "FleetScenario":
        """Copy with the total fleet scaled to ``channels`` proportionally."""
        check_range("channels", channels, at_least=1, at_most=MAX_FLEET_CHANNELS)
        factor = channels / self.total_channels
        return replace(
            self,
            populations=tuple(pop.scaled(factor) for pop in self.populations),
        )


def _steady(channels: int = 20_000) -> FleetScenario:
    return FleetScenario(
        name="steady",
        description="Homogeneous ARCC fleet at 1x field rates (the paper's setup)",
        populations=(SubPopulation(name="arcc-1x", channels=channels),),
    )


def _mixed_generations(channels: int = 20_000) -> FleetScenario:
    """Mixed DIMM generations: new x8 ARCC alongside aging x4 stock."""
    return FleetScenario(
        name="mixed-generations",
        description=(
            "60% new ARCC x8 DIMMs, 25% mid-life ARCC at 2x rates, "
            "15% legacy x4 lockstep channels near end of life at 4x"
        ),
        populations=(
            SubPopulation(name="arcc-new", channels=round(channels * 0.60)),
            SubPopulation(
                name="arcc-midlife",
                channels=round(channels * 0.25),
                rate_multiplier=2.0,
                lifespan_years=5.0,
            ),
            SubPopulation(
                name="legacy-x4",
                channels=round(channels * 0.15),
                config=BASELINE_MEMORY_CONFIG,
                rate_multiplier=4.0,
                lifespan_years=3.0,
            ),
        ),
    )


def _harsh_environment(channels: int = 20_000) -> FleetScenario:
    """A hot-aisle slice running at elevated rates next to the main hall."""
    return FleetScenario(
        name="harsh-environment",
        description="80% temperate hall at 1x, 20% harsh edge sites at 4x",
        populations=(
            SubPopulation(name="temperate", channels=round(channels * 0.80)),
            SubPopulation(
                name="harsh",
                channels=round(channels * 0.20),
                rate_multiplier=4.0,
            ),
        ),
    )


def _burn_in(channels: int = 20_000) -> FleetScenario:
    """Bathtub-curve schedule: elevated infant-mortality rates, then steady."""
    return FleetScenario(
        name="burn-in",
        description=(
            "Whole fleet with a 0.5-year burn-in at 4x rates, "
            "steady state afterwards"
        ),
        populations=(
            SubPopulation(
                name="bathtub",
                channels=channels,
                schedule=(RatePhase(duration_years=0.5, multiplier=4.0),),
            ),
        ),
    )


def _wear_out(channels: int = 20_000) -> FleetScenario:
    """Spatially-correlated end-of-life wear the rank-level model can't see."""
    return FleetScenario(
        name="wear-out",
        description=(
            "70% steady fleet, 20% multi-row-cluster wear at 2x, "
            "10% variable-retention clusters at 4x"
        ),
        populations=(
            SubPopulation(name="steady", channels=round(channels * 0.70)),
            SubPopulation(
                name="row-clusters",
                channels=round(channels * 0.20),
                rate_multiplier=2.0,
                spatial=SpatialFaultModel(
                    kind="multi-row-cluster", fraction=0.8, banks=2, rows=32
                ),
            ),
            SubPopulation(
                name="retention",
                channels=round(channels * 0.10),
                rate_multiplier=4.0,
                lifespan_years=5.0,
                spatial=SpatialFaultModel(
                    kind="retention-cluster",
                    fraction=0.6,
                    banks=1,
                    rows=16,
                    columns=16,
                ),
            ),
        ),
    )


#: Built-in scenarios, in ``repro fleet`` print order.
DEFAULT_SCENARIOS: Dict[str, FleetScenario] = {
    scenario.name: scenario
    for scenario in (
        _steady(),
        _mixed_generations(),
        _harsh_environment(),
        _burn_in(),
        _wear_out(),
    )
}


def resolve_scenario(scenario: "FleetScenario | str") -> FleetScenario:
    """Accept a scenario object or a built-in scenario name."""
    if isinstance(scenario, FleetScenario):
        return scenario
    if scenario not in DEFAULT_SCENARIOS:
        raise KeyError(
            unknown_key_message("scenario", scenario, DEFAULT_SCENARIOS)
        )
    return DEFAULT_SCENARIOS[scenario]
