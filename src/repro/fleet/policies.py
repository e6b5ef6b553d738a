"""Protection-policy comparison over fleet scenarios (TCO-style sweeps).

:func:`~repro.fleet.report.plan_fleet` reports fault *exposure* — how
much memory ever sees a fault. This module answers the paper's actual
question: which protection scheme should a given fleet run? The
policies are the :class:`~repro.fleet.measured.ProtectionPolicy`
records of :data:`~repro.fleet.measured.POLICIES`, and they compete
over the same sampled :class:`~repro.fleet.events.FaultEventBatch` per
slice:

* ``arcc`` — SCCDCD+ARCC (Chapter 4): pages start relaxed and upgrade
  per fault, so overheads *accumulate* with the Figure 7.4/7.5 per-fault
  costs; detection is relaxed (pair-race SDC model of Section 6.2) while
  correction matches SCCDCD.
* ``sccdcd`` — commercial always-strong chipkill (the Table 7.1
  baseline, ``always_strong``): a constant power premium equal to
  ARCC's fully-upgraded state (its saturation asymptote), zero
  *additional* per-fault cost, and the strongest detection (an SDC
  needs a triple).
* ``lotecc`` — ARCC applied to LOT-ECC (Section 5.2): cheap relaxed
  nine-device pages, but an upgraded access costs
  :data:`~repro.ecc.lotecc.WORST_CASE_UPGRADE_FACTOR`x, in
  exchange for double-chip-sparing correction (``sparing``) that
  shrinks the DUE exposure window from the repair interval to one
  scrub pass (the 17x of [4]).

This module reads the records' fields and never a policy's key.
Every (slice, block) is one :func:`~repro.fleet.engine.block_job` that
samples the block once and scores every policy on it — capped-overhead
moments of each policy's power and performance rows, and one pair
screen per correction window; blocks reuse the exact seeds
of :func:`~repro.fleet.report.plan_fleet`, so all policies judge the
*same* fault arrivals — a paired comparison, and bit-identical at any
worker count. Monte-Carlo means (overheads, uncorrectable-channel
fraction) carry 95% confidence intervals; SDC/DUE columns come from the
closed-form Chapter 6 models evaluated per slice.

By default the per-fault weights are the records' (the worst-case
constants above, kept as the documented fallback and oracle bound).
:func:`plan_fleet_compare_measured` (``repro fleet --measured``) is
the one path that prices every policy with locality-aware weights
instead: its jobs measure them on the trace engine against each
slice's own memory organization (:mod:`repro.fleet.measured`), and its
assembly returns this module's comparison on the resulting profiles as
a follow-up plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import MEASUREMENT_CONFIG
from repro.fleet.engine import OverheadMoments, PairScreens
from repro.fleet.measured import (
    POLICIES,
    POLICY_KEYS,
    MeasuredOverheadProfile,
    ProfileMap,
    ProtectionPolicy,
    check_policy_keys,
    plan_measured_profiles,
    profiles_to_table,
)
from repro.fleet.report import DEFAULT_FLEET_SEED, BlockAnswers, MeanCI, population_plan
from repro.fleet.scenarios import (
    FleetScenario,
    SubPopulation,
    resolve_scenario,
)
from repro.reliability.analytical import (
    PairTableMemo,
    ReliabilityParams,
    expected_sdc_arcc,
    expected_sdc_sccdcd,
)
from repro.reliability.due import (
    DEFAULT_REPAIR_HOURS,
    due_rate_sccdcd,
    due_rate_sparing,
)
from repro.runner.job import ExperimentPlan, gather
from repro.util.rng import derive_seeds
from repro.util.stats import (
    Moments,
    binomial_confidence_interval,
    sequential_sum,
)
from repro.util.tables import format_table
from repro.util.units import HOURS_PER_YEAR
from repro.workloads.spec import WorkloadMix


def resolve_policies(keys: Sequence[str]) -> Tuple[ProtectionPolicy, ...]:
    """The :data:`~repro.fleet.measured.POLICIES` records of ``keys``,
    which pass :func:`~repro.fleet.measured.check_policy_keys`."""
    return tuple(POLICIES[key] for key in check_policy_keys(keys))


def measured_policy(
    base: ProtectionPolicy, profile: MeasuredOverheadProfile
) -> ProtectionPolicy:
    """``base`` with its cost model swapped for a measured profile.

    Reliability fields (detection, sparing) are untouched — measurement
    changes what protection *costs*, never what it covers. Accumulation
    caps become the profile's measured saturation (the fully-upgraded
    state under the measured weights), so the documented cap semantics
    — a channel cannot exceed fully-upgraded behaviour — carry over to
    the measured scale.
    """
    if profile.policy != base.key:
        raise ValueError(
            f"profile for {profile.policy!r} cannot parameterize "
            f"policy {base.key!r}"
        )
    return replace(
        base,
        title=f"{base.title} [measured]",
        static_power_overhead=profile.static_power[0],
        static_performance_overhead=profile.static_performance[0],
        per_fault_power=profile.per_fault_power(),
        per_fault_performance=profile.per_fault_performance(),
        power_cap=profile.power_cap,
        performance_cap=profile.performance_cap,
    )


# -- per-slice analytic reliability -------------------------------------------


def slice_reliability_params(pop: SubPopulation) -> ReliabilityParams:
    """Chapter 6 parameters of *one memory channel* of a fleet slice.

    Codewords never span the independent channels of a memory system
    (the MC screen below enforces the same rule), so the closed forms
    are evaluated per channel — ``devices_per_rank`` devices in each of
    ``ranks_per_channel`` ranks; a lane fault's peers are the other
    devices of *its* channel, not the whole system. Per-machine rates
    scale the per-channel result by ``config.channels``
    (:func:`policy_sdc_per_1k` / :func:`policy_due_per_1k`). The slice's
    *lifetime-average* rate multiplier enters directly — burn-in phases
    as their time-weighted mean, since the closed forms assume a
    constant rate.
    """
    cfg = pop.config
    weighted = sequential_sum(
        duration * multiplier for _, duration, multiplier in pop.phases()
    )
    avg_schedule = weighted / pop.lifespan_years
    return ReliabilityParams(
        devices_per_rank=cfg.devices_per_rank,
        ranks=cfg.ranks_per_channel,
        rate_multiplier=pop.rate_multiplier * avg_schedule,
        rates=pop.rates,
    )


def _saturating_per_1k(
    expected_events: float, lifespan_years: float
) -> float:
    """Events per 1000 machine-years, one event retiring the machine."""
    probability = 1.0 - math.exp(-expected_events)
    return probability * 1000.0 / lifespan_years


def policy_sdc_per_1k(
    policy: ProtectionPolicy,
    pop: SubPopulation,
    tables: Optional[PairTableMemo] = None,
    params: Optional[ReliabilityParams] = None,
) -> float:
    """Analytic SDCs per 1000 machine-years of one (policy, slice).

    A machine is the slice's whole memory system: the per-channel
    expected count scales by the (independent) channel count before
    the one-event-retires-the-machine saturation. ``tables`` is the
    caller's :data:`~repro.reliability.analytical.PairTableMemo`, so a
    comparison tabulates each slice's parameters once for every policy;
    ``params`` is the slice's :func:`slice_reliability_params`, built
    here when not given.
    """
    if params is None:
        params = slice_reliability_params(pop)
    expected = (
        expected_sdc_sccdcd(params, pop.lifespan_years, tables)
        if policy.always_strong
        else expected_sdc_arcc(params, pop.lifespan_years, tables)
    )
    return _saturating_per_1k(
        expected * pop.config.channels, pop.lifespan_years
    )


def policy_due_per_1k(
    policy: ProtectionPolicy,
    pop: SubPopulation,
    tables: Optional[PairTableMemo] = None,
    params: Optional[ReliabilityParams] = None,
) -> float:
    """Analytic DUEs per 1000 machine-years of one (policy, slice);
    ``tables`` and ``params`` as for :func:`policy_sdc_per_1k`."""
    if params is None:
        params = slice_reliability_params(pop)
    if policy.sparing:
        rate = due_rate_sparing(params, tables)
    else:
        rate = due_rate_sccdcd(params, tables=tables)
    expected = (
        rate * pop.config.channels * pop.lifespan_years * HOURS_PER_YEAR
    )
    return _saturating_per_1k(expected, pop.lifespan_years)


# -- reports ------------------------------------------------------------------


@dataclass
class PolicySliceReport:
    """One (policy, slice) cell of the comparison.

    Overheads are lifetime-average fractions of the relaxed baseline
    (static premium included); SDC/DUE columns are the closed-form
    Chapter 6 models per 1000 machine-years; ``uncorrectable_fraction``
    is the exact footprint-intersection screen of
    :func:`~repro.fleet.engine.uncorrectable_candidate_channels`,
    evaluated on the sampled ``(bank, row, column)`` coordinates.
    """

    policy: str
    slice_name: str
    channels: int
    lifespan_years: float
    power_overhead: MeanCI
    performance_overhead: MeanCI
    sdc_per_1k_machine_years: float
    due_per_1k_machine_years: float
    uncorrectable_fraction: MeanCI


@dataclass
class PolicyFleetSummary:
    """Fleet-level roll-up of one policy (channel-weighted)."""

    policy: str
    title: str
    power_overhead: MeanCI
    performance_overhead: MeanCI
    #: Expected fleet-wide events per year (sum over slices of
    #: channels x per-1000-machine-year rate / 1000).
    sdc_events_per_year: float
    due_events_per_year: float
    uncorrectable_fraction: MeanCI


@dataclass
class PolicyComparisonReport:
    """The TCO-style decision table of one scenario.

    ``profiles`` is set on measured runs: the
    :class:`~repro.fleet.measured.MeasuredOverheadProfile` objects whose
    weights (with 95% CIs) replaced the worst-case constants, rendered
    as an extra table so the decision is auditable.
    """

    scenario: str
    description: str
    policies: List[str]
    slices: List[PolicySliceReport]
    fleet: List[PolicyFleetSummary]
    profiles: Optional[List[MeasuredOverheadProfile]] = None

    @property
    def total_channels(self) -> int:
        """Fleet size at deployment."""
        seen = {}
        for row in self.slices:
            seen[row.slice_name] = row.channels
        return sum(seen.values())

    def fleet_summary(self, policy: str) -> PolicyFleetSummary:
        """Look up one policy's fleet roll-up."""
        for row in self.fleet:
            if row.policy == policy:
                return row
        raise KeyError(f"no fleet summary for {policy!r}")

    def best_by(self, metric: str) -> str:
        """Policy key minimizing a fleet metric.

        ``metric`` is one of ``power``, ``performance``, ``sdc``,
        ``due``, ``uncorrectable``.
        """
        getters = {
            "power": lambda s: s.power_overhead[0],
            "performance": lambda s: s.performance_overhead[0],
            "sdc": lambda s: s.sdc_events_per_year,
            "due": lambda s: s.due_events_per_year,
            "uncorrectable": lambda s: s.uncorrectable_fraction[0],
        }
        if metric not in getters:
            raise KeyError(f"unknown metric {metric!r}")
        return min(self.fleet, key=getters[metric]).policy

    def to_table(self) -> str:
        """Render the per-slice grid plus the fleet decision table."""

        def pct(stat: MeanCI) -> str:
            mean, half = stat
            return f"{mean * 100:.3f}% ±{half * 100:.3f}"

        slice_rows = [
            [
                row.policy,
                row.slice_name,
                str(row.channels),
                pct(row.power_overhead),
                pct(row.performance_overhead),
                f"{row.sdc_per_1k_machine_years:.3e}",
                f"{row.due_per_1k_machine_years:.3e}",
                pct(row.uncorrectable_fraction),
            ]
            for row in self.slices
        ]
        per_slice = format_table(
            [
                "Policy",
                "Slice",
                "Channels",
                "Power ovh",
                "Perf ovh",
                "SDC/1k-yr",
                "DUE/1k-yr",
                "Unc. channels",
            ],
            slice_rows,
            title=(
                f"Policy comparison '{self.scenario}' per slice — "
                f"{self.description}"
            ),
        )

        fleet_rows = [
            [
                summary.policy,
                pct(summary.power_overhead),
                pct(summary.performance_overhead),
                f"{summary.sdc_events_per_year:.3e}",
                f"{summary.due_events_per_year:.3e}",
                pct(summary.uncorrectable_fraction),
            ]
            for summary in self.fleet
        ]
        fleet = format_table(
            [
                "Policy",
                "Power ovh",
                "Perf ovh",
                "SDC/yr",
                "DUE/yr",
                "Unc. channels",
            ],
            fleet_rows,
            title=(
                f"Fleet decision table ({self.total_channels} channels, "
                "lifetime averages, channel-weighted)"
            ),
        )
        verdict = (
            f"Lowest power: {self.best_by('power')} | "
            f"lowest perf loss: {self.best_by('performance')} | "
            f"lowest SDC: {self.best_by('sdc')} | "
            f"lowest DUE: {self.best_by('due')}"
        )
        parts = [per_slice, fleet, verdict]
        if self.profiles:
            parts.insert(
                0,
                profiles_to_table(
                    {(p.policy, p.organization): p for p in self.profiles}
                ),
            )
        return "\n".join(parts)


def _with_static(moments: Moments, static: float) -> MeanCI:
    """Moments interval shifted by a constant per-channel premium."""
    mean, half = moments.interval()
    return (mean + static, half)


def _fleet_static(
    populations: Sequence[SubPopulation],
    statics: Mapping[str, float],
) -> float:
    """Channel-weighted constant premium across slices.

    All slices share one value on the worst-case path (one policy object
    per key); measured runs may price slices' organizations differently,
    in which case the fleet roll-up weights by deployed channels.
    """
    distinct = {statics[pop.name] for pop in populations}
    if len(distinct) == 1:
        return distinct.pop()
    total = sum(pop.channels for pop in populations)
    return (
        sequential_sum(pop.channels * statics[pop.name] for pop in populations)
        / total
    )


def plan_fleet_compare(
    scenario: "FleetScenario | str" = "mixed-generations",
    policies: Sequence[str] = POLICY_KEYS,
    channels: Optional[int] = None,
    seed: int = DEFAULT_FLEET_SEED,
    profiles: Optional[ProfileMap] = None,
) -> ExperimentPlan:
    """A policy comparison as runner jobs: one per (slice, block).

    Each job asks :func:`~repro.fleet.engine.block_job` for the
    final-year capped-overhead moments of the slice's version of every
    policy — a power and a performance row each, in ``policies`` order —
    and for the pair screen of every distinct correction window: the
    block is sampled once and every policy scores it. Block seeds derive
    exactly as in :func:`~repro.fleet.report.plan_fleet` — from ``seed``
    and the slice position, never from the policy — so every policy
    scores identical fault histories and results are independent of
    worker count and of which other policies share the job.

    ``profiles`` (keyed ``(policy key, organization name)``, from
    :func:`~repro.fleet.measured.plan_measured_profiles`) swaps the
    worst-case per-fault constants for measured weights: each slice's
    jobs carry the policy variants measured against *its own* memory
    organization. Every (policy, slice's organization) pair must be
    present.
    """
    scenario = resolve_scenario(scenario)
    if channels is not None:
        scenario = scenario.scaled_to(channels)
    built = resolve_policies(policies)
    pop_seeds = derive_seeds(seed, len(scenario.populations))
    scrub_hours = ReliabilityParams().scrub_interval_hours

    effective: Dict[Tuple[str, str], ProtectionPolicy] = {}
    for policy in built:
        for pop in scenario.populations:
            variant = policy
            if profiles is not None:
                profile_key = (policy.key, pop.config.name)
                if profile_key not in profiles:
                    raise KeyError(
                        f"no measured profile for policy {policy.key!r} on "
                        f"organization {pop.config.name!r}; measure the "
                        "scenario's organizations first "
                        "(plan_measured_profiles)"
                    )
                variant = measured_policy(policy, profiles[profile_key])
            effective[(policy.key, pop.name)] = variant

    plans = []
    screen_of: Dict[str, List[int]] = {}
    for pop, pop_seed in zip(scenario.populations, pop_seeds):
        variants = [effective[(policy.key, pop.name)] for policy in built]
        rows = tuple(
            row
            for v in variants
            for row in (
                (v.per_fault_power, v.power_cap),
                (v.per_fault_performance, v.performance_cap),
            )
        )
        windows = [
            scrub_hours if v.sparing else DEFAULT_REPAIR_HOURS for v in variants
        ]
        distinct = tuple(dict.fromkeys(windows))
        screen_of[pop.name] = [distinct.index(w) for w in windows]
        plans.append(
            population_plan(
                f"fleet-compare[{scenario.name}/{pop.name}]",
                pop,
                pop_seed,
                (OverheadMoments(rows, (pop.report_years,)), PairScreens(distinct)),
            )
        )

    def assemble(answered: List[BlockAnswers]) -> PolicyComparisonReport:
        slice_reports: List[PolicySliceReport] = []
        summaries: List[PolicyFleetSummary] = []
        tables: PairTableMemo = {}
        slice_params = {
            pop.name: slice_reliability_params(pop)
            for pop in scenario.populations
        }
        for policy_index, policy in enumerate(built):
            fleet_power = Moments()
            fleet_perf = Moments()
            fleet_unc_sum = 0
            fleet_unc_n = 0
            sdc_per_year = 0.0
            due_per_year = 0.0
            static_power: Dict[str, float] = {}
            static_perf: Dict[str, float] = {}
            for pop, blocks in zip(scenario.populations, answered):
                variant = effective[(policy.key, pop.name)]
                static_power[pop.name] = variant.static_power_overhead
                static_perf[pop.name] = variant.static_performance_overhead
                screen = screen_of[pop.name][policy_index]
                power = Moments()
                perf = Moments()
                unc_sum = 0
                # Rows 2i and 2i + 1 (final year): policy i's power and
                # performance.
                row = 2 * policy_index
                for n, ((totals, squares), screens) in blocks:
                    power.add(n, totals[row][0], squares[row][0])
                    perf.add(n, totals[row + 1][0], squares[row + 1][0])
                    unc_sum += screens[screen]
                params = slice_params[pop.name]
                sdc = policy_sdc_per_1k(variant, pop, tables, params)
                due = policy_due_per_1k(variant, pop, tables, params)
                slice_reports.append(
                    PolicySliceReport(
                        policy=policy.key,
                        slice_name=pop.name,
                        channels=pop.channels,
                        lifespan_years=pop.lifespan_years,
                        power_overhead=_with_static(
                            power, variant.static_power_overhead
                        ),
                        performance_overhead=_with_static(
                            perf, variant.static_performance_overhead
                        ),
                        sdc_per_1k_machine_years=sdc,
                        due_per_1k_machine_years=due,
                        uncorrectable_fraction=binomial_confidence_interval(
                            unc_sum, pop.channels
                        ),
                    )
                )
                fleet_power.add(power.count, power.total, power.total_sq)
                fleet_perf.add(perf.count, perf.total, perf.total_sq)
                fleet_unc_sum += unc_sum
                fleet_unc_n += pop.channels
                sdc_per_year += pop.channels * sdc / 1000.0
                due_per_year += pop.channels * due / 1000.0
            any_variant = effective[
                (policy.key, scenario.populations[0].name)
            ]
            summaries.append(
                PolicyFleetSummary(
                    policy=policy.key,
                    title=any_variant.title,
                    power_overhead=_with_static(
                        fleet_power,
                        _fleet_static(scenario.populations, static_power),
                    ),
                    performance_overhead=_with_static(
                        fleet_perf,
                        _fleet_static(scenario.populations, static_perf),
                    ),
                    sdc_events_per_year=sdc_per_year,
                    due_events_per_year=due_per_year,
                    uncorrectable_fraction=binomial_confidence_interval(
                        fleet_unc_sum, fleet_unc_n
                    ),
                )
            )
        return PolicyComparisonReport(
            scenario=scenario.name,
            description=scenario.description,
            policies=[policy.key for policy in built],
            slices=slice_reports,
            fleet=summaries,
            profiles=(
                None
                if profiles is None
                else [
                    profiles[pair]
                    for pair in sorted(
                        {
                            (policy.key, pop.config.name)
                            for policy in built
                            for pop in scenario.populations
                        }
                    )
                ]
            ),
        )

    batch = gather(plans, assemble)
    return ExperimentPlan(name="fleet-compare", jobs=batch.jobs, assemble=batch.assemble)


def plan_fleet_compare_measured(
    scenario: "FleetScenario | str" = "mixed-generations",
    policies: Sequence[str] = POLICY_KEYS,
    channels: Optional[int] = None,
    seed: int = DEFAULT_FLEET_SEED,
    mixes: Optional[Sequence[WorkloadMix]] = None,
    instructions_per_core: int = MEASUREMENT_CONFIG.instructions_per_core,
    measurement_seed: int = MEASUREMENT_CONFIG.seed,
    planes: Optional[Dict[Any, ExperimentPlan]] = None,
) -> ExperimentPlan:
    """The measured comparison as a two-stage plan (the only measured path).

    The plan's jobs are the measurement points of every organization
    the scenario deploys (the expensive, cache-shared part). Assembly
    reduces them into profiles and returns the follow-up plan
    :func:`plan_fleet_compare` with those profiles: its comparison
    blocks carry the measured weights in their configuration, so the
    executor keys, caches, deduplicates and fans them out like any
    other jobs, and a warm rerun executes neither stage. Several such
    plans in one ``execute_plans`` batch (scenarios or study points on
    the same organizations) share their measurement points through
    in-batch dedup. Results are bit-identical at any worker count:
    measurement points and blocks own explicit seeds. ``mixes``
    defaults to every workload mix; a single-channel organization
    raises ``ValueError`` at build time.

    ``planes`` is a caller's memo of measurement plans, keyed by their
    arguments: comparisons planned with one memo build each distinct
    measurement plan once and share its jobs (a study's rate
    multipliers at one instruction scale do).
    """
    scenario = resolve_scenario(scenario)
    if channels is not None:
        scenario = scenario.scaled_to(channels)
    policies = tuple(policies)
    organizations = scenario.organizations()
    plane = (
        policies,
        organizations,
        None if mixes is None else tuple(mixes),
        instructions_per_core,
        measurement_seed,
    )
    if planes is None:
        planes = {}
    measured_plan = planes.get(plane)
    if measured_plan is None:
        measured_plan = planes[plane] = plan_measured_profiles(
            policies=policies,
            organizations=organizations,
            mixes=mixes,
            instructions_per_core=instructions_per_core,
            seed=measurement_seed,
        )

    def assemble(values: List[Any]) -> ExperimentPlan:
        return plan_fleet_compare(
            scenario=scenario,
            policies=policies,
            seed=seed,
            profiles=measured_plan.assemble(values),
        )

    return ExperimentPlan(
        name="fleet-compare-measured",
        jobs=measured_plan.jobs,
        assemble=assemble,
    )
