"""The protection policies, and their measured per-fault weights.

:data:`POLICIES` is the one definition of the policies ``repro fleet
--policies`` compares: one frozen :class:`ProtectionPolicy` record per
key (``arcc``, ``sccdcd``, ``lotecc``), carrying everything the code
knows of a policy — the fault classes it measures, whether it is always
strong, whether it measures in LOT-ECC checksum mode, its worst-case
upgrade factor, whether it has sparing-class correction, and its
default weights and caps. Every consumer reads these fields; none
compares a policy key with a literal. :func:`check_policy_keys` and
:func:`check_policy_set` are the key checks.

The paper's headline comparison needs *measured* costs, not worst-case
arithmetic: Figures 7.2/7.3 show that real workloads reuse the second
sub-line of an upgraded pair, so the energy/bandwidth cost of upgraded
pages sits well below ``1 + fraction``. This module replays
per-(policy, mix, fault-class) trace points on the batched engine and
reduces them into :class:`MeasuredOverheadProfile` objects — per-fault
additive weights with 95% confidence intervals across mixes — that
:func:`~repro.fleet.policies.measured_policy` swaps into the records.

The arithmetic, per fault class with Table 7.4 fraction ``f`` (evaluated
against the slice's own :class:`~repro.config.MemoryConfig`, so custom
scenario-file organizations get their own fractions and their own
measured points): the measured excess is read straight off the trace
ratios, ``power = ratio - 1`` and ``perf = 1 - ratio``, each clamped to
``[0, worst case]`` by :func:`worst_case_weights`, the one worst-case
formula (Section 7.2's ``f`` and ``f / (1 + f)``, or Figure 7.6's
``(F - 1) f`` and ``(1 - 1/F) f`` for a policy with an upgrade factor
``F``).

* **sccdcd** (``always_strong``) pays ARCC's fully-upgraded state as a
  constant premium: the measured lane-class (fraction 1) weights.
* **lotecc** (``lotecc_checksum``) is measured *directly*: the replay
  engine's LOT-ECC checksum mode (``SweepPoint.lotecc_checksum``)
  issues the extra checksum operations in the trace itself — every
  write pays its checksum write in both modes, every upgraded fill adds
  one checksum read per sub-line on the critical path — and each class
  point is compared against a relaxed LOT-ECC baseline replayed in the
  same mode, so the ratios price the real traffic.

The ratios come from :func:`~repro.perf.engine.plan_trace_ratios`, the
normalization plan behind Figures 7.2/7.3 and the measured fraction
sweep, with the Figure 7.1-7.3 seeds, so points shared with those
figures are one cache entry (and one in-batch computation); the sccdcd
lane point is likewise the arcc lane point, computed once. Measurement
is a plan, never an eager call:
:func:`~repro.fleet.policies.plan_fleet_compare_measured` composes it
with the comparison the way
:func:`~repro.experiments.fig7_4_7_5.plan_fig7_4_7_5_measured` composes
the Figure 7.2 grid with Figures 7.4/7.5, and several such plans in one
``execute_plans`` batch (``repro fleet --measured`` over several
scenarios, a study's measured points) share their common points through
in-batch dedup. Across processes they share the same disk-cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import (
    ARCC_MEMORY_CONFIG,
    MEASUREMENT_CONFIG,
    MemoryConfig,
    distinct_organizations,
)
from repro.ecc.lotecc import WORST_CASE_UPGRADE_FACTOR
from repro.faults.models import TABLE_7_4_TYPES, upgraded_page_fraction
from repro.faults.types import FaultType
from repro.fleet.report import MeanCI
from repro.perf.engine import plan_trace_ratios
from repro.perf.simulator import (
    worst_case_performance_ratio,
    worst_case_power_ratio,
)
from repro.runner.job import ExperimentPlan
from repro.util.fields import FieldError
from repro.util.stats import confidence_interval
from repro.util.suggest import unknown_key_message
from repro.util.tables import format_table
from repro.workloads.spec import ALL_MIXES, WorkloadMix

#: Measured per-fault-type overheads (power ratio, performance ratio)
#: averaged over the 12 mixes at the default simulation scale: the
#: weights of Figures 7.4/7.5 and of the ``arcc``/``sccdcd`` policies
#: when nothing is measured. Regenerate with
#: :func:`~repro.experiments.fig7_4_7_5.plan_fig7_4_7_5_measured` when
#: the simulator or profiles change —
#: `benchmarks/test_fig7_4_7_5_lifetime.py` runs it.
FALLBACK_OVERHEADS: Dict[FaultType, Tuple[float, float]] = {
    FaultType.LANE: (1.38, 1.02),
    FaultType.DEVICE: (1.16, 1.00),
    FaultType.BANK: (1.02, 1.00),
    FaultType.COLUMN: (1.01, 1.00),
}


def worst_case_weights(
    fraction: float, upgrade_factor: Optional[float] = None
) -> Tuple[float, float]:
    """Additive ``(power, performance loss)`` worst case of upgrading
    ``fraction`` of the pages: every policy's default weights and the
    oracle bound of every measured weight.

    With an ``upgrade_factor`` it is Figure 7.6's arithmetic: an
    upgraded access costs ``factor``x a relaxed one, so power grows by
    ``(factor - 1) f`` and performance loses ``(1 - 1/factor) f``.
    Without one it is Section 7.2's 2x pair access:
    :func:`~repro.perf.simulator.worst_case_power_ratio` and
    :func:`~repro.perf.simulator.worst_case_performance_ratio`.
    """
    if upgrade_factor is None:
        return (
            worst_case_power_ratio(fraction) - 1.0,
            1.0 - worst_case_performance_ratio(fraction),
        )
    return (
        (upgrade_factor - 1.0) * fraction,
        (1.0 - 1.0 / upgrade_factor) * fraction,
    )


def _worst_case_rows(
    upgrade_factor: Optional[float] = None,
) -> Tuple[Tuple[Dict[FaultType, float], float], ...]:
    """``(per_fault, cap)`` of the worst-case power and perf series over
    the Table 7.4 classes; the cap is the fully-upgraded worst case."""
    weights = [
        worst_case_weights(upgraded_page_fraction(ft), upgrade_factor)
        for ft in TABLE_7_4_TYPES
    ]
    caps = worst_case_weights(1.0, upgrade_factor)
    return tuple(
        (dict(zip(TABLE_7_4_TYPES, column)), cap)
        for column, cap in zip(zip(*weights), caps)
    )


def overhead_series_rows(
    overheads: Dict[FaultType, Tuple[float, float]],
) -> Tuple[Tuple[Dict[FaultType, float], float], ...]:
    """``(per_fault, cap)`` of the power, perf, worst-power and
    worst-perf series: additive weights per fault, and the accumulation
    cap (fully-upgraded behaviour)."""
    worst_power, worst_perf = _worst_case_rows()
    return (
        ({ft: max(ratio - 1.0, 0.0) for ft, (ratio, _) in overheads.items()}, worst_power[1]),
        ({ft: max(1.0 - ratio, 0.0) for ft, (_, ratio) in overheads.items()}, worst_perf[1]),
        worst_power,
        worst_perf,
    )


@dataclass(frozen=True)
class ProtectionPolicy:
    """One protection scheme: how it is measured, what it costs and
    what it covers.

    Overheads are fractions of the ARCC *relaxed* baseline (the cheapest
    mode any policy can run): ``static_*`` is paid from deployment on,
    ``per_fault_*`` adds per arrived fault (capped at ``*_cap``, the
    fully-upgraded behaviour) through
    :func:`~repro.fleet.engine.overhead_series_by_year`. The records of
    :data:`POLICIES` carry the default weights;
    :func:`~repro.fleet.policies.measured_policy` swaps in measured ones.
    """

    key: str
    title: str
    #: Fault classes :func:`plan_measured_profiles` replays.
    fault_classes: Tuple[FaultType, ...]
    #: Strong double detection from deployment on: an SDC needs three
    #: overlapping faults (Section 6.2, otherwise the relaxed pair race),
    #: and the measured lane class is a constant premium, not a
    #: per-fault weight.
    always_strong: bool = False
    #: Measured in the trace engine's LOT-ECC checksum-replay mode,
    #: against a relaxed LOT-ECC baseline.
    lotecc_checksum: bool = False
    #: The :func:`worst_case_weights` factor: ``None`` is Section 7.2's
    #: pair access.
    upgrade_factor: Optional[float] = None
    #: Sparing-class correction: the pair race that defeats correction
    #: closes at the next scrub pass, not at repair.
    sparing: bool = False
    static_power_overhead: float = 0.0
    static_performance_overhead: float = 0.0
    per_fault_power: Dict[FaultType, float] = field(default_factory=dict)
    per_fault_performance: Dict[FaultType, float] = field(default_factory=dict)
    power_cap: float = 1.0
    performance_cap: float = 0.5


def _default_policies() -> Tuple[ProtectionPolicy, ...]:
    """The paper's three-way comparison, with the default weights."""
    (power, _), (perf, _), _, _ = overhead_series_rows(FALLBACK_OVERHEADS)
    (lot_power, lot_power_cap), (lot_perf, lot_perf_cap) = _worst_case_rows(
        WORST_CASE_UPGRADE_FACTOR
    )
    return (
        # SCCDCD+ARCC (Chapter 4) with the Figure 7.4/7.5 fallback
        # weights, so it never drifts from the figure it mirrors.
        ProtectionPolicy(
            key="arcc",
            title="SCCDCD+ARCC (relaxed, upgrade per fault)",
            fault_classes=TABLE_7_4_TYPES,
            per_fault_power=power,
            per_fault_performance=perf,
        ),
        # Always-strong commercial chipkill (the Table 7.1 baseline): its
        # premium is ARCC's fully-upgraded state, the lane-class weight
        # (a lane fault upgrades every page), so ARCC's cost approaches
        # exactly SCCDCD's floor as faults accumulate.
        ProtectionPolicy(
            key="sccdcd",
            title="SCCDCD (always strong)",
            fault_classes=(FaultType.LANE,),
            always_strong=True,
            static_power_overhead=power[FaultType.LANE],
            static_performance_overhead=perf[FaultType.LANE],
        ),
        # ARCC applied to LOT-ECC (Section 5.2): Figure 7.6's worst-case
        # weights, double-chip-sparing correction.
        ProtectionPolicy(
            key="lotecc",
            title="LOT-ECC+ARCC (9 -> 18 devices, double sparing)",
            fault_classes=TABLE_7_4_TYPES,
            lotecc_checksum=True,
            upgrade_factor=WORST_CASE_UPGRADE_FACTOR,
            sparing=True,
            per_fault_power=lot_power,
            per_fault_performance=lot_perf,
            power_cap=lot_power_cap,
            performance_cap=lot_perf_cap,
        ),
    )


#: Every policy ``repro fleet --policies`` accepts, by key, in table
#: order.
POLICIES: Dict[str, ProtectionPolicy] = {
    policy.key: policy for policy in _default_policies()
}

#: Policy keys, in table order.
POLICY_KEYS: Tuple[str, ...] = tuple(POLICIES)

#: Profiles keyed by (policy key, organization name).
ProfileMap = Dict[Tuple[str, str], "MeasuredOverheadProfile"]


@dataclass(frozen=True)
class MeasuredOverheadProfile:
    """Measured per-fault weights of one (policy, organization).

    Weights are *additive overhead fractions of the relaxed baseline*
    (the same unit :class:`ProtectionPolicy` accumulates), each a
    ``(mean, 95% half-width)`` pair over the measured mixes and clamped
    to :func:`worst_case_weights` — the documented upper bound, kept in
    ``worst_case_power`` / ``worst_case_performance`` as the oracle the
    bounds tests compare against.
    """

    policy: str
    organization: str
    #: fault class -> (mean additive power weight, CI half-width)
    power: Dict[FaultType, MeanCI]
    #: fault class -> (mean additive performance-loss weight, CI)
    performance: Dict[FaultType, MeanCI]
    #: fault class -> worst-case additive weight (the oracle bound)
    worst_case_power: Dict[FaultType, float]
    worst_case_performance: Dict[FaultType, float]
    #: Constant premium (sccdcd); zero for the adaptive policies.
    static_power: MeanCI = (0.0, 0.0)
    static_performance: MeanCI = (0.0, 0.0)
    mixes: Tuple[str, ...] = ()
    instructions_per_core: int = MEASUREMENT_CONFIG.instructions_per_core
    seed: int = MEASUREMENT_CONFIG.seed

    def per_fault_power(self) -> Dict[FaultType, float]:
        """Mean additive power weights (the policy-model input)."""
        return {ft: mean for ft, (mean, _) in self.power.items()}

    def per_fault_performance(self) -> Dict[FaultType, float]:
        """Mean additive performance weights (the policy-model input)."""
        return {ft: mean for ft, (mean, _) in self.performance.items()}

    @property
    def power_cap(self) -> float:
        """Measured saturation: fully-upgraded behaviour under power.

        The largest class weight — the lane class (fraction 1) for the
        Table 7.4 set — since a channel's accumulated overhead can never
        exceed everything-upgraded behaviour.
        """
        return max(
            (mean for mean, _ in self.power.values()), default=0.0
        )

    @property
    def performance_cap(self) -> float:
        """Measured saturation under performance loss."""
        return max(
            (mean for mean, _ in self.performance.values()), default=0.0
        )

    def validate_bounds(self) -> None:
        """Raise if any measured weight exceeds its worst-case oracle."""
        for name, measured, worst in (
            ("power", self.power, self.worst_case_power),
            ("performance", self.performance, self.worst_case_performance),
        ):
            for ft, (mean, _) in measured.items():
                if mean > worst[ft] + 1e-12:
                    raise ValueError(
                        f"{self.policy}/{self.organization}: measured "
                        f"{name} weight of {ft.value} ({mean:.6f}) exceeds "
                        f"the worst-case bound {worst[ft]:.6f}"
                    )


def _clamp(value: float, upper: float) -> float:
    return min(max(value, 0.0), upper)


def _class_samples(
    policy: ProtectionPolicy,
    fraction: float,
    power_ratio: float,
    performance_ratio: float,
) -> Tuple[float, float, float, float]:
    """(power, perf, worst power, worst perf) weights of one (mix, class).

    Ratios are point over the policy's own relaxed baseline — for a
    checksum-mode policy both sides of the ratio ran in that mode, so
    the measured excess *is* the direct extra-traffic cost and the
    weights read off identically for every policy; only the worst-case
    clamp, the policy's :func:`worst_case_weights`, differs.
    """
    worst_power, worst_perf = worst_case_weights(fraction, policy.upgrade_factor)
    return (
        _clamp(power_ratio - 1.0, worst_power),
        _clamp(1.0 - performance_ratio, worst_perf),
        worst_power,
        worst_perf,
    )


def check_policy_set(
    keys: Sequence[str], field: str = "policies"
) -> Tuple[str, ...]:
    """The one check of a policy comparison: non-empty, known, distinct.

    Raises :class:`~repro.util.fields.FieldError` at ``field`` (empty)
    or ``field[i]`` (the offending key, with a closest-match suggestion
    when unknown); a scenario file's ``policies`` and every policy set
    of a study pass through here.
    """
    if not keys:
        raise FieldError(
            field, "policy set must not be empty; name at least one policy"
        )
    for i, key in enumerate(keys):
        if key not in POLICIES:
            raise FieldError(
                f"{field}[{i}]", unknown_key_message("policy", key, POLICIES)
            )
        if key in keys[:i]:
            raise FieldError(f"{field}[{i}]", f"duplicate policy {key!r}")
    return tuple(keys)


def check_policy_keys(keys: Sequence[str]) -> Tuple[str, ...]:
    """The keys of a policy comparison a caller asked for, checked.

    An unknown key raises ``KeyError`` naming the closest known policy;
    an empty or repeating set fails :func:`check_policy_set`.
    """
    for key in keys:
        if key not in POLICIES:
            raise KeyError(unknown_key_message("policy", key, POLICIES))
    return check_policy_set(keys)


def plan_measured_profiles(
    policies: Sequence[str] = POLICY_KEYS,
    organizations: Sequence[MemoryConfig] = (ARCC_MEMORY_CONFIG,),
    mixes: Optional[Sequence[WorkloadMix]] = None,
    instructions_per_core: int = MEASUREMENT_CONFIG.instructions_per_core,
    seed: int = MEASUREMENT_CONFIG.seed,
) -> ExperimentPlan:
    """Measured overheads as runner jobs: one per (policy, mix, class).

    Per organization there are up to two
    :func:`~repro.perf.engine.plan_trace_ratios` grids over each
    requested policy's class fractions *for that organization*: a
    relaxed one when ``arcc`` or ``sccdcd`` is requested, and a LOT-ECC
    one in the engine's checksum-replay mode, normalized to its own
    relaxed LOT-ECC baseline. Jobs whose computation coincides — the
    sccdcd lane point is the arcc lane point, and every relaxed point
    is a Figures 7.1-7.3 point — dedup in-batch and in the result
    cache. Assembles a dict keyed by (policy, organization name).

    Examples
    --------
    >>> len(plan_measured_profiles(mixes=ALL_MIXES[:2]).jobs)
    22
    >>> len(plan_measured_profiles(("lotecc",), mixes=ALL_MIXES[:2]).jobs)
    10
    """
    records = [POLICIES[key] for key in check_policy_keys(policies)]
    organizations = distinct_organizations(organizations)
    mixes = list(mixes) if mixes is not None else list(ALL_MIXES)

    # (organization, checksum mode) -> the ratio grid measured in it.
    # Relaxed LOT-ECC still pays its checksum write per write, so the
    # LOT-ECC grid's baseline replays in checksum mode too.
    grids: Dict[Tuple[str, bool], ExperimentPlan] = {}
    for config in organizations:
        for checksum in (False, True):
            measured = [
                policy for policy in records if policy.lotecc_checksum == checksum
            ]
            if measured:
                grids[(config.name, checksum)] = plan_trace_ratios(
                    f"measured[{config.name}{'/lotecc' if checksum else ''}]",
                    mixes,
                    [
                        upgraded_page_fraction(fault_type, config)
                        for policy in measured
                        for fault_type in policy.fault_classes
                    ],
                    config,
                    instructions_per_core,
                    seed,
                    lotecc_checksum=checksum,
                )
    mix_names = tuple(mix.name for mix in mixes)

    def assemble(values: List[Any]) -> ProfileMap:
        rest = iter(values)
        ratios = {
            key: grid.assemble([next(rest) for _ in grid.jobs])
            for key, grid in grids.items()
        }

        profiles: ProfileMap = {}
        for config in organizations:
            for policy in records:
                grid = ratios[(config.name, policy.lotecc_checksum)]
                power: Dict[FaultType, MeanCI] = {}
                performance: Dict[FaultType, MeanCI] = {}
                worst_power: Dict[FaultType, float] = {}
                worst_perf: Dict[FaultType, float] = {}
                for fault_type in policy.fault_classes:
                    fraction = upgraded_page_fraction(fault_type, config)
                    p, q, wp, wq = zip(
                        *(
                            _class_samples(policy, fraction, *grid[(name, fraction)])
                            for name in mix_names
                        )
                    )
                    power[fault_type] = confidence_interval(p)
                    performance[fault_type] = confidence_interval(q)
                    worst_power[fault_type], worst_perf[fault_type] = wp[0], wq[0]
                static_power: MeanCI = (0.0, 0.0)
                static_perf: MeanCI = (0.0, 0.0)
                if policy.always_strong:
                    # The lane measurement becomes the constant premium;
                    # nothing accrues per fault.
                    static_power = power.pop(FaultType.LANE)
                    static_perf = performance.pop(FaultType.LANE)
                    worst_power = {}
                    worst_perf = {}
                profiles[(policy.key, config.name)] = MeasuredOverheadProfile(
                    policy=policy.key,
                    organization=config.name,
                    power=power,
                    performance=performance,
                    worst_case_power=worst_power,
                    worst_case_performance=worst_perf,
                    static_power=static_power,
                    static_performance=static_perf,
                    mixes=mix_names,
                    instructions_per_core=instructions_per_core,
                    seed=seed,
                )
        return profiles

    return ExperimentPlan(
        name="measured",
        jobs=[job for grid in grids.values() for job in grid.jobs],
        assemble=assemble,
    )


def clear_measured_memo() -> None:
    """Do nothing: measurement is a plan and keeps no per-process memo.

    Kept only for the benchmark harness, which still calls it before
    each cold run.
    """


def profiles_to_table(profiles: Mapping[Tuple[str, str], Any]) -> str:
    """Render measured weights next to their worst-case oracle bounds."""
    rows = []
    for (policy, organization), profile in profiles.items():
        for fault_type in profile.power:
            p_mean, p_half = profile.power[fault_type]
            q_mean, q_half = profile.performance[fault_type]
            rows.append(
                [
                    policy,
                    organization,
                    fault_type.value,
                    f"{p_mean * 100:.3f}% ±{p_half * 100:.3f}",
                    f"{profile.worst_case_power[fault_type] * 100:.3f}%",
                    f"{q_mean * 100:.3f}% ±{q_half * 100:.3f}",
                    f"{profile.worst_case_performance[fault_type] * 100:.3f}%",
                ]
            )
        if profile.static_power != (0.0, 0.0):
            s_mean, s_half = profile.static_power
            t_mean, t_half = profile.static_performance
            rows.append(
                [
                    policy,
                    organization,
                    "static premium",
                    f"{s_mean * 100:.3f}% ±{s_half * 100:.3f}",
                    "-",
                    f"{t_mean * 100:.3f}% ±{t_half * 100:.3f}",
                    "-",
                ]
            )
    return format_table(
        [
            "Policy",
            "Organization",
            "Fault class",
            "Power weight",
            "Worst case",
            "Perf weight",
            "Worst case",
        ],
        rows,
        title=(
            "Measured per-fault weights (95% CI across mixes; "
            "worst case = documented upper bound)"
        ),
    )


__all__ = [
    "FALLBACK_OVERHEADS",
    "MeasuredOverheadProfile",
    "POLICIES",
    "POLICY_KEYS",
    "ProfileMap",
    "ProtectionPolicy",
    "check_policy_keys",
    "check_policy_set",
    "clear_measured_memo",
    "overhead_series_rows",
    "plan_measured_profiles",
    "profiles_to_table",
    "worst_case_weights",
]
