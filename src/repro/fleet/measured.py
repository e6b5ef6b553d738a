"""The perf -> fleet bridge: measured per-fault policy weights.

The paper's headline comparison needs *measured* costs, not worst-case
arithmetic: Figures 7.2/7.3 show that real workloads reuse the second
sub-line of an upgraded pair, so the energy/bandwidth cost of upgraded
pages sits well below ``1 + fraction``. PR 3's policy comparison still
scored ARCC+LOT-ECC with the worst-case Figure 7.6 constants; this
module closes the loop by replaying per-(policy, mix, fault-class)
trace points on the batched engine and reducing them into
:class:`MeasuredOverheadProfile` objects — per-fault additive weights
with 95% confidence intervals across mixes — that
:func:`~repro.fleet.policies.plan_fleet_compare` swaps into the
:class:`~repro.fleet.policies.ProtectionPolicy` models.

The arithmetic, per fault class with Table 7.4 fraction ``f`` (evaluated
against the slice's own :class:`~repro.config.MemoryConfig`, so custom
scenario-file organizations get their own fractions and their own
measured points):

* **arcc** — the measured excess is read straight off the trace ratios:
  ``power = ratio - 1`` and ``perf = 1 - ratio``, each clamped to
  ``[0, worst case]`` (the Figure 7.2/7.3 worst-case estimates ``f`` and
  ``f / (1 + f)`` stay as the documented oracle bound).
* **sccdcd** — always-strong chipkill pays ARCC's fully-upgraded state
  as a constant premium: the measured lane-class (fraction 1) weights.
* **lotecc** — measured *directly*: the replay engine's LOT-ECC
  checksum mode (``SweepPoint.lotecc_checksum``) issues the extra
  checksum operations in the trace itself — every write pays its
  checksum write in both modes, every upgraded fill adds one checksum
  read per sub-line on the critical path — and each class point is
  compared against a relaxed LOT-ECC baseline replayed in the same
  mode, so ``power = ratio - 1`` and ``perf = 1 - ratio`` price the
  real traffic instead of scaling ARCC's excess by the closed-form
  factor ``F = 2 (2r + 2w) / (r + 2w)``, the approximation this mode
  replaced. Weights stay clamped to the Figure 7.6 worst case
  ``(F_wc - 1) f`` / ``(1 - 1/F_wc) f`` per class, with
  :data:`~repro.core.lotecc_arcc.WORST_CASE_UPGRADE_FACTOR` the
  all-reads ceiling.

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

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import (
    ARCC_MEMORY_CONFIG,
    MEASUREMENT_CONFIG,
    MemoryConfig,
    distinct_organizations,
)
from repro.core.lotecc_arcc import WORST_CASE_UPGRADE_FACTOR
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

#: Fault classes measured per policy. ``sccdcd`` only needs the lane
#: class (its premium is the fully-upgraded state); the adaptive
#: policies accumulate every Table 7.4 class.
POLICY_FAULT_CLASSES: Dict[str, Tuple[FaultType, ...]] = {
    "arcc": TABLE_7_4_TYPES,
    "sccdcd": (FaultType.LANE,),
    "lotecc": TABLE_7_4_TYPES,
}

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

#: Profiles keyed by (policy key, organization name).
ProfileMap = Dict[Tuple[str, str], "MeasuredOverheadProfile"]


@dataclass(frozen=True)
class MeasuredOverheadProfile:
    """Measured per-fault weights of one (policy, organization).

    Weights are *additive overhead fractions of the relaxed baseline*
    (the same unit :class:`~repro.fleet.policies.ProtectionPolicy`
    accumulates), each a ``(mean, 95% half-width)`` pair over the
    measured mixes and clamped to the worst-case arithmetic — the
    documented upper bound, kept in ``worst_case_power`` /
    ``worst_case_performance`` as the oracle the bounds tests compare
    against.
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
    policy: str,
    fraction: float,
    power_ratio: float,
    performance_ratio: float,
) -> Tuple[float, float, float, float]:
    """(power, perf, worst power, worst perf) weights of one (mix, class).

    Ratios are point over the policy's own relaxed baseline — for
    ``lotecc`` both sides of the ratio ran in checksum-replay mode, so
    the measured excess *is* the direct extra-traffic cost and the
    weights read off identically for every policy; only the worst-case
    clamp differs (Figure 7.6's factor-4 arithmetic for LOT-ECC, the
    ``1 + f`` family for the SCCDCD-based policies).
    """
    excess_power = max(power_ratio - 1.0, 0.0)
    perf_loss = max(1.0 - performance_ratio, 0.0)
    if policy == "lotecc":
        worst_factor = WORST_CASE_UPGRADE_FACTOR
        worst_power = (worst_factor - 1.0) * fraction
        worst_perf = (1.0 - 1.0 / worst_factor) * fraction
    else:
        worst_power = worst_case_power_ratio(fraction) - 1.0
        worst_perf = 1.0 - worst_case_performance_ratio(fraction)
    return (
        _clamp(excess_power, worst_power),
        _clamp(perf_loss, worst_perf),
        worst_power,
        worst_perf,
    )


def overhead_series_rows(
    overheads: Dict[FaultType, Tuple[float, float]],
) -> Tuple[Tuple[Dict[FaultType, float], float], ...]:
    """``(per_fault, cap)`` of the power, perf, worst-power and
    worst-perf series: additive weights per fault, and the accumulation
    cap (fully-upgraded behaviour)."""
    return (
        ({ft: max(ratio - 1.0, 0.0) for ft, (ratio, _) in overheads.items()}, 1.0),
        ({ft: max(1.0 - ratio, 0.0) for ft, (_, ratio) in overheads.items()}, 0.5),
        (
            {
                ft: worst_case_power_ratio(upgraded_page_fraction(ft)) - 1.0
                for ft in TABLE_7_4_TYPES
            },
            1.0,
        ),
        (
            {
                ft: 1.0 - worst_case_performance_ratio(upgraded_page_fraction(ft))
                for ft in TABLE_7_4_TYPES
            },
            0.5,
        ),
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
        if key not in POLICY_FAULT_CLASSES:
            raise FieldError(
                f"{field}[{i}]", unknown_key_message("policy", key, POLICY_FAULT_CLASSES)
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
        if key not in POLICY_FAULT_CLASSES:
            raise KeyError(unknown_key_message("policy", key, POLICY_FAULT_CLASSES))
    return check_policy_set(keys)


def plan_measured_profiles(
    policies: Sequence[str] = tuple(POLICY_FAULT_CLASSES),
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
    policies = check_policy_keys(policies)
    organizations = distinct_organizations(organizations)
    mixes = list(mixes) if mixes is not None else list(ALL_MIXES)

    # (organization, checksum mode) -> the ratio grid measured in it.
    # Relaxed LOT-ECC still pays its checksum write per write, so the
    # LOT-ECC grid's baseline replays in checksum mode too.
    grids: Dict[Tuple[str, bool], ExperimentPlan] = {}
    for config in organizations:
        for checksum in (False, True):
            measured = [
                policy for policy in policies if (policy == "lotecc") == checksum
            ]
            if measured:
                grids[(config.name, checksum)] = plan_trace_ratios(
                    f"measured[{config.name}{'/lotecc' if checksum else ''}]",
                    mixes,
                    [
                        upgraded_page_fraction(fault_type, config)
                        for policy in measured
                        for fault_type in POLICY_FAULT_CLASSES[policy]
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
            for policy in policies:
                grid = ratios[(config.name, policy == "lotecc")]
                power: Dict[FaultType, MeanCI] = {}
                performance: Dict[FaultType, MeanCI] = {}
                worst_power: Dict[FaultType, float] = {}
                worst_perf: Dict[FaultType, float] = {}
                for fault_type in POLICY_FAULT_CLASSES[policy]:
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
                if policy == "sccdcd":
                    # Always-strong: the lane measurement becomes the
                    # constant premium; nothing accrues per fault.
                    static_power = power.pop(FaultType.LANE)
                    static_perf = performance.pop(FaultType.LANE)
                    worst_power = {}
                    worst_perf = {}
                profiles[(policy, config.name)] = MeasuredOverheadProfile(
                    policy=policy,
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
    "POLICY_FAULT_CLASSES",
    "ProfileMap",
    "check_policy_keys",
    "check_policy_set",
    "clear_measured_memo",
    "overhead_series_rows",
    "plan_measured_profiles",
    "profiles_to_table",
]
