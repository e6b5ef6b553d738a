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
  factor ``F = 2 (2r + 2w) / (r + 2w)`` (retained as
  :func:`_lotecc_factor`, the documented approximation this mode
  replaces). Weights stay clamped to the Figure 7.6 worst case
  ``(F_wc - 1) f`` / ``(1 - 1/F_wc) f`` per class, with
  :data:`~repro.core.lotecc_arcc.WORST_CASE_UPGRADE_FACTOR` the
  all-reads ceiling.

Every simulation point funnels through
:func:`~repro.perf.engine.simulate_point_job` with the Figure 7.1-7.3
seeds, so points shared with those figures are one cache entry (and one
in-batch computation); the sccdcd lane point is likewise the arcc lane
point, computed once. Measurement is a plan, never an eager call:
:func:`~repro.fleet.policies.plan_fleet_compare_measured` composes it
with the comparison, and several such plans in one ``execute_plans``
batch (``repro fleet --measured`` over several scenarios, a study's
measured points) share their common points through in-batch dedup.
Across processes they share the same disk-cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import ARCC_MEMORY_CONFIG, MEASUREMENT_CONFIG, MemoryConfig
from repro.core.lotecc_arcc import WORST_CASE_UPGRADE_FACTOR
from repro.faults.models import TABLE_7_4_TYPES, upgraded_page_fraction
from repro.faults.types import FaultType
from repro.perf.engine import arcc_capable, point_job
from repro.perf.simulator import (
    worst_case_performance_ratio,
    worst_case_power_ratio,
)
from repro.fleet.report import MeanCI
from repro.runner import ExperimentPlan, Job, ResultCache, execute_plan
from repro.util.stats import confidence_interval
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


def _lotecc_factor(write_fraction: float) -> float:
    """Closed-form LOT-ECC upgrade factor for one read/write split.

    ``2 * (2r + 2w) / (r + 2w)``: devices double, and the operation
    count moves from ``r + 2w`` (nine-device LOT-ECC: extra write per
    write) to ``2r + 2w`` (18-device: extra read per read as well).
    All-reads recovers the worst case 4x of Figure 7.6; all-writes
    bottoms out at 2x (both modes already pay the checksum write).

    Retained as the documented approximation the direct checksum-replay
    measurement (``SweepPoint.lotecc_checksum``) replaced — the profile
    pipeline no longer scales by it, but it remains the analytic
    reference the replay mode is sanity-checked against.

    Examples
    --------
    >>> _lotecc_factor(0.0)     # all reads: the Figure 7.6 worst case
    4.0
    >>> _lotecc_factor(1.0)     # all writes
    2.0
    """
    r = 1.0 - write_fraction
    w = write_fraction
    return 2.0 * (2.0 * r + 2.0 * w) / (r + 2.0 * w)


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


def _check_policies(policies: Sequence[str]) -> Tuple[str, ...]:
    unknown = [key for key in policies if key not in POLICY_FAULT_CLASSES]
    if unknown:
        from repro.util.suggest import unknown_key_message

        raise KeyError(
            unknown_key_message(
                "policy key", unknown[0], POLICY_FAULT_CLASSES
            )
        )
    return tuple(dict.fromkeys(policies))


def _check_organizations(
    organizations: Sequence[MemoryConfig],
) -> Tuple[MemoryConfig, ...]:
    seen: Dict[str, MemoryConfig] = {}
    for config in organizations:
        if not arcc_capable(config):
            raise ValueError(
                f"organization {config.name!r} has {config.channels} "
                "channel(s); measured overheads need the >=2 channels "
                "ARCC pairing requires (use worst-case weights instead)"
            )
        known = seen.setdefault(config.name, config)
        if known != config:
            raise ValueError(
                f"two different organizations share the name {config.name!r}"
            )
    return tuple(seen.values())


def plan_measured_profiles(
    policies: Sequence[str] = tuple(POLICY_FAULT_CLASSES),
    organizations: Sequence[MemoryConfig] = (ARCC_MEMORY_CONFIG,),
    mixes: Optional[Sequence[WorkloadMix]] = None,
    instructions_per_core: int = MEASUREMENT_CONFIG.instructions_per_core,
    seed: int = MEASUREMENT_CONFIG.seed,
) -> ExperimentPlan:
    """Measured overheads as runner jobs: one per (policy, mix, class).

    Per organization and mix there is one shared fault-free baseline
    job and one job per (policy, fault class) at the class's Table 7.4
    fraction *for that organization*. LOT-ECC points (class points and
    their own relaxed baseline) run in the engine's checksum-replay
    mode, and only their job configurations carry
    ``lotecc_checksum=True``. Jobs whose computation coincides — any
    point shared with Figures 7.1-7.3 — dedup in-batch and in the
    result cache. Assembles a dict keyed by (policy, organization name).
    """
    policies = _check_policies(policies)
    organizations = _check_organizations(organizations)
    mixes = list(mixes) if mixes is not None else list(ALL_MIXES)

    jobs: List[Job] = []
    # descriptor: ("base"|"lotbase", org index, mix index) or
    #             ("class", org index, mix index, policy, fault type)
    descriptors: List[Tuple[Any, ...]] = []
    for o, config in enumerate(organizations):
        for m, mix in enumerate(mixes):
            jobs.append(
                point_job(
                    f"measured[{config.name}/{mix.name}][fault-free]",
                    mix=mix,
                    config=config,
                    upgraded_fraction=0.0,
                    instructions_per_core=instructions_per_core,
                    seed=seed,
                )
            )
            descriptors.append(("base", o, m))
            if "lotecc" in policies:
                # Relaxed LOT-ECC still pays its checksum write per
                # write, so the LOT-ECC ratio's denominator replays in
                # the same checksum mode as its numerator.
                jobs.append(
                    point_job(
                        f"measured[{config.name}/{mix.name}]"
                        "[lotecc-relaxed]",
                        mix=mix,
                        config=config,
                        upgraded_fraction=0.0,
                        instructions_per_core=instructions_per_core,
                        seed=seed,
                        lotecc_checksum=True,
                    )
                )
                descriptors.append(("lotbase", o, m))
            for policy in policies:
                for fault_type in POLICY_FAULT_CLASSES[policy]:
                    kwargs: Dict[str, Any] = {}
                    if policy == "lotecc":
                        kwargs["lotecc_checksum"] = True
                    jobs.append(
                        point_job(
                            f"measured[{config.name}/{policy}/{mix.name}]"
                            f"[{fault_type.value}]",
                            mix=mix,
                            config=config,
                            upgraded_fraction=upgraded_page_fraction(
                                fault_type, config
                            ),
                            instructions_per_core=instructions_per_core,
                            seed=seed,
                            **kwargs,
                        )
                    )
                    descriptors.append(("class", o, m, policy, fault_type))

    mix_names = tuple(mix.name for mix in mixes)

    def assemble(values: List[Any]) -> ProfileMap:
        base: Dict[Tuple[int, int], Dict[str, float]] = {}
        lotecc_base: Dict[Tuple[int, int], Dict[str, float]] = {}
        points: Dict[Tuple[int, int, str, FaultType], Dict[str, float]] = {}
        for descriptor, value in zip(descriptors, values):
            if descriptor[0] == "base":
                base[descriptor[1:]] = value
            elif descriptor[0] == "lotbase":
                lotecc_base[descriptor[1:]] = value
            else:
                points[descriptor[1:]] = value

        profiles: ProfileMap = {}
        for o, config in enumerate(organizations):
            for policy in policies:
                power: Dict[FaultType, MeanCI] = {}
                performance: Dict[FaultType, MeanCI] = {}
                worst_power: Dict[FaultType, float] = {}
                worst_perf: Dict[FaultType, float] = {}
                for fault_type in POLICY_FAULT_CLASSES[policy]:
                    fraction = upgraded_page_fraction(fault_type, config)
                    power_samples: List[float] = []
                    perf_samples: List[float] = []
                    for m in range(len(mixes)):
                        fault_free = (
                            lotecc_base[(o, m)]
                            if policy == "lotecc"
                            else base[(o, m)]
                        )
                        point = points[(o, m, policy, fault_type)]
                        p, q, wp, wq = _class_samples(
                            policy,
                            fraction,
                            point["power_w"] / fault_free["power_w"],
                            point["performance"] / fault_free["performance"],
                        )
                        power_samples.append(p)
                        perf_samples.append(q)
                        worst_power[fault_type] = wp
                        worst_perf[fault_type] = wq
                    power[fault_type] = confidence_interval(power_samples)
                    performance[fault_type] = confidence_interval(
                        perf_samples
                    )
                static_power: MeanCI = (0.0, 0.0)
                static_perf: MeanCI = (0.0, 0.0)
                per_fault_power = power
                per_fault_perf = performance
                if policy == "sccdcd":
                    # Always-strong: the lane measurement becomes the
                    # constant premium; nothing accrues per fault.
                    static_power = power[FaultType.LANE]
                    static_perf = performance[FaultType.LANE]
                    per_fault_power = {}
                    per_fault_perf = {}
                    worst_power = {}
                    worst_perf = {}
                profiles[(policy, config.name)] = MeasuredOverheadProfile(
                    policy=policy,
                    organization=config.name,
                    power=per_fault_power,
                    performance=per_fault_perf,
                    worst_case_power=worst_power,
                    worst_case_performance=worst_perf,
                    static_power=static_power,
                    static_performance=static_perf,
                    mixes=mix_names,
                    instructions_per_core=instructions_per_core,
                    seed=seed,
                )
        return profiles

    return ExperimentPlan(name="measured", jobs=jobs, assemble=assemble)


_ratio_memo: Dict[Tuple[Any, ...], Dict[FaultType, Tuple[float, float]]] = {}


def clear_measured_memo() -> None:
    """Drop the per-process measurement memo (cold-run benchmarking)."""
    _ratio_memo.clear()


def measured_fault_ratios(
    mixes: Optional[Sequence[WorkloadMix]] = None,
    instructions_per_core: int = MEASUREMENT_CONFIG.instructions_per_core,
    seed: int = MEASUREMENT_CONFIG.seed,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Dict[FaultType, Tuple[float, float]]:
    """Measured (power, performance) ratios per fault type (Fig 7.2/7.3).

    The ``overheads=`` input of measured Figures 7.4/7.5, memoized per
    process; it shares the per-(mix, point) cache entries with
    :func:`plan_measured_profiles` — one measurement feeds Figures
    7.4/7.5 *and* the policy comparison. The memo is keyed on each mix's
    benchmarks as well as its name, so a custom mix that reuses a
    built-in name never gets the built-in's ratios.
    """
    from repro.experiments.fig7_2_7_3 import plan_fig7_2_7_3

    mix_list = list(mixes) if mixes is not None else list(ALL_MIXES)
    key = (
        tuple((mix.name, mix.benchmark_names) for mix in mix_list),
        instructions_per_core,
        seed,
    )
    if key not in _ratio_memo:
        result = execute_plan(
            plan_fig7_2_7_3(
                mixes=mix_list,
                instructions_per_core=instructions_per_core,
                seed=seed,
            ),
            max_workers=jobs,
            cache=cache,
        )
        _ratio_memo[key] = {
            ft: (
                result.average_power_ratio(ft),
                result.average_performance_ratio(ft),
            )
            for ft in result.fault_types
        }
    return _ratio_memo[key]


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
    "MeasuredOverheadProfile",
    "POLICY_FAULT_CLASSES",
    "ProfileMap",
    "clear_measured_memo",
    "measured_fault_ratios",
    "plan_measured_profiles",
    "profiles_to_table",
]
