"""Declarative study campaigns: scenario sweeps as first-class artifacts.

A *study file* is a scenario file plus one ``[study]`` (alias
``[sweep]``) section declaring the sweep axes — measurement instruction
scales, fleet fault-rate multipliers, memory organizations, policy sets
and upgraded fractions. :func:`expand_study` compiles the resulting grid
into **one** deduplicated :class:`~repro.runner.ExperimentPlan` over the
existing machinery (:func:`~repro.fleet.measured.plan_measured_profiles`,
:func:`~repro.fleet.policies.plan_fleet_compare`,
:func:`~repro.experiments.sensitivity.plan_sweep_upgraded_fraction_measured`),
so axis points that share simulations — e.g. every rate multiplier at
one instruction scale reuses that scale's measurement jobs — run once.

:func:`run_study` executes the plan through the parallel runner and
writes ``study_manifest.json``: every produced report keyed by its axis
point, plus the cache key of each underlying job, the code version and
the engine provenance. Combined with the runner's incremental
:class:`~repro.runner.ResultCache` persistence, campaigns are

* **declarative** — the whole grid lives in one TOML/JSON file;
* **resumable** — kill a 500-point run, re-run the same command, and
  only unfinished points simulate (the rest arrive ``cached=True``);
* **diffable** — the manifest is deterministic (``--jobs 1`` and
  ``--jobs 4`` produce bit-identical bytes), so two PRs' campaigns
  diff like source code.

Validation matches the scenario-file idiom: strict keys, dotted error
paths, closest-match suggestions. See ``docs/scenario-files.md`` for the
schema and ``examples/scenarios/scale_study.toml`` for a worked grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.config import MEASUREMENT_CONFIG, MemoryConfig
from repro.experiments.sensitivity import (
    MeasuredFractionSweep,
    plan_sweep_upgraded_fraction_measured,
)
from repro.fleet.measured import plan_measured_profiles
from repro.fleet.policies import (
    DEFAULT_POLICY_KEYS,
    POLICY_KEYS,
    PolicyComparisonReport,
    plan_fleet_compare,
)
from repro.fleet.report import DEFAULT_FLEET_SEED
from repro.fleet.scenario_file import (
    CONFIG_NAMES,
    STUDY_SECTION_KEYS,
    ScenarioFileError,
    _check_float,
    _check_int,
    _check_keys,
    _fail,
    _get_array,
    _get_bool,
    _get_int,
    _type_name,
    load_raw_mapping,
    organization_from_mapping,
    scenario_from_mapping,
)
from repro.fleet.scenarios import FleetScenario
from repro.perf.engine import (
    ENGINE_TIERS,
    arcc_capable,
    engine_provenance,
    resolve_engine,
)
from repro.runner import (
    ExperimentPlan,
    Job,
    JobResult,
    ResultCache,
    code_version,
    job_identity,
    run_jobs,
)
from repro.util.suggest import did_you_mean
from repro.util.tables import format_table
from repro.workloads.spec import ALL_MIXES

#: Keys a ``[study]``/``[sweep]`` section accepts.
_STUDY_KEYS = (
    "description",
    "measured",
    "engine",
    "mixes",
    "instruction_scales",
    "rate_multipliers",
    "organizations",
    "policies",
    "upgraded_fractions",
)

#: Default manifest filename (written next to the working directory's
#: other campaign artifacts, e.g. ``benchmarks/BENCH_history.json``).
DEFAULT_MANIFEST_NAME = "study_manifest.json"

#: Manifest format tag; bump on any incompatible layout change so
#: cross-PR diff tooling can refuse to compare apples to oranges.
MANIFEST_FORMAT = "repro-study/1"

#: The example campaign ``repro run study`` reproduces.
EXAMPLE_STUDY_PATH = "examples/scenarios/scale_study.toml"


# -- the study declaration -----------------------------------------------------


@dataclass(frozen=True)
class Study:
    """A validated study: the base scenario plus its sweep axes.

    Axis semantics (the grid is the cartesian product):

    * ``instruction_scales`` — trace-measurement instructions per core;
      meaningful only for measured studies and upgraded-fraction sweeps
      (unmeasured fleet points never simulate traces).
    * ``rate_multipliers`` — scales every sub-population's fault-rate
      multiplier (composes with per-population values).
    * ``organizations`` — memory organizations to re-deploy the whole
      fleet on; empty keeps each population's own config.
    * ``policy_sets`` — each entry is one ``repro fleet --policies``
      style comparison.
    * ``upgraded_fractions`` — non-empty adds a measured
      upgraded-fraction sweep artifact per (organization, scale).
    """

    name: str
    scenario: FleetScenario
    description: str = ""
    measured: bool = False
    engine: str = "auto"
    mixes: Optional[int] = None
    instruction_scales: Tuple[int, ...] = ()
    rate_multipliers: Tuple[float, ...] = (1.0,)
    organizations: Tuple[MemoryConfig, ...] = ()
    policy_sets: Tuple[Tuple[str, ...], ...] = (DEFAULT_POLICY_KEYS,)
    upgraded_fractions: Tuple[float, ...] = ()
    seed: int = DEFAULT_FLEET_SEED
    channels: Optional[int] = None
    measurement_seed: int = MEASUREMENT_CONFIG.seed

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_TIERS:
            raise ValueError(f"unknown engine tier {self.engine!r}")
        if not self.rate_multipliers:
            raise ValueError("need at least one rate multiplier")
        if any(m <= 0 for m in self.rate_multipliers):
            raise ValueError("rate multipliers must be > 0")
        if not self.policy_sets or any(not s for s in self.policy_sets):
            raise ValueError("need at least one non-empty policy set")
        for keys in self.policy_sets:
            unknown = [k for k in keys if k not in POLICY_KEYS]
            if unknown:
                raise ValueError(f"unknown policy key {unknown[0]!r}")
        if any(s < 1 for s in self.instruction_scales):
            raise ValueError("instruction scales must be >= 1")
        if self.upgraded_fractions and 0.0 not in self.upgraded_fractions:
            raise ValueError(
                "upgraded_fractions needs the fault-free 0.0 point"
            )
        if any(not 0.0 <= f <= 1.0 for f in self.upgraded_fractions):
            raise ValueError("upgraded fractions must be in [0, 1]")
        if self.instruction_scales and not (
            self.measured or self.upgraded_fractions
        ):
            raise ValueError(
                "instruction_scales only affect measured studies or "
                "upgraded-fraction sweeps"
            )
        if self.mixes is not None and not 1 <= self.mixes <= len(ALL_MIXES):
            raise ValueError(
                f"mixes must be in [1, {len(ALL_MIXES)}], got {self.mixes}"
            )

    def mix_list(self) -> List[Any]:
        """The workload mixes measurement points simulate."""
        return list(ALL_MIXES[: self.mixes] if self.mixes else ALL_MIXES)

    def effective_scales(self) -> Tuple[int, ...]:
        """Instruction scales, defaulted to the standard measurement."""
        return self.instruction_scales or (
            MEASUREMENT_CONFIG.instructions_per_core,
        )

    def base_scenario(self) -> FleetScenario:
        """The scenario every grid point varies, channel-scaled once."""
        if self.channels is None:
            return self.scenario
        return self.scenario.scaled_to(self.channels)

    def sweep_organizations(self) -> Tuple[MemoryConfig, ...]:
        """Organizations the fraction-sweep artifacts cover."""
        if self.organizations:
            return self.organizations
        return self.base_scenario().organizations()

    def points(self) -> List["StudyPoint"]:
        """The expanded grid, in deterministic declaration order."""
        org_axis: Tuple[Optional[MemoryConfig], ...] = (
            self.organizations if self.organizations else (None,)
        )
        scales: Tuple[Optional[int], ...] = (
            self.effective_scales() if self.measured else (None,)
        )
        out: List[StudyPoint] = []
        for policies in self.policy_sets:
            for organization in org_axis:
                for scale in scales:
                    for multiplier in self.rate_multipliers:
                        out.append(
                            StudyPoint(
                                kind="fleet",
                                policies=tuple(policies),
                                organization=organization,
                                instructions_per_core=scale,
                                rate_multiplier=multiplier,
                            )
                        )
        if self.upgraded_fractions:
            for organization in self.sweep_organizations():
                for scale in self.effective_scales():
                    out.append(
                        StudyPoint(
                            kind="sweep",
                            organization=organization,
                            instructions_per_core=scale,
                        )
                    )
        return out

    def quick(self) -> "Study":
        """A smoke-scale copy: at most two values per axis, two mixes,
        capped instruction scales and a 2000-channel fleet."""

        def dedupe(values: Sequence[Any]) -> Tuple[Any, ...]:
            return tuple(dict.fromkeys(values))

        fractions = self.upgraded_fractions
        if fractions:
            others = [f for f in fractions if f != 0.0][:2]
            fractions = (0.0, *others)
        scales = self.instruction_scales
        if self.measured or fractions:
            # Cap the trace length even when the study relied on the
            # (full-scale) default measurement.
            scales = dedupe(
                min(scale, 10_000) for scale in self.effective_scales()[:2]
            )
        return replace(
            self,
            mixes=min(self.mixes or 2, 2),
            instruction_scales=scales,
            rate_multipliers=self.rate_multipliers[:2],
            organizations=self.organizations[:2],
            policy_sets=self.policy_sets[:2],
            upgraded_fractions=fractions,
            channels=min(
                self.channels or self.scenario.total_channels, 2000
            ),
        )


@dataclass(frozen=True)
class StudyPoint:
    """One grid point: the axis values of one produced report."""

    kind: str  # "fleet" (policy comparison) or "sweep" (fraction curve)
    policies: Tuple[str, ...] = ()
    organization: Optional[MemoryConfig] = None
    instructions_per_core: Optional[int] = None
    rate_multiplier: Optional[float] = None

    @property
    def point_id(self) -> str:
        """Stable, human-readable identity (the manifest key)."""
        parts = [self.kind]
        if self.policies:
            parts.append("policies=" + "+".join(self.policies))
        if self.organization is not None:
            parts.append(f"org={self.organization.name}")
        if self.instructions_per_core is not None:
            parts.append(f"instr={self.instructions_per_core}")
        if self.rate_multiplier is not None:
            parts.append(f"rate={self.rate_multiplier:g}")
        return "/".join(parts)

    def axes(self) -> Dict[str, Any]:
        """JSON-friendly axis values (the manifest record)."""
        out: Dict[str, Any] = {"kind": self.kind}
        if self.policies:
            out["policies"] = list(self.policies)
        if self.organization is not None:
            out["organization"] = self.organization.name
        if self.instructions_per_core is not None:
            out["instructions_per_core"] = self.instructions_per_core
        if self.rate_multiplier is not None:
            out["rate_multiplier"] = self.rate_multiplier
        return out


# -- grid expansion ------------------------------------------------------------


def _point_scenario(study: Study, point: StudyPoint) -> FleetScenario:
    """The base scenario with one grid point's overrides applied."""
    base = study.base_scenario()
    populations = []
    for pop in base.populations:
        changes: Dict[str, Any] = {}
        if point.rate_multiplier is not None:
            changes["rate_multiplier"] = (
                pop.rate_multiplier * point.rate_multiplier
            )
        if point.organization is not None:
            changes["config"] = point.organization
        populations.append(replace(pop, **changes) if changes else pop)
    return replace(base, populations=tuple(populations))


def _fleet_point_plan(study: Study, point: StudyPoint) -> ExperimentPlan:
    """One policy-comparison point as a plan.

    Unmeasured points are the comparison blocks directly. Measured
    points follow the ``fleet-compare-measured`` pattern: the plan's
    jobs are only the (expensive, cache-shared) measurement points, and
    assembly reduces them to profiles before running the (vectorized,
    cheap) comparison inline — which is what lets every rate multiplier
    at one instruction scale share that scale's measurements.
    """
    scenario = _point_scenario(study, point)
    if not study.measured:
        return plan_fleet_compare(
            scenario=scenario, policies=point.policies, seed=study.seed
        )
    measured_plan = plan_measured_profiles(
        policies=point.policies,
        organizations=scenario.organizations(),
        mixes=study.mix_list(),
        instructions_per_core=point.instructions_per_core,
        seed=study.measurement_seed,
        engine=study.engine,
    )

    def assemble(values: List[Any]) -> PolicyComparisonReport:
        profiles = measured_plan.assemble(values)
        from repro.runner import execute_plan

        return execute_plan(
            plan_fleet_compare(
                scenario=scenario,
                policies=point.policies,
                seed=study.seed,
                profiles=profiles,
            )
        )

    return ExperimentPlan(
        name=f"study[{point.point_id}]",
        jobs=measured_plan.jobs,
        assemble=assemble,
    )


def _sweep_point_plan(study: Study, point: StudyPoint) -> ExperimentPlan:
    """One upgraded-fraction sweep artifact as a plan.

    Shares the standard sensitivity machinery (and, through the
    measurement seed, its cache entries: the zero point of an ARCC sweep
    at the default scale *is* the figures' fault-free baseline job).
    """
    return plan_sweep_upgraded_fraction_measured(
        mixes=study.mix_list(),
        fractions=study.upgraded_fractions,
        instructions_per_core=point.instructions_per_core,
        seed=study.measurement_seed,
        engine=study.engine,
        config=point.organization,
    )


def _point_plan(study: Study, point: StudyPoint) -> ExperimentPlan:
    if point.kind == "sweep":
        return _sweep_point_plan(study, point)
    return _fleet_point_plan(study, point)


def expand_study(study: Study) -> ExperimentPlan:
    """Compile the whole grid into one deduplicated experiment plan.

    Jobs are deduplicated across grid points by computation identity
    (:func:`~repro.runner.job_identity`): a measurement point shared by
    several axis values — e.g. two rate multipliers at one instruction
    scale, or the sweep's zero point and the measured baseline — enters
    the batch once, and every point's assembly reads the shared value.
    The plan assembles into a :class:`StudyResult`.
    """
    jobs: List[Job] = []
    slot_by_identity: Dict[str, int] = {}
    compiled: List[
        Tuple[StudyPoint, Callable[[List[Any]], Any], Tuple[int, ...]]
    ] = []
    for point in study.points():
        sub = _point_plan(study, point)
        indices = []
        for job in sub.jobs:
            identity = job_identity(job)
            slot = slot_by_identity.setdefault(identity, len(jobs))
            if slot == len(jobs):
                jobs.append(job)
            indices.append(slot)
        compiled.append((point, sub.assemble, tuple(indices)))
    total_jobs = sum(len(indices) for _, _, indices in compiled)

    def assemble(values: List[Any]) -> "StudyResult":
        points = [
            StudyPointResult(
                point=point,
                report=sub_assemble([values[i] for i in indices]),
                job_indices=indices,
            )
            for point, sub_assemble, indices in compiled
        ]
        return StudyResult(
            study=study,
            points=points,
            jobs=list(jobs),
            total_jobs=total_jobs,
            unique_jobs=len(jobs),
        )

    return ExperimentPlan(
        name=f"study[{study.name}]", jobs=jobs, assemble=assemble
    )


# -- results and the manifest --------------------------------------------------


@dataclass
class StudyPointResult:
    """One grid point's report plus its slots in the deduplicated batch."""

    point: StudyPoint
    report: Any
    job_indices: Tuple[int, ...]


@dataclass
class StudyResult:
    """A completed (or cache-replayed) campaign.

    ``executed_jobs``/``cached_jobs`` are filled by :func:`run_study`:
    a fully resumed campaign reports ``executed_jobs == 0`` with every
    unique job accounted for in ``cached_jobs``.
    """

    study: Study
    points: List[StudyPointResult]
    jobs: List[Job] = field(default_factory=list, repr=False)
    total_jobs: int = 0
    unique_jobs: int = 0
    executed_jobs: Optional[int] = None
    cached_jobs: Optional[int] = None

    def point_result(self, point_id: str) -> StudyPointResult:
        """Look up one grid point's result by its manifest key."""
        for result in self.points:
            if result.point.point_id == point_id:
                return result
        raise KeyError(f"no study point {point_id!r}")

    def to_table(self) -> str:
        """Render the campaign summary (one row per grid point)."""
        rows = []
        for result in self.points:
            report = result.report
            if isinstance(report, PolicyComparisonReport):
                headline = (
                    f"best power: {report.best_by('power')}, "
                    f"best perf: {report.best_by('performance')}"
                )
            else:
                top = max(report.fractions)
                headline = (
                    f"power@{top:g}: "
                    f"{report.average_power_ratio(top):.3f}x"
                )
            rows.append(
                [
                    result.point.point_id,
                    result.point.kind,
                    str(len(result.job_indices)),
                    headline,
                ]
            )
        dedup = (
            f"{self.unique_jobs} unique job(s) "
            f"({self.total_jobs} before dedup)"
        )
        if self.executed_jobs is not None:
            dedup += (
                f"; {self.executed_jobs} executed, "
                f"{self.cached_jobs} cached"
            )
        return format_table(
            ["Point", "Kind", "Jobs", "Headline"],
            rows,
            title=f"Study '{self.study.name}' — {dedup}",
        )

    def manifest(self, cache: Optional[ResultCache] = None) -> Dict[str, Any]:
        """The campaign as a deterministic, diffable mapping.

        Keyed by axis point; every record carries the cache keys of its
        jobs (so a cross-PR diff shows exactly which simulations moved),
        the engine provenance and the code version. Wall-clock times and
        cache-hit counts are deliberately excluded: ``--jobs 1`` and
        ``--jobs 4`` runs of the same study serialize bit-identically.
        """
        keyer = cache if cache is not None else ResultCache()
        points = []
        for result in self.points:
            points.append(
                {
                    "id": result.point.point_id,
                    "axes": result.point.axes(),
                    "jobs": len(result.job_indices),
                    "cache_keys": [
                        keyer.key(self.jobs[i]) for i in result.job_indices
                    ],
                    "report": _summarize_report(result.report),
                }
            )
        scenario = self.study.base_scenario()
        return {
            "format": MANIFEST_FORMAT,
            "study": {
                "name": self.study.name,
                "description": self.study.description,
                "measured": self.study.measured,
                "engine": self.study.engine,
                "seed": self.study.seed,
                "measurement_seed": self.study.measurement_seed,
                "mixes": [mix.name for mix in self.study.mix_list()],
                "instruction_scales": list(self.study.effective_scales()),
                "rate_multipliers": list(self.study.rate_multipliers),
                "organizations": [
                    config.name for config in self.study.organizations
                ],
                "policy_sets": [
                    list(keys) for keys in self.study.policy_sets
                ],
                "upgraded_fractions": list(self.study.upgraded_fractions),
            },
            "scenario": {
                "name": scenario.name,
                "total_channels": scenario.total_channels,
                "populations": [pop.name for pop in scenario.populations],
            },
            "code_version": code_version(),
            "engine_provenance": {
                "requested": self.study.engine,
                "resolved": resolve_engine(self.study.engine),
                **engine_provenance(),
            },
            "total_jobs": self.total_jobs,
            "unique_jobs": self.unique_jobs,
            "points": points,
        }

    def write_manifest(
        self,
        path: "str | Path" = DEFAULT_MANIFEST_NAME,
        cache: Optional[ResultCache] = None,
    ) -> Path:
        """Serialize :meth:`manifest` to ``path`` (sorted keys)."""
        path = Path(path)
        path.write_text(
            json.dumps(self.manifest(cache=cache), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        return path


def _mean_ci(stat: Sequence[float]) -> List[float]:
    return [float(stat[0]), float(stat[1])]


def _summarize_report(report: Any) -> Dict[str, Any]:
    """A report's manifest record (floats only, deterministic)."""
    if isinstance(report, PolicyComparisonReport):
        return {
            "type": "fleet-compare",
            "policies": list(report.policies),
            "fleet": [
                {
                    "policy": summary.policy,
                    "power_overhead": _mean_ci(summary.power_overhead),
                    "performance_overhead": _mean_ci(
                        summary.performance_overhead
                    ),
                    "sdc_events_per_year": summary.sdc_events_per_year,
                    "due_events_per_year": summary.due_events_per_year,
                    "uncorrectable_fraction": _mean_ci(
                        summary.uncorrectable_fraction
                    ),
                }
                for summary in report.fleet
            ],
            "best": {
                metric: report.best_by(metric)
                for metric in ("power", "performance", "sdc", "due")
            },
        }
    if isinstance(report, MeasuredFractionSweep):
        return {
            "type": "fraction-sweep",
            "fractions": list(report.fractions),
            "average_power_ratio": {
                f"{fraction:g}": report.average_power_ratio(fraction)
                for fraction in report.fractions
            },
            "average_performance_ratio": {
                f"{fraction:g}": report.average_performance_ratio(fraction)
                for fraction in report.fractions
            },
        }
    raise TypeError(f"no manifest summary for {type(report).__name__}")


def run_study(
    study: Study,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    manifest_path: "str | Path | None" = None,
) -> StudyResult:
    """Execute a study and (optionally) write its manifest.

    Runs the deduplicated batch through :func:`~repro.runner.run_jobs`
    directly so the result keeps per-job ``cached`` flags — the resume
    guarantee is observable: re-running a finished campaign reports
    ``executed_jobs == 0``.
    """
    plan = expand_study(study)
    results: List[JobResult] = run_jobs(
        plan.jobs, max_workers=jobs, cache=cache
    )
    out: StudyResult = plan.assemble([r.value for r in results])
    out.cached_jobs = sum(1 for r in results if r.cached)
    out.executed_jobs = len(results) - out.cached_jobs
    if manifest_path is not None:
        out.write_manifest(manifest_path, cache=cache)
    return out


# -- the file loader -----------------------------------------------------------


def _no_duplicates(values: Sequence[Any], path: str) -> None:
    seen = set()
    for i, value in enumerate(values):
        key = tuple(value) if isinstance(value, list) else value
        if key in seen:
            raise _fail(f"{path}[{i}]", f"duplicate axis value {value!r}")
        seen.add(key)


def _int_axis(
    section: Mapping[str, Any], key: str, path: str, minimum: int
) -> Tuple[int, ...]:
    axis = f"{path}.{key}"
    values = [
        _check_int(value, f"{axis}[{i}]", minimum)
        for i, value in enumerate(_get_array(section, key, path))
    ]
    _no_duplicates(values, axis)
    return tuple(values)


def _float_axis(
    section: Mapping[str, Any],
    key: str,
    path: str,
    minimum: float,
    exclusive: bool,
    maximum: Optional[float] = None,
) -> Tuple[float, ...]:
    axis = f"{path}.{key}"
    values = [
        _check_float(value, f"{axis}[{i}]", minimum, exclusive, maximum)
        for i, value in enumerate(_get_array(section, key, path))
    ]
    _no_duplicates(values, axis)
    return tuple(values)


def _policy_sets(
    section: Mapping[str, Any], path: str, default: Tuple[str, ...]
) -> Tuple[Tuple[str, ...], ...]:
    """Parse the ``policies`` axis: a flat array is one comparison,
    an array of arrays is one comparison per entry."""
    if "policies" not in section:
        return (default,)
    raw_sets = _get_array(section, "policies", path)
    nested = all(
        isinstance(entry, Sequence) and not isinstance(entry, (str, bytes))
        for entry in raw_sets
    )
    flat = all(isinstance(entry, str) for entry in raw_sets)
    if not nested and not flat:
        raise _fail(
            f"{path}.policies",
            "expected an array of policy names or an array of policy-name "
            "arrays (not a mixture)",
        )
    groups = [raw_sets] if flat else raw_sets
    sets: List[Tuple[str, ...]] = []
    for g, group in enumerate(groups):
        prefix = f"{path}.policies" if flat else f"{path}.policies[{g}]"
        if not group:
            raise _fail(prefix, "policy set must not be empty")
        keys: List[str] = []
        for i, key in enumerate(group):
            if not isinstance(key, str):
                raise _fail(
                    f"{prefix}[{i}]", f"expected str, got {_type_name(key)}"
                )
            if key not in POLICY_KEYS:
                raise _fail(
                    f"{prefix}[{i}]",
                    f"unknown policy {key!r}"
                    f"{did_you_mean(key, POLICY_KEYS)}; "
                    f"known: {', '.join(POLICY_KEYS)}",
                )
            if key in keys:
                raise _fail(f"{prefix}[{i}]", f"duplicate policy {key!r}")
            keys.append(key)
        sets.append(tuple(keys))
    _no_duplicates([list(s) for s in sets], f"{path}.policies")
    return tuple(sets)


def _organization_axis_names(
    section: Mapping[str, Any], path: str
) -> Tuple[str, ...]:
    if "organizations" not in section:
        return ()
    names = []
    for i, name in enumerate(_get_array(section, "organizations", path)):
        if not isinstance(name, str) or not name:
            raise _fail(
                f"{path}.organizations[{i}]",
                f"expected a non-empty str, got {_type_name(name)}",
            )
        names.append(name)
    _no_duplicates(names, f"{path}.organizations")
    return tuple(names)


def _require_arcc_capable(
    configs: Sequence[MemoryConfig], path: str
) -> None:
    for config in configs:
        if not arcc_capable(config):
            raise _fail(
                path,
                f"organization {config.name!r} has a single channel and "
                "cannot host upgraded (paired) pages; measured studies "
                "and upgraded-fraction sweeps need >= 2 channels",
            )


def study_from_mapping(
    raw: Mapping[str, Any], source: str = ""
) -> Study:
    """Validate a parsed TOML/JSON mapping into a :class:`Study`.

    The mapping is a full scenario file plus one ``[study]`` (or
    ``[sweep]``) section. Everything outside the section goes through
    :func:`~repro.fleet.scenario_file.scenario_from_mapping` unchanged,
    except that ``[organizations.<name>]`` tables referenced only by the
    study's ``organizations`` axis are allowed (a plain scenario would
    reject them as unreferenced); tables referenced by *neither* a
    population nor the axis still fail. Errors follow the scenario-file
    idiom: dotted key paths, closest-match suggestions, ``source``
    prefix.
    """
    try:
        if not isinstance(raw, Mapping):
            raise _fail(
                "", f"top level must be a table/object, got {_type_name(raw)}"
            )
        present = [key for key in STUDY_SECTION_KEYS if key in raw]
        if not present:
            raise _fail(
                "",
                "missing a [study] (or [sweep]) section; plain scenarios "
                "run with `repro fleet --scenario-file`",
            )
        if len(present) > 1:
            raise _fail(
                present[1],
                "declare either [study] or [sweep], not both "
                "(they are aliases)",
            )
        section_key = present[0]
        section = raw[section_key]
        _check_keys(section, _STUDY_KEYS, section_key)
        axis_names = _organization_axis_names(section, section_key)

        # Split the file's organization tables: population-referenced
        # ones flow into the scenario (which enforces its own
        # strictness), axis-only ones are parsed here, and orphans fail.
        rest: Dict[str, Any] = {
            key: value
            for key, value in raw.items()
            if key not in STUDY_SECTION_KEYS
        }
        axis_only: Dict[str, MemoryConfig] = {}
        raw_orgs = rest.get("organizations")
        if isinstance(raw_orgs, Mapping):
            population_refs = set()
            raw_pops = rest.get("populations")
            if isinstance(raw_pops, Sequence) and not isinstance(
                raw_pops, (str, bytes)
            ):
                for pop in raw_pops:
                    if isinstance(pop, Mapping) and isinstance(
                        pop.get("config"), str
                    ):
                        population_refs.add(pop["config"])
            kept: Dict[str, Any] = {}
            for name, table in raw_orgs.items():
                if str(name) in population_refs:
                    kept[name] = table
                elif str(name) in axis_names:
                    axis_only[str(name)] = organization_from_mapping(
                        str(name), table
                    )
                else:
                    raise _fail(
                        f"organizations.{name}",
                        "organization is not referenced by any population "
                        f"or the [{section_key}].organizations axis "
                        "(reference it or remove the table)",
                    )
            if kept:
                rest["organizations"] = kept
            else:
                rest.pop("organizations", None)
        spec = scenario_from_mapping(rest)

        description = spec.scenario.description
        if "description" in section:
            value = section["description"]
            if not isinstance(value, str):
                raise _fail(
                    f"{section_key}.description",
                    f"expected str, got {_type_name(value)}",
                )
            description = value

        measured = False
        if "measured" in section:
            measured = _get_bool(section, "measured", section_key)

        engine = "auto"
        if "engine" in section:
            value = section["engine"]
            if not isinstance(value, str):
                raise _fail(
                    f"{section_key}.engine",
                    f"expected str, got {_type_name(value)}",
                )
            if value not in ENGINE_TIERS:
                raise _fail(
                    f"{section_key}.engine",
                    f"unknown engine tier {value!r}"
                    f"{did_you_mean(value, ENGINE_TIERS)}; "
                    f"known: {', '.join(ENGINE_TIERS)}",
                )
            engine = value

        mixes = None
        if "mixes" in section:
            mixes = _get_int(section, "mixes", section_key, minimum=1)
            if mixes > len(ALL_MIXES):
                raise _fail(
                    f"{section_key}.mixes",
                    f"only {len(ALL_MIXES)} workload mixes exist, "
                    f"got {mixes}",
                )

        instruction_scales: Tuple[int, ...] = ()
        if "instruction_scales" in section:
            instruction_scales = _int_axis(
                section, "instruction_scales", section_key, minimum=1
            )

        rate_multipliers: Tuple[float, ...] = (1.0,)
        if "rate_multipliers" in section:
            rate_multipliers = _float_axis(
                section,
                "rate_multipliers",
                section_key,
                minimum=0.0,
                exclusive=True,
            )

        upgraded_fractions: Tuple[float, ...] = ()
        if "upgraded_fractions" in section:
            upgraded_fractions = _float_axis(
                section,
                "upgraded_fractions",
                section_key,
                minimum=0.0,
                exclusive=False,
                maximum=1.0,
            )
            if 0.0 not in upgraded_fractions:
                raise _fail(
                    f"{section_key}.upgraded_fractions",
                    "needs the fault-free 0.0 point (ratios are "
                    "normalized to it)",
                )

        default_set = (
            tuple(spec.policies) if spec.policies else DEFAULT_POLICY_KEYS
        )
        policy_sets = _policy_sets(section, section_key, default_set)
        for keys in policy_sets:
            unknown = [key for key in keys if key not in POLICY_KEYS]
            if unknown:  # default_set came from the top-level `policies`
                raise _fail(
                    f"policies[{list(keys).index(unknown[0])}]",
                    f"unknown policy {unknown[0]!r}"
                    f"{did_you_mean(unknown[0], POLICY_KEYS)}; "
                    f"known: {', '.join(POLICY_KEYS)}",
                )

        known_configs: Dict[str, MemoryConfig] = dict(CONFIG_NAMES)
        for config in spec.organizations:
            known_configs[config.name] = config
        known_configs.update(axis_only)
        organizations: List[MemoryConfig] = []
        for i, name in enumerate(axis_names):
            if name not in known_configs:
                raise _fail(
                    f"{section_key}.organizations[{i}]",
                    f"unknown memory config {name!r}"
                    f"{did_you_mean(name, known_configs)}; "
                    f"known: {', '.join(known_configs)}",
                )
            organizations.append(known_configs[name])

        if instruction_scales and not (measured or upgraded_fractions):
            raise _fail(
                f"{section_key}.instruction_scales",
                "only affects trace measurements; set `measured = true` "
                "or add `upgraded_fractions`",
            )

        study = Study(
            name=spec.scenario.name,
            scenario=spec.scenario,
            description=description,
            measured=measured,
            engine=engine,
            mixes=mixes,
            instruction_scales=instruction_scales,
            rate_multipliers=rate_multipliers,
            organizations=tuple(organizations),
            policy_sets=policy_sets,
            upgraded_fractions=upgraded_fractions,
            seed=spec.seed if spec.seed is not None else DEFAULT_FLEET_SEED,
            channels=spec.channels,
        )
        if measured or upgraded_fractions:
            axis_path = (
                f"{section_key}.organizations"
                if study.organizations
                else "populations"
            )
            _require_arcc_capable(
                study.organizations or study.base_scenario().organizations(),
                axis_path,
            )
    except ScenarioFileError as exc:
        if source:
            raise ScenarioFileError(f"{source}: {exc}") from None
        raise
    return study


def load_study_file(path: "str | Path") -> Study:
    """Load and validate a ``.toml`` or ``.json`` study file."""
    path = Path(path)
    return study_from_mapping(load_raw_mapping(path), source=str(path))


def resolve_study_path(path: "str | Path") -> Path:
    """Resolve a study path, falling back to the repository root.

    ``repro run study`` defaults to :data:`EXAMPLE_STUDY_PATH`, which is
    relative to the checkout; resolving here keeps the registry usable
    from any working directory.
    """
    candidate = Path(path)
    if candidate.exists() or candidate.is_absolute():
        return candidate
    fallback = Path(__file__).resolve().parents[3] / candidate
    return fallback if fallback.exists() else candidate


def plan_study(
    path: "str | Path" = EXAMPLE_STUDY_PATH,
    quick: bool = False,
    engine: str = "auto",
) -> ExperimentPlan:
    """Registry builder: load a study file and expand its grid."""
    study = load_study_file(resolve_study_path(path))
    study = replace(study, engine=engine)
    if quick:
        study = study.quick()
    plan = expand_study(study)
    # The registry invariant: a figure's plan carries its figure key.
    return ExperimentPlan(name="study", jobs=plan.jobs, assemble=plan.assemble)
