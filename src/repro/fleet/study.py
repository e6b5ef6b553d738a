"""Declarative study campaigns: scenario sweeps as first-class artifacts.

A *study file* is a scenario file plus one ``[study]`` (alias
``[sweep]``) section declaring the sweep axes — measurement instruction
scales, fleet fault-rate multipliers, memory organizations, policy sets
and upgraded fractions. :func:`expand_study` compiles the resulting grid
into **one** deduplicated :class:`~repro.runner.job.ExperimentPlan` over the
existing machinery (:func:`~repro.fleet.policies.plan_fleet_compare`,
:func:`~repro.fleet.policies.plan_fleet_compare_measured`,
:func:`~repro.experiments.sensitivity.fraction_sweep_plan`),
so axis points that share simulations — e.g. every rate multiplier at
one instruction scale reuses that scale's measurement jobs — run once.

:func:`run_study` executes the plan through the parallel runner and
writes ``study_manifest.json``: every produced report keyed by its axis
point, plus the cache key of each underlying job, the code version and
the engine provenance. Combined with the runner's incremental
:class:`~repro.runner.cache.ResultCache` persistence, campaigns are

* **declarative** — the whole grid lives in one TOML/JSON file;
* **resumable** — kill a 500-point run, re-run the same command, and
  only unfinished points simulate (the rest arrive ``cached=True``);
* **diffable** — the manifest is deterministic (``--jobs 1`` and
  ``--jobs 4`` produce bit-identical bytes), so two PRs' campaigns
  diff like source code.

The section is read through a :class:`~repro.fleet.scenario_file.Schema`
of :class:`Study`, like every table of a scenario file: strict keys,
dotted error paths, closest-match suggestions. What the section spells
differently from the dataclass (``policies`` for ``policy_sets``, which
may be one flat set) and the rules of its own (an axis is not empty and
repeats no value) are declared next to the loader. See
``docs/scenario-files.md`` for the schema and
``examples/scenarios/scale_study.toml`` for a worked grid.
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
    check_sweep_fractions,
    fraction_sweep_plan,
)
from repro.fleet.measured import POLICY_KEYS, check_policy_set
from repro.fleet.policies import (
    PolicyComparisonReport,
    plan_fleet_compare,
    plan_fleet_compare_measured,
)
from repro.fleet.report import DEFAULT_FLEET_SEED
from repro.fleet.scenario_file import (
    STUDY_SECTION_KEYS,
    Reader,
    Refs,
    ScenarioFile,
    ScenarioFileError,
    Schema,
    check_referenced,
    from_mapping,
    load_raw_mapping,
    organization_refs,
)
from repro.fleet.scenarios import MAX_FLEET_CHANNELS, FleetScenario
from repro.perf.engine import check_arcc_capable, engine_provenance, resolve_engine
from repro.runner.cache import ResultCache, code_version
from repro.runner.executor import run_stages
from repro.runner.job import ExperimentPlan, Fragments, Job, gather, job_identity
from repro.util.fields import FieldError, check_range
from repro.util.tables import format_table
from repro.workloads.spec import ALL_MIXES

#: Largest trace-measurement scale, in instructions per core: five times
#: the 200M paper scale. A trace holds 0.56-1.35 bytes per instruction
#: per core (Mix3 to Mix9, measured at 40k), so one at this scale holds
#: up to 1.35 GB, the most one process should; a larger scale is a typo
#: that would exhaust memory mid-run, not a campaign.
MAX_INSTRUCTION_SCALE = 10**9

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

    Construction checks every value and raises
    :class:`~repro.util.fields.FieldError` naming the field and element
    (``rate_multipliers[1]``, ``policy_sets[0][2]``); measured studies
    and fraction sweeps need ARCC-capable organizations.
    """

    name: str
    scenario: FleetScenario
    description: str = ""
    measured: bool = False
    mixes: Optional[int] = None
    instruction_scales: Tuple[int, ...] = ()
    rate_multipliers: Tuple[float, ...] = (1.0,)
    organizations: Tuple[MemoryConfig, ...] = ()
    policy_sets: Tuple[Tuple[str, ...], ...] = (POLICY_KEYS,)
    upgraded_fractions: Tuple[float, ...] = ()
    seed: int = DEFAULT_FLEET_SEED
    channels: Optional[int] = None
    measurement_seed: int = MEASUREMENT_CONFIG.seed

    def __post_init__(self) -> None:
        if self.mixes is not None:
            check_range("mixes", self.mixes, at_least=1)
            if self.mixes > len(ALL_MIXES):
                raise FieldError(
                    "mixes",
                    f"only {len(ALL_MIXES)} workload mixes exist, "
                    f"got {self.mixes}",
                )
        for i, scale in enumerate(self.instruction_scales):
            check_range(
                f"instruction_scales[{i}]",
                scale,
                at_least=1,
                at_most=MAX_INSTRUCTION_SCALE,
            )
        if not self.rate_multipliers:
            raise FieldError("rate_multipliers", "must not be empty")
        for i, multiplier in enumerate(self.rate_multipliers):
            check_range(f"rate_multipliers[{i}]", multiplier, above=0.0)
        if self.upgraded_fractions:
            check_sweep_fractions(self.upgraded_fractions, "upgraded_fractions")
        if not self.policy_sets:
            raise FieldError("policy_sets", "must not be empty")
        for g, keys in enumerate(self.policy_sets):
            check_policy_set(keys, f"policy_sets[{g}]")
        if self.instruction_scales and not (
            self.measured or self.upgraded_fractions
        ):
            raise FieldError(
                "instruction_scales",
                "only affects trace measurements; set `measured = true` "
                "or add `upgraded_fractions`",
            )
        check_range("seed", self.seed, at_least=0)
        if self.channels is not None:
            check_range(
                "channels", self.channels, at_least=1, at_most=MAX_FLEET_CHANNELS
            )
        check_range("measurement_seed", self.measurement_seed, at_least=0)
        if self.measured or self.upgraded_fractions:
            for i, config in enumerate(self.organizations):
                check_arcc_capable(config, f"organizations[{i}]")
            if not self.organizations:
                for i, pop in enumerate(self.scenario.populations):
                    check_arcc_capable(
                        pop.config, f"scenario.populations[{i}].config"
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
            # ``:g`` keeps six significant digits; a rate it would round
            # is spelled in full so that distinct points never share an id.
            rate = f"{self.rate_multiplier:g}"
            if float(rate) != self.rate_multiplier:
                rate = repr(self.rate_multiplier)
            parts.append(f"rate={rate}")
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


def _fleet_point_plan(
    study: Study, point: StudyPoint, planes: Dict[Any, ExperimentPlan]
) -> ExperimentPlan:
    """One policy-comparison point as a plan.

    Unmeasured points are the comparison blocks directly. Measured
    points are :func:`~repro.fleet.policies.plan_fleet_compare_measured`:
    the plan's jobs are only the (expensive, cache-shared) measurement
    points, which is what lets every rate multiplier at one instruction
    scale share that scale's measurements (``planes`` builds each of
    them once), and its assembly returns the comparison blocks as a
    follow-up plan.
    """
    scenario = _point_scenario(study, point)
    if not study.measured:
        return plan_fleet_compare(
            scenario=scenario, policies=point.policies, seed=study.seed
        )
    return plan_fleet_compare_measured(
        scenario=scenario,
        policies=point.policies,
        seed=study.seed,
        mixes=study.mix_list(),
        instructions_per_core=point.instructions_per_core,
        measurement_seed=study.measurement_seed,
        planes=planes,
    )


def _sweep_point_plan(study: Study, point: StudyPoint) -> ExperimentPlan:
    """One upgraded-fraction sweep artifact as a plan.

    Shares the standard sensitivity machinery (and, through the
    measurement seed, its cache entries: the zero point of an ARCC sweep
    at the default scale *is* the figures' fault-free baseline job).
    """
    return fraction_sweep_plan(
        mixes=study.mix_list(),
        fractions=study.upgraded_fractions,
        instructions_per_core=point.instructions_per_core,
        seed=study.measurement_seed,
        config=point.organization,
    )


def _point_plan(
    study: Study, point: StudyPoint, planes: Dict[Any, ExperimentPlan]
) -> ExperimentPlan:
    if point.kind == "sweep":
        return _sweep_point_plan(study, point)
    return _fleet_point_plan(study, point, planes)


def expand_study(study: Study) -> ExperimentPlan:
    """Compile the whole grid into one deduplicated experiment plan.

    Jobs are deduplicated across grid points by computation identity
    (:func:`~repro.runner.executor.job_identity`): a measurement point shared by
    several axis values — e.g. two rate multipliers at one instruction
    scale, or the sweep's zero point and the measured baseline — enters
    the batch once, and every point's assembly reads the shared value.
    The dedup pass keys every job with one fragment memo, so a config
    object shared by many points is encoded once, and each distinct
    measurement plan is built once per call.
    The plan assembles into a :class:`StudyResult`; when measured points
    assemble into follow-up plans, it first returns them gathered into
    one follow-up plan (:func:`~repro.runner.job.gather`), so all points'
    comparison blocks run as one more batch. The counts, the table's
    ``Jobs`` column and the manifest's cache keys cover the planned
    (first-stage) jobs only.
    """
    jobs: List[Job] = []
    slot_by_identity: Dict[str, int] = {}
    fragments: Fragments = {}
    planes: Dict[Any, ExperimentPlan] = {}
    compiled: List[
        Tuple[StudyPoint, Callable[[List[Any]], Any], Tuple[int, ...]]
    ] = []
    for point in study.points():
        sub = _point_plan(study, point, planes)
        indices = []
        for job in sub.jobs:
            identity = job_identity(job, fragments)
            slot = slot_by_identity.setdefault(identity, len(jobs))
            if slot == len(jobs):
                jobs.append(job)
            indices.append(slot)
        compiled.append((point, sub.assemble, tuple(indices)))
    total_jobs = sum(len(indices) for _, _, indices in compiled)

    def finish(reports: List[Any]) -> "StudyResult":
        return StudyResult(
            study=study,
            points=[
                StudyPointResult(
                    point=point, report=report, job_indices=indices
                )
                for (point, _, indices), report in zip(compiled, reports)
            ],
            jobs=list(jobs),
            total_jobs=total_jobs,
            unique_jobs=len(jobs),
        )

    def assemble(values: List[Any]) -> Any:
        return gather(
            [
                sub_assemble([values[i] for i in indices])
                for _, sub_assemble, indices in compiled
            ],
            finish,
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

    ``executed_jobs``/``cached_jobs`` are filled by :func:`run_study`
    and count every stage's jobs, follow-up comparison blocks included:
    a fully resumed campaign reports ``executed_jobs == 0`` with every
    job accounted for in ``cached_jobs``.
    """

    study: Study
    points: List[StudyPointResult]
    jobs: List[Job] = field(default_factory=list, repr=False)
    total_jobs: int = 0
    unique_jobs: int = 0
    executed_jobs: Optional[int] = None
    cached_jobs: Optional[int] = None

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
                "resolved": resolve_engine("auto"),
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

    Runs the deduplicated batch and its follow-ups through
    :func:`~repro.runner.executor.run_stages` so the result keeps per-job
    ``cached`` flags — the resume guarantee is observable: re-running a
    finished campaign reports ``executed_jobs == 0``.
    """
    out: StudyResult
    out, results = run_stages(
        expand_study(study), max_workers=jobs, cache=cache
    )
    out.cached_jobs = sum(1 for r in results if r.cached)
    out.executed_jobs = len(results) - out.cached_jobs
    if manifest_path is not None:
        out.write_manifest(manifest_path, cache=cache)
    return out


# -- the file loader -----------------------------------------------------------


def _axis(read: Reader) -> Reader:
    """A sweep axis: the field's array, not empty, no value repeated."""

    def read_axis(value: Any, path: str, refs: Refs) -> Tuple[Any, ...]:
        values = read(value, path, refs)
        if not values:
            raise ScenarioFileError(f"{path}: must not be empty")
        seen = set()
        for i, item in enumerate(values):
            if item in seen:
                # An organization shows as the file names it.
                shown = value[i] if isinstance(item, MemoryConfig) else item
                raise ScenarioFileError(
                    f"{path}[{i}]: duplicate axis value {shown!r}"
                )
            seen.add(item)
        return values

    return read_axis


def _policy_sets(read: Reader) -> Reader:
    """The ``policies`` axis: a flat array of names is one comparison,
    an array of arrays is one comparison per entry."""
    read_axis = _axis(read)

    def read_policy_sets(value: Any, path: str, refs: Refs) -> Any:
        if isinstance(value, (list, tuple)) and value:
            if all(isinstance(entry, str) for entry in value):
                return (tuple(value),)
            if not all(isinstance(entry, (list, tuple)) for entry in value):
                raise ScenarioFileError(
                    f"{path}: expected an array of policy names or an array "
                    "of policy-name arrays (not a mixture)"
                )
        return read_axis(value, path, refs)

    return read_policy_sets


#: A ``[study]`` section as a :class:`Study` table. The scenario, its
#: name and the run defaults come from the rest of the file; the
#: measurement seed has no key.
STUDY_SCHEMA = Schema(
    Study,
    omit=("name", "scenario", "seed", "channels", "measurement_seed"),
    keys={"policy_sets": "policies"},
    readers={
        "instruction_scales": _axis,
        "rate_multipliers": _axis,
        "organizations": _axis,
        "policy_sets": _policy_sets,
        "upgraded_fractions": _axis,
    },
)


def _study_path(field: str, section_key: str, section: Mapping[str, Any]) -> str:
    """Where a :class:`Study` field is spelled in a study file."""
    if field.startswith("scenario."):
        return field[len("scenario."):]
    if field in ("seed", "channels"):
        return field
    if field.startswith("policy_sets"):
        index = field[len("policy_sets"):]
        policies = section.get("policies", ())
        if not any(isinstance(entry, (list, tuple)) for entry in policies):
            index = index[len("[0]"):]
        return f"{section_key}.policies{index}"
    return f"{section_key}.{field}"


def study_from_mapping(
    raw: Mapping[str, Any], source: str = ""
) -> Study:
    """Validate a parsed TOML/JSON mapping into a :class:`Study`.

    The mapping is a full scenario file plus one ``[study]`` (or
    ``[sweep]``) section. Everything outside the section is read as a
    :class:`~repro.fleet.scenario_file.ScenarioFile`, except that
    ``[organizations.<name>]`` tables referenced only by the study's
    ``organizations`` axis are allowed (a plain scenario would reject
    them as unreferenced); tables referenced by *neither* a population
    nor the axis still fail. The section is read through the
    :class:`Study` schema: its shape is checked there, its values are
    :class:`Study`'s to check, and every error is re-raised at its key
    path. Errors follow the scenario-file idiom: dotted key paths,
    closest-match suggestions, ``source`` prefix.
    """
    try:
        if not isinstance(raw, Mapping):
            raise ScenarioFileError(
                f"top level must be a table/object, got {type(raw).__name__}"
            )
        present = [key for key in STUDY_SECTION_KEYS if key in raw]
        if not present:
            raise ScenarioFileError(
                "missing a [study] (or [sweep]) section; plain scenarios "
                "run with `repro fleet --scenario-file`"
            )
        if len(present) > 1:
            raise ScenarioFileError(
                f"{present[1]}: declare either [study] or [sweep], not both "
                "(they are aliases)"
            )
        section_key = present[0]
        section = raw[section_key]
        spec = from_mapping(
            ScenarioFile,
            {key: value for key, value in raw.items() if key != section_key},
        )
        given: Dict[str, Any] = {
            "name": spec.scenario.name,
            "scenario": spec.scenario,
            "description": spec.scenario.description,
            "seed": DEFAULT_FLEET_SEED if spec.seed is None else spec.seed,
            "channels": spec.channels,
        }
        if spec.policies:
            given["policy_sets"] = (spec.policies,)
        study = STUDY_SCHEMA.read(
            section,
            section_key,
            organization_refs(spec.organizations),
            given,
            lambda field: _study_path(field, section_key, section),
        )
        check_referenced(spec, study.organizations, section_key)
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
) -> ExperimentPlan:
    """Registry builder: load a study file and expand its grid."""
    study = load_study_file(resolve_study_path(path))
    if quick:
        study = study.quick()
    plan = expand_study(study)
    # The registry invariant: a figure's plan carries its figure key.
    return ExperimentPlan(name="study", jobs=plan.jobs, assemble=plan.assemble)
