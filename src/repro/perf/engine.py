"""Trace replay of the interval model: tier selection and replay.

This is the hot path of ``repro run``. Every trace point replays through
:func:`replay` on one of two tiers, chosen per process by
:func:`resolve_engine`:

* ``compiled`` — the C kernel of :mod:`repro.perf._kernel`, driven over
  the flat arrays of a materialized :class:`~repro.perf.trace.
  TraceBatch`, which every point replayed against the trace shares. The
  per-point inputs are tiny: channel/rank/bank coordinates come from a
  route table that :func:`~repro.dram.addressing.decode_lines` builds
  over ``addr mod M`` (``M = channels x banks x ranks``), and the
  kernel applies
  :func:`page_is_upgraded`'s golden-ratio hash test inline on each
  miss;
* ``reference`` — :class:`~repro.perf.simulator.TraceSimulator`, the
  scalar per-access model: the kernel's exact oracle, and the fallback
  on hosts where the kernel does not build.

The two are bit-identical, field for field of the
:class:`~repro.perf.simulator.MixResult`
(``tests/test_kernel_equivalence.py``), LOT-ECC checksum points
(:attr:`SweepPoint.lotecc_checksum`) included. Figures reach
:func:`replay` through the :func:`point_job` runner jobs; every figure
that reports a faulty point over its mix's fault-free point builds them
with :func:`plan_trace_ratios`.

Pairing is a property of the organization, not an option: an upgraded
line reads its two sub-lines from both channels in lockstep, so any
organization with at least two channels pairs and a one-channel one
cannot host upgraded pages. :class:`SweepPoint` rejects such a point
when it is built, and :func:`point_job` builds one, so every trace plan
rejects it when the plan is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import (
    ARCC_MEMORY_CONFIG,
    PROCESSOR_CONFIG,
    MemoryConfig,
    ProcessorConfig,
)
from repro.perf._kernel.driver import replay_compiled
from repro.perf._kernel.loader import kernel_available, kernel_provenance
from repro.perf.simulator import (
    MixResult,
    TraceSimulator,
    page_is_upgraded,
)
from repro.perf.trace import (
    check_instructions_per_core,
    clear_trace_memo,
    materialize_mix,
    trace_rng_provenance,
)
from repro.runner.job import ExperimentPlan, Job
from repro.util.fields import FieldError
from repro.util.stats import sequential_sum
from repro.workloads.spec import ALL_MIXES, WorkloadMix


def arcc_capable(config: MemoryConfig) -> bool:
    """Whether an organization can run upgraded (paired) pages.

    Sub-lines of an upgraded line live on the two sides of ``addr ^ 1``,
    and the HIPERF map takes the channel from the bottom of the address,
    so pairing needs at least two channels. :class:`SweepPoint` and
    :class:`~repro.fleet.study.Study` enforce it through
    :func:`check_arcc_capable`, the one wording of the rule.

    Examples
    --------
    >>> arcc_capable(ARCC_MEMORY_CONFIG)
    True
    """
    return config.channels >= 2


def check_arcc_capable(config: MemoryConfig, field: str = "config") -> None:
    """Raise :class:`~repro.util.fields.FieldError` at ``field`` unless
    ``config`` is :func:`arcc_capable`."""
    if not arcc_capable(config):
        raise FieldError(
            field,
            f"organization {config.name!r} has {config.channels} "
            "channel(s); upgraded pages need the >= 2 channels ARCC "
            "pairing requires",
        )


@dataclass(frozen=True)
class SweepPoint:
    """One (organization, upgraded fraction) configuration to replay.

    ``lotecc_checksum`` turns on LOT-ECC operation accounting: every
    DRAM write issues an extra checksum write burst (relaxed nine-device
    LOT-ECC already pays this), and every *upgraded* fill additionally
    issues one checksum read per sub-line on the fill's critical path —
    the ``2r + 2w`` of the Figure 7.6 arithmetic, measured directly
    instead of scaled by the closed-form factor.

    Upgraded pages need ARCC pairing: a point with a non-zero
    ``upgraded_fraction`` on an organization that is not
    :func:`arcc_capable` is rejected when it is built.
    """

    config: MemoryConfig = ARCC_MEMORY_CONFIG
    upgraded_fraction: float = 0.0
    lotecc_checksum: bool = False

    def __post_init__(self) -> None:
        if self.upgraded_fraction:
            check_arcc_capable(self.config)


#: The replay engine tiers. ``auto`` resolves to the compiled kernel
#: when one can be built, else the reference; ``compiled`` *requires*
#: the kernel (refuses to run without it, never silently falls back);
#: ``reference`` pins ``TraceSimulator.run`` — the scalar per-access
#: model and the exact oracle of the compiled tier.
ENGINE_TIERS = ("auto", "compiled", "reference")


def resolve_engine(engine: str = "auto") -> str:
    """Map a requested tier to the one that will actually run.

    Returns ``"compiled"`` or ``"reference"``, each of which resolves
    to itself. Resolution is explicit so callers (planners, the CLI)
    can record the *resolved* tier in job configurations — runner cache
    keys then distinguish compiled from fallback runs, closing the
    silent-fallback hazard.
    """
    if engine not in ENGINE_TIERS:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINE_TIERS}"
        )
    if engine == "reference":
        return "reference"
    if kernel_available():
        return "compiled"
    if engine == "compiled":
        raise RuntimeError(
            "engine 'compiled' requested but the replay kernel is "
            f"unavailable: {kernel_provenance()}"
        )
    return "reference"


def engine_provenance() -> Dict[str, str]:
    """Which implementations back this process's fast paths.

    ``replay_engine`` is what ``auto`` resolves to right now,
    ``replay_kernel`` the loader's detail string (compiler found, mask,
    build failure...), and ``trace_rng`` whether materialization runs
    in the probed C materializer (``compiled-pcg64``) or steps
    ``CoreTrace`` itself (``generator-fallback``).
    Surfaced in CLI summaries and reports so a fallback is always
    visible, never silent.
    """
    return {
        "replay_engine": resolve_engine("auto"),
        "replay_kernel": kernel_provenance(),
        "trace_rng": trace_rng_provenance(),
    }


def clear_engine_memos() -> None:
    """Drop the memoized trace and its kernel buffers (cold-run
    benchmarking)."""
    clear_trace_memo()


def replay(
    mix: WorkloadMix,
    point: SweepPoint,
    instructions_per_core: int,
    seed: int,
    engine: str = "auto",
    processor: ProcessorConfig = PROCESSOR_CONFIG,
) -> MixResult:
    """Replay one mix at one point on the resolved engine tier.

    The compiled tier replays the memoized trace of ``(mix, seed,
    instructions_per_core)``, so consecutive points of one mix — any
    fraction, any organization — generate it once; the reference tier
    *is* ``TraceSimulator.run``, which draws its own traces.
    ``instructions_per_core`` below 1 raises ``ValueError`` on both.

    Examples
    --------
    >>> from repro.workloads.spec import mix_by_name
    >>> mix = mix_by_name("Mix1")
    >>> clean, quarter, lane = (
    ...     replay(mix, SweepPoint(upgraded_fraction=f), 2_000, seed=7)
    ...     for f in (0.0, 0.25, 1.0)
    ... )
    >>> clean.power.total_w < lane.power.total_w
    True
    >>> quarter.mix_name
    'Mix1'
    """
    check_instructions_per_core(instructions_per_core)
    if resolve_engine(engine) == "reference":
        return TraceSimulator(
            config=point.config,
            processor=processor,
            upgraded_fraction=point.upgraded_fraction,
            seed=seed,
            lotecc_checksum=point.lotecc_checksum,
        ).run(mix, instructions_per_core)
    batch = materialize_mix(mix, seed, instructions_per_core)
    return replay_compiled(batch, point, processor)[0]


def simulate_point_job(
    mix: WorkloadMix,
    config: MemoryConfig,
    upgraded_fraction: float,
    instructions_per_core: int,
    seed: int,
    engine: str = "auto",
    lotecc_checksum: bool = False,
) -> Dict[str, float]:
    """Picklable runner job: one (mix, organization, fraction) point.

    Every trace-simulation figure funnels through this one callable, so
    the result cache — which keys on callable + config + seed, not on
    the job's display name — shares identical points *across* figures:
    the fault-free ARCC run of Figure 7.1, the Figure 7.2/7.3 baseline
    and the sensitivity sweep's zero point are one cached simulation.

    Planners build these jobs with :func:`point_job`, which records the
    *resolved* engine tier (``"compiled"`` or ``"reference"``) rather than
    ``"auto"``: the tier is part of the job's configuration, so cache
    keys distinguish compiled results from fallback results and a
    machine that loses its compiler never silently reuses (or produces)
    entries under the wrong label. The tiers are bit-identical by
    contract, but the cache must not *depend* on that contract.
    """
    point = SweepPoint(
        config=config,
        upgraded_fraction=upgraded_fraction,
        lotecc_checksum=lotecc_checksum,
    )
    result = replay(mix, point, instructions_per_core, seed, engine=engine)
    return {
        "power_w": result.power.total_w,
        "background_w": result.power.background_w,
        "dynamic_w": result.power.dynamic_w,
        "performance": result.performance,
        "llc_miss_rate": result.llc_miss_rate,
        "average_memory_latency_ns": result.average_memory_latency_ns,
    }


def _trace_group(
    mix: WorkloadMix, seed: Optional[int], instructions_per_core: int
) -> Tuple[Any, ...]:
    """A point job's ``group``: the trace it replays."""
    return (mix.name, tuple(mix.profiles), seed, instructions_per_core)


def point_job(name: str, **config: Any) -> Job:
    """A :func:`simulate_point_job` runner job on this process's tier.

    The one place planners pick a replay tier: the job records
    ``engine=resolve_engine("auto")``, so a compiled result never
    satisfies a fallback run's cache lookup. ``REPRO_KERNEL_DISABLE=1``
    is how a run forces the reference tier.

    The job's ``group`` is its trace, ``(mix name, profiles, seed,
    instructions_per_core)``, so the runner runs the points of one trace
    back to back and the one-batch trace memo draws it once. The group
    is not part of the job's identity or cache key.

    The point is built here once, only for its check, so a plan with an
    upgraded point on a one-channel organization fails when it is built,
    not later in a worker. A planner with many points builds them with
    :func:`point_jobs`, which makes the same jobs.
    """
    SweepPoint(config["config"], config["upgraded_fraction"])
    return Job.create(
        name,
        simulate_point_job,
        engine=resolve_engine("auto"),
        group=_trace_group(
            config["mix"], config.get("seed"), config["instructions_per_core"]
        ),
        **config,
    )


def point_jobs(
    name: str,
    mixes: Sequence[WorkloadMix],
    points: Sequence[Tuple[str, MemoryConfig, float]],
    instructions_per_core: int,
    seed: int,
    **extra: Any,
) -> List[Job]:
    """:func:`point_job` of every (mix, point), mix by mix.

    Each ``(label, config, upgraded_fraction)`` of ``points`` gives, per
    mix, the job ``f"{name}[{mix.name}][{label}]"``; ``extra`` enters
    every job's configuration. The jobs equal :func:`point_job`'s, name,
    identity and group alike, but what depends only on the plan is done
    once per call: the tier is resolved once, each point's pairing is
    checked once rather than once per mix, and each mix's group is built
    once.

    Examples
    --------
    >>> from repro.config import BASELINE_MEMORY_CONFIG
    >>> jobs = point_jobs(
    ...     "demo", ALL_MIXES[:2],
    ...     [("base", BASELINE_MEMORY_CONFIG, 0.0),
    ...      ("arcc", ARCC_MEMORY_CONFIG, 0.0)],
    ...     instructions_per_core=2_000, seed=7,
    ... )
    >>> [job.name for job in jobs[:2]]
    ['demo[Mix1][base]', 'demo[Mix1][arcc]']
    >>> jobs[1].identity == point_job(
    ...     "any", mix=ALL_MIXES[0], config=ARCC_MEMORY_CONFIG,
    ...     upgraded_fraction=0.0, instructions_per_core=2_000, seed=7,
    ... ).identity
    True
    """
    engine = resolve_engine("auto")
    for _, config, fraction in points:
        SweepPoint(config, fraction)
    jobs = []
    for mix in mixes:
        group = _trace_group(mix, seed, instructions_per_core)
        for label, config, fraction in points:
            jobs.append(
                Job.create(
                    f"{name}[{mix.name}][{label}]",
                    simulate_point_job,
                    engine=engine,
                    group=group,
                    mix=mix,
                    config=config,
                    upgraded_fraction=fraction,
                    instructions_per_core=instructions_per_core,
                    seed=seed,
                    **extra,
                )
            )
    return jobs


#: ``(mix name, upgraded fraction) -> (power ratio, performance ratio)``
Ratios = Dict[Tuple[str, float], Tuple[float, float]]


@dataclass
class TraceRatios:
    """Trace points over their mix's fault-free point (Figures 7.2/7.3).

    The result shape of every ratio plan: ``ratios`` holds each mix's
    entry at ``0.0``, exactly ``(1.0, 1.0)``, and one per requested
    fraction, as :func:`plan_trace_ratios` assembles them.
    """

    ratios: Ratios

    def mixes(self) -> List[str]:
        """Mix names present, in run order."""
        return list(dict.fromkeys(mix for mix, _ in self.ratios))

    def average_power_ratio(self, fraction: float) -> float:
        """Mean power ratio at one fraction across mixes."""
        values = [p for (_, f), (p, _) in self.ratios.items() if f == fraction]
        return sequential_sum(values) / len(values)

    def average_performance_ratio(self, fraction: float) -> float:
        """Mean performance ratio at one fraction across mixes."""
        values = [q for (_, f), (_, q) in self.ratios.items() if f == fraction]
        return sequential_sum(values) / len(values)


def plan_trace_ratios(
    name: str,
    mixes: Optional[Sequence[WorkloadMix]],
    fractions: Sequence[float],
    config: MemoryConfig,
    instructions_per_core: int,
    seed: int,
    lotecc_checksum: bool = False,
) -> ExperimentPlan:
    """Per-mix trace ratios as runner jobs: the one normalization plan.

    Each mix (``None`` means every mix) gets its fault-free point, then
    one point per entry of ``fractions``: a ``0.0`` entry is the
    fault-free point itself, and duplicates are kept (they share one
    identity, so the runner computes them once). With
    ``lotecc_checksum`` both sides of every ratio replay in LOT-ECC
    checksum mode; only then does the flag enter the jobs'
    configurations, so relaxed points keep the identities that Figure
    7.1's ARCC point, the Figure 7.2 baseline and the sweep's zero
    point share. Assembles :data:`Ratios`, keyed by mix name, so two
    mixes that share a name raise ``ValueError`` here, when the plan is
    built.

    Examples
    --------
    >>> plan = plan_trace_ratios(
    ...     "demo", ALL_MIXES[:2], (0.0, 0.25, 1.0), ARCC_MEMORY_CONFIG,
    ...     instructions_per_core=2_000, seed=7,
    ... )
    >>> len(plan.jobs)
    6
    """
    check_instructions_per_core(instructions_per_core)
    mixes = list(mixes) if mixes is not None else list(ALL_MIXES)
    seen = set()
    for mix in mixes:
        if mix.name in seen:
            raise ValueError(
                f"{name}: mix name {mix.name!r} appears more than once; "
                "ratios are keyed by mix name, so each mix needs its own"
            )
        seen.add(mix.name)
    grid = [0.0] + [fraction for fraction in fractions if fraction != 0.0]
    checksum = {"lotecc_checksum": True} if lotecc_checksum else {}
    jobs = point_jobs(
        name,
        mixes,
        [(f"{fraction:g}", config, fraction) for fraction in grid],
        instructions_per_core,
        seed,
        **checksum,
    )

    def assemble(values: List[Dict[str, float]]) -> Ratios:
        ratios: Ratios = {}
        rest = iter(values)
        for mix in mixes:
            points = [next(rest) for _ in grid]
            base = points[0]
            for fraction, point in zip(grid, points):
                ratios[(mix.name, fraction)] = (
                    point["power_w"] / base["power_w"],
                    point["performance"] / base["performance"],
                )
        return ratios

    return ExperimentPlan(name=name, jobs=jobs, assemble=assemble)


__all__ = [
    "ENGINE_TIERS",
    "Ratios",
    "SweepPoint",
    "TraceRatios",
    "arcc_capable",
    "clear_engine_memos",
    "engine_provenance",
    "page_is_upgraded",
    "plan_trace_ratios",
    "point_job",
    "point_jobs",
    "replay",
    "resolve_engine",
    "simulate_point_job",
]
