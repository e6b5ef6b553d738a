"""Trace replay of the interval model: tier selection and sweeps.

This is the hot path of ``repro run``. Every trace point replays on one
of two tiers, chosen per process by :func:`resolve_engine`:

* ``compiled`` — the C kernel of :mod:`repro.perf._kernel`, driven over
  the flat arrays of a materialized :class:`~repro.perf.trace.
  TraceBatch`: page-upgrade classification is one vectorized
  golden-ratio hash over the address stream
  (:func:`upgraded_page_flags`) and channel/rank/bank coordinates are
  decoded for every access and sibling in a handful of array ops
  (:func:`decode_lines`), shared by every point of a sweep;
* ``reference`` — :class:`~repro.perf.simulator.TraceSimulator`, the
  scalar per-access model: the kernel's exact oracle, and the fallback
  on hosts where the kernel does not build.

The two are bit-identical, field for field of the
:class:`~repro.perf.simulator.MixResult`
(``tests/test_kernel_equivalence.py``), LOT-ECC checksum points
(:attr:`SweepPoint.lotecc_checksum`) included. Everything
figure-facing goes through :func:`sweep` / :class:`BatchedTraceSimulator`
and the :func:`point_job` runner jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import (
    ARCC_MEMORY_CONFIG,
    PROCESSOR_CONFIG,
    MemoryConfig,
    ProcessorConfig,
)
from repro.dram.addressing import MappingPolicy
from repro.perf.simulator import (
    _HASH,
    _HASH_MOD,
    MixResult,
    TraceSimulator,
    page_is_upgraded,
)
from repro.perf.trace import TraceBatch, materialize_mix
from repro.runner.job import Job
from repro.workloads.spec import WorkloadMix


def upgraded_page_flags(pages: np.ndarray, fraction: float) -> np.ndarray:
    """Vectorized :func:`~repro.perf.simulator.page_is_upgraded`.

    Returns a boolean array, element-for-element equal to the scalar
    classifier: the hash product stays below 2**53, so the float64
    comparison against ``fraction * 2**32`` is exact.

    Examples
    --------
    >>> import numpy as np
    >>> pages = np.arange(6, dtype=np.int64)
    >>> bool(upgraded_page_flags(pages, 0.0).any())
    False
    >>> bool(upgraded_page_flags(pages, 1.0).all())
    True
    >>> from repro.perf.simulator import page_is_upgraded
    >>> flags = upgraded_page_flags(pages, 0.4)
    >>> [page_is_upgraded(int(p), 0.4) for p in pages] == flags.tolist()
    True
    """
    pages = np.asarray(pages, dtype=np.uint64)
    if fraction <= 0.0:
        return np.zeros(pages.shape, dtype=bool)
    if fraction >= 1.0:
        return np.ones(pages.shape, dtype=bool)
    hashed = (pages * np.uint64(_HASH)) % np.uint64(_HASH_MOD)
    return hashed < np.float64(fraction * _HASH_MOD)


def decode_lines(
    line_addresses: np.ndarray,
    config: MemoryConfig,
    policy: MappingPolicy = MappingPolicy.HIPERF,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``AddressMapping.decode`` to (channel, rank, bank).

    Row and column are irrelevant to the closed-page timing model, so
    only the three scheduling coordinates are produced. Matches the
    scalar decoder exactly for every mapping policy (integer mixed-radix
    arithmetic either way).
    """
    a = np.asarray(line_addresses, dtype=np.int64)
    lines_per_row = (
        config.page_bytes * config.pages_per_row // config.cacheline_bytes
    )
    channel, rest = a % config.channels, a // config.channels
    if policy is MappingPolicy.BASE:
        rest = rest // lines_per_row
        bank, rest = (
            rest % config.banks_per_device,
            rest // config.banks_per_device,
        )
        rank = rest % config.ranks_per_channel
    elif policy is MappingPolicy.HIPERF:
        bank, rest = (
            rest % config.banks_per_device,
            rest // config.banks_per_device,
        )
        rank = rest % config.ranks_per_channel
    else:  # CLOSE_PAGE
        rank, rest = (
            rest % config.ranks_per_channel,
            rest // config.ranks_per_channel,
        )
        bank = rest % config.banks_per_device
    return channel, rank, bank


def arcc_capable(config: MemoryConfig) -> bool:
    """Whether an organization can run upgraded (paired) pages.

    Sub-lines of an upgraded line live on the two sides of ``addr ^ 1``,
    and every mapping policy takes the channel from the bottom of the
    address, so pairing needs at least two channels. Custom organizations
    from scenario files are screened with this before any measured-
    overhead trace job is planned for them.

    Examples
    --------
    >>> arcc_capable(ARCC_MEMORY_CONFIG)
    True
    """
    return config.channels >= 2


@dataclass(frozen=True)
class SweepPoint:
    """One (organization, upgraded fraction) configuration to replay.

    ``lotecc_checksum`` turns on LOT-ECC operation accounting: every
    DRAM write issues an extra checksum write burst (relaxed nine-device
    LOT-ECC already pays this), and every *upgraded* fill additionally
    issues one checksum read per sub-line on the fill's critical path —
    the ``2r + 2w`` of the Figure 7.6 arithmetic, measured directly
    instead of scaled by the closed-form factor.
    """

    config: MemoryConfig = ARCC_MEMORY_CONFIG
    upgraded_fraction: float = 0.0
    arcc_enabled: Optional[bool] = None
    lotecc_checksum: bool = False

    def resolved_arcc(self) -> bool:
        """ARCC pairing on/off (defaults to multi-channel configs)."""
        if self.arcc_enabled is None:
            return arcc_capable(self.config)
        return self.arcc_enabled


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
    from repro.perf._kernel import kernel_available, kernel_provenance

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
    from repro.perf._kernel import kernel_provenance
    from repro.perf.trace import trace_rng_provenance

    return {
        "replay_engine": resolve_engine("auto"),
        "replay_kernel": kernel_provenance(),
        "trace_rng": trace_rng_provenance(),
    }


def _reference_simulator(
    point: SweepPoint, processor: ProcessorConfig, seed: int
) -> TraceSimulator:
    return TraceSimulator(
        config=point.config,
        processor=processor,
        upgraded_fraction=point.upgraded_fraction,
        arcc_enabled=point.arcc_enabled,
        seed=seed,
        lotecc_checksum=point.lotecc_checksum,
    )


def replay_resolved(
    batch: TraceBatch,
    point: SweepPoint,
    processor: ProcessorConfig,
    resolved: str,
) -> MixResult:
    """Replay one point on an already-resolved engine tier.

    The reference tier draws its own traces, so it runs the mix the
    batch was materialized from, rebuilt from ``batch.mix_name`` and
    ``batch.profiles``.
    """
    if resolved == "compiled":
        from repro.perf._kernel import replay_compiled

        return replay_compiled(batch, point, processor)
    mix = WorkloadMix(
        batch.mix_name, tuple(profile.name for profile in batch.profiles)
    )
    return _reference_simulator(point, processor, batch.seed).run(
        mix, batch.instructions_per_core
    )


def sweep(
    batch: TraceBatch,
    points: Sequence[SweepPoint],
    processor: ProcessorConfig = PROCESSOR_CONFIG,
    engine: str = "auto",
) -> List[MixResult]:
    """Replay many sweep points against one materialized trace.

    On the compiled tier the trace buffers are shared across all points
    and the route decode across every point with the same organization
    (both memoized), so per-point cost is the sequential replay alone.
    """
    resolved = resolve_engine(engine)
    return [
        replay_resolved(batch, point, processor, resolved)
        for point in points
    ]


def clear_engine_memos() -> None:
    """Drop memoized traces and replay arrays (cold-run benchmarking)."""
    from repro.perf._kernel import clear_kernel_memos
    from repro.perf.trace import clear_trace_memo

    clear_kernel_memos()
    clear_trace_memo()


class BatchedTraceSimulator:
    """Drop-in :class:`~repro.perf.simulator.TraceSimulator` on the
    resolved engine tier.

    Same constructor, same ``run`` contract, bit-identical results. On
    the compiled tier traces are materialized through the per-process
    memo, so repeated runs of one mix (any fraction, any organization)
    generate them once; on the reference tier ``run`` *is*
    ``TraceSimulator.run``.
    """

    def __init__(
        self,
        config: MemoryConfig = ARCC_MEMORY_CONFIG,
        processor: ProcessorConfig = PROCESSOR_CONFIG,
        upgraded_fraction: float = 0.0,
        arcc_enabled: Optional[bool] = None,
        seed: int = 0x7ACE,
        engine: str = "auto",
        lotecc_checksum: bool = False,
    ):
        self.processor = processor
        self.seed = seed
        self.engine = engine
        self.resolved_engine = resolve_engine(engine)
        self.point = SweepPoint(
            config=config,
            upgraded_fraction=upgraded_fraction,
            arcc_enabled=arcc_enabled,
            lotecc_checksum=lotecc_checksum,
        )
        if upgraded_fraction and not self.point.resolved_arcc():
            raise ValueError(
                "upgraded pages require an ARCC-capable configuration"
            )

    def run(
        self,
        mix: WorkloadMix,
        instructions_per_core: int = 200_000,
    ) -> MixResult:
        """Simulate one mix (identical contract to the scalar oracle)."""
        if self.resolved_engine == "reference":
            return _reference_simulator(
                self.point, self.processor, self.seed
            ).run(mix, instructions_per_core)
        from repro.perf._kernel import replay_compiled

        batch = materialize_mix(mix, self.seed, instructions_per_core)
        return replay_compiled(batch, self.point, self.processor)


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
    result = BatchedTraceSimulator(
        config=config,
        upgraded_fraction=upgraded_fraction,
        seed=seed,
        engine=engine,
        lotecc_checksum=lotecc_checksum,
    ).run(mix, instructions_per_core=instructions_per_core)
    return {
        "power_w": result.power.total_w,
        "background_w": result.power.background_w,
        "dynamic_w": result.power.dynamic_w,
        "performance": result.performance,
        "llc_miss_rate": result.llc_miss_rate,
        "average_memory_latency_ns": result.average_memory_latency_ns,
    }


def point_job(name: str, **config: Any) -> Job:
    """A :func:`simulate_point_job` runner job on this process's tier.

    The one place planners pick a replay tier: the job records
    ``engine=resolve_engine("auto")``, so a compiled result never
    satisfies a fallback run's cache lookup. ``REPRO_KERNEL_DISABLE=1``
    is how a run forces the reference tier.
    """
    return Job.create(
        name, simulate_point_job, engine=resolve_engine("auto"), **config
    )


__all__ = [
    "BatchedTraceSimulator",
    "ENGINE_TIERS",
    "SweepPoint",
    "arcc_capable",
    "clear_engine_memos",
    "decode_lines",
    "engine_provenance",
    "page_is_upgraded",
    "point_job",
    "replay_resolved",
    "resolve_engine",
    "simulate_point_job",
    "sweep",
    "upgraded_page_flags",
]
