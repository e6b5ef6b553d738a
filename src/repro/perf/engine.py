"""Trace replay of the interval model: tier selection and replay.

This is the hot path of ``repro run``. Every trace point replays through
:func:`replay` on one of two tiers, chosen per process by
:func:`resolve_engine`:

* ``compiled`` — the C kernel of :mod:`repro.perf._kernel`, driven over
  the flat arrays of a materialized :class:`~repro.perf.trace.
  TraceBatch`: page-upgrade classification is one vectorized
  golden-ratio hash over the address stream
  (:func:`upgraded_page_flags`) and channel/rank/bank coordinates are
  decoded for every access and sibling in a handful of array ops
  (:func:`decode_lines`), both memoized per trace and shared by every
  point replayed against it;
* ``reference`` — :class:`~repro.perf.simulator.TraceSimulator`, the
  scalar per-access model: the kernel's exact oracle, and the fallback
  on hosts where the kernel does not build.

The two are bit-identical, field for field of the
:class:`~repro.perf.simulator.MixResult`
(``tests/test_kernel_equivalence.py``), LOT-ECC checksum points
(:attr:`SweepPoint.lotecc_checksum`) included. Figures reach
:func:`replay` through the :func:`point_job` runner jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.config import (
    ARCC_MEMORY_CONFIG,
    PROCESSOR_CONFIG,
    MemoryConfig,
    ProcessorConfig,
)
from repro.perf.simulator import (
    _HASH,
    _HASH_MOD,
    MixResult,
    TraceSimulator,
    page_is_upgraded,
)
from repro.perf.trace import materialize_mix
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
    line_addresses: np.ndarray, config: MemoryConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized HIPERF ``AddressMapping.decode`` to (channel, rank, bank).

    Row and column are irrelevant to the closed-page timing model, so
    only the three scheduling coordinates are produced. Matches the
    scalar decoder exactly (integer mixed-radix arithmetic either way);
    HIPERF is the one mapping the memory system replays under.
    """
    a = np.asarray(line_addresses, dtype=np.int64)
    channel, rest = a % config.channels, a // config.channels
    bank, rest = (
        rest % config.banks_per_device,
        rest // config.banks_per_device,
    )
    rank = rest % config.ranks_per_channel
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

    Upgraded pages need ARCC pairing: a point with a non-zero
    ``upgraded_fraction`` and pairing off is rejected when it is built.
    """

    config: MemoryConfig = ARCC_MEMORY_CONFIG
    upgraded_fraction: float = 0.0
    arcc_enabled: Optional[bool] = None
    lotecc_checksum: bool = False

    def __post_init__(self) -> None:
        if self.upgraded_fraction and not self.resolved_arcc():
            raise ValueError(
                "upgraded pages require an ARCC-capable configuration"
            )

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


def clear_engine_memos() -> None:
    """Drop memoized traces and replay arrays (cold-run benchmarking)."""
    from repro.perf._kernel import clear_kernel_memos
    from repro.perf.trace import clear_trace_memo

    clear_kernel_memos()
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
    instructions_per_core)``, so points of one mix — any fraction, any
    organization — generate it once per process; the reference tier
    *is* ``TraceSimulator.run``, which draws its own traces.

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
    if resolve_engine(engine) == "reference":
        return TraceSimulator(
            config=point.config,
            processor=processor,
            upgraded_fraction=point.upgraded_fraction,
            arcc_enabled=point.arcc_enabled,
            seed=seed,
            lotecc_checksum=point.lotecc_checksum,
        ).run(mix, instructions_per_core)
    from repro.perf._kernel import replay_compiled

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
    "ENGINE_TIERS",
    "SweepPoint",
    "arcc_capable",
    "clear_engine_memos",
    "decode_lines",
    "engine_provenance",
    "page_is_upgraded",
    "point_job",
    "replay",
    "resolve_engine",
    "simulate_point_job",
    "upgraded_page_flags",
]
