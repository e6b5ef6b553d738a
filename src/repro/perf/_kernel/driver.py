"""NumPy-to-ctypes driver for the compiled replay kernel.

The kernel consumes exactly the flat per-access streams the Python
engine precomputes — organization-independent trace arrays plus the
per-organization route decode — as contiguous NumPy buffers, and hands
back the same per-core cycle counts and per-rank channel counters the
Python loop would hold after the last access. Everything around the
sequential core is shared with :func:`repro.perf.engine.replay`: the
same validation, the same vectorized upgraded-page classification, and
the same finalization (power rollup into a
:class:`~repro.perf.simulator.MixResult`), so a divergence can only
come from the transcribed loop itself — which is what the three-way
matrix in ``tests/test_kernel_equivalence.py`` and the ``trace-kernel``
fuzz oracle pin.

Array memos mirror the engine's: keyed on batch identity (batches are
memoized by :func:`repro.perf.trace.materialize_mix`), so a sweep
flattens each trace once per process and decodes once per organization.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.config import PROCESSOR_CONFIG, MemoryConfig, ProcessorConfig
from repro.dram.addressing import MappingPolicy
from repro.dram.channel import POWERDOWN_HYSTERESIS_NS
from repro.dram.timing import timings_for_width
from repro.perf._kernel.loader import (
    REPLAY_NOMEM,
    REPLAY_SINGLE_CHANNEL_PAIR,
    STAT_HITS,
    STAT_MAX_OCCUPANCY,
    STAT_MIRROR_VIOLATIONS,
    STAT_MISSES,
    STAT_POSITIONS,
    ReplayParams,
    load_kernel,
)
from repro.perf.simulator import MixResult
from repro.perf.trace import TraceBatch
from repro.workloads.trace import CoreTrace

#: MappingPolicy -> the integer code kernel.c switches on.
_POLICY_CODES = {
    MappingPolicy.BASE: 0,
    MappingPolicy.HIPERF: 1,
    MappingPolicy.CLOSE_PAGE: 2,
}


@dataclass(frozen=True)
class KernelStats:
    """The kernel's self-audited invariants for one replay.

    ``max_occupancy`` is the high-water mark of resident lines (the
    property suite asserts it never exceeds sets x ways),
    ``mirror_violations`` counts hits on a paired line whose sibling
    was missing or carried a different recency tick (must be zero), and
    ``final_positions`` are each core's stop indices (must equal the
    batch's ``core_offsets[1:]`` — exact termination).
    """

    hits: int
    misses: int
    max_occupancy: int
    mirror_violations: int
    final_positions: Tuple[int, ...]


@lru_cache(maxsize=64)
def _kernel_trace_arrays(batch: TraceBatch):
    """Contiguous organization-independent buffers for one batch."""
    return (
        np.ascontiguousarray(batch.line_addresses, dtype=np.int64),
        np.ascontiguousarray(batch.write_flags).view(np.uint8),
        np.ascontiguousarray(batch.gap_cycles(), dtype=np.float64),
        np.ascontiguousarray(batch.core_offsets, dtype=np.int64),
        np.array([p.mlp for p in batch.profiles], dtype=np.float64),
    )


@lru_cache(maxsize=64)
def _kernel_route_arrays(
    batch: TraceBatch, config: MemoryConfig, policy: MappingPolicy
):
    """Contiguous per-organization route buffers (int32) for one batch."""
    from repro.perf.engine import _route_indices

    return _route_indices(
        batch,
        config,
        policy,
        lambda a: np.ascontiguousarray(a, dtype=np.int32),
    )


@lru_cache(maxsize=16)
def _upgraded_flag_arrays(
    batch: TraceBatch, fraction: float
) -> np.ndarray:
    """Per-access upgraded flags as a contiguous uint8 buffer."""
    from repro.perf.engine import upgraded_page_flags

    pages = batch.line_addresses // CoreTrace.LINES_PER_PAGE
    return np.ascontiguousarray(
        upgraded_page_flags(pages, fraction)
    ).view(np.uint8)


def clear_kernel_memos() -> None:
    """Drop the kernel's array memos (cold-run benchmarking)."""
    _kernel_trace_arrays.cache_clear()
    _kernel_route_arrays.cache_clear()
    _upgraded_flag_arrays.cache_clear()


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def _replay_compiled(
    batch: TraceBatch,
    point,
    processor: ProcessorConfig,
    policy: MappingPolicy,
) -> Tuple[MixResult, KernelStats]:
    """One compiled replay: validate, marshal, run, finalize."""
    from repro.perf.engine import _finalize_result

    config = point.config
    arcc_enabled = point.resolved_arcc()
    fraction = point.upgraded_fraction
    if fraction and not arcc_enabled:
        raise ValueError(
            "upgraded pages require an ARCC-capable configuration"
        )
    paired_single_channel = (
        bool(fraction) and arcc_enabled and config.channels == 1
    )

    lib = load_kernel()
    addr, write, gap_cyc, core_offsets, mlp = _kernel_trace_arrays(batch)
    chan, ri, fb, schan, sri, sfb = _kernel_route_arrays(
        batch, config, policy
    )
    if arcc_enabled and fraction > 0.0:
        upgraded = _upgraded_flag_arrays(batch, fraction)
    else:
        upgraded = np.zeros(batch.accesses, dtype=np.uint8)

    timings = timings_for_width(config.io_width)
    n_cores = batch.cores
    n_rank_states = config.channels * config.ranks_per_channel
    params = ReplayParams(
        n_accesses=batch.accesses,
        n_cores=n_cores,
        n_sets=processor.l2_sets,
        n_ways=processor.l2_assoc,
        n_channels=config.channels,
        n_ranks=config.ranks_per_channel,
        banks_per_device=config.banks_per_device,
        lines_per_row=(
            config.page_bytes
            * config.pages_per_row
            // config.cacheline_bytes
        ),
        policy=_POLICY_CODES[policy],
        paired_single_channel=int(paired_single_channel),
        lotecc_checksum=int(point.lotecc_checksum),
        trc_ns=timings.trc_ns,
        tras_ns=timings.tras_ns,
        burst_ns=timings.burst_ns,
        data_offset_ns=timings.trcd_ns + timings.cas_ns,
        hysteresis_ns=POWERDOWN_HYSTERESIS_NS,
        ns_per_cycle=1.0 / processor.clock_ghz,
    )

    cycles = np.zeros(n_cores, dtype=np.float64)
    read_bursts = np.zeros(n_rank_states, dtype=np.int64)
    write_bursts = np.zeros(n_rank_states, dtype=np.int64)
    active_ns = np.zeros(n_rank_states, dtype=np.float64)
    powerdown_ns = np.zeros(n_rank_states, dtype=np.float64)
    last_activity = np.zeros(n_rank_states, dtype=np.float64)
    float_out = np.zeros(1, dtype=np.float64)
    stat_out = np.zeros(STAT_POSITIONS + n_cores, dtype=np.int64)

    status = lib.replay_kernel(
        ctypes.byref(params),
        _ptr(addr),
        _ptr(write),
        _ptr(gap_cyc),
        _ptr(chan),
        _ptr(ri),
        _ptr(fb),
        _ptr(schan),
        _ptr(sri),
        _ptr(sfb),
        _ptr(upgraded),
        _ptr(core_offsets),
        _ptr(mlp),
        _ptr(cycles),
        _ptr(read_bursts),
        _ptr(write_bursts),
        _ptr(active_ns),
        _ptr(powerdown_ns),
        _ptr(last_activity),
        _ptr(float_out),
        _ptr(stat_out),
    )
    if status == REPLAY_SINGLE_CHANNEL_PAIR:
        # The exact message the Python engine (and the scalar
        # controller behind it) raises on this condition.
        raise RuntimeError(
            "sub-lines of an upgraded line mapped to one channel; "
            "address mapping must interleave channels at line level"
        )
    if status == REPLAY_NOMEM:
        raise MemoryError("replay kernel allocation failed")

    hits = int(stat_out[STAT_HITS])
    misses = int(stat_out[STAT_MISSES])
    result = _finalize_result(
        batch=batch,
        config=config,
        cycles=cycles.tolist(),
        last_activity=last_activity.tolist(),
        powerdown_ns=powerdown_ns.tolist(),
        read_bursts=read_bursts.tolist(),
        write_bursts=write_bursts.tolist(),
        active_ns=active_ns.tolist(),
        total_latency=float(float_out[0]),
        hits=hits,
        misses=misses,
        ns_per_cycle=1.0 / processor.clock_ghz,
    )
    stats = KernelStats(
        hits=hits,
        misses=misses,
        max_occupancy=int(stat_out[STAT_MAX_OCCUPANCY]),
        mirror_violations=int(stat_out[STAT_MIRROR_VIOLATIONS]),
        final_positions=tuple(
            int(v) for v in stat_out[STAT_POSITIONS:]
        ),
    )
    return result, stats


def replay_compiled(
    batch: TraceBatch,
    point,
    processor: ProcessorConfig = PROCESSOR_CONFIG,
    policy: MappingPolicy = MappingPolicy.HIPERF,
) -> MixResult:
    """Compiled-tier :func:`repro.perf.engine.replay` — bit-identical."""
    return _replay_compiled(batch, point, processor, policy)[0]


def replay_compiled_stats(
    batch: TraceBatch,
    point,
    processor: ProcessorConfig = PROCESSOR_CONFIG,
    policy: MappingPolicy = MappingPolicy.HIPERF,
) -> Tuple[MixResult, KernelStats]:
    """Compiled replay plus the kernel's invariant audit."""
    return _replay_compiled(batch, point, processor, policy)


__all__ = [
    "KernelStats",
    "clear_kernel_memos",
    "replay_compiled",
    "replay_compiled_stats",
]
