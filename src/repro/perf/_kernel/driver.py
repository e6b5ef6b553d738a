"""NumPy-to-ctypes driver for the compiled replay kernel.

The kernel consumes flat per-access streams as contiguous NumPy
buffers — organization-independent trace arrays plus the
per-organization route decode (:func:`_route_indices`) — and hands back
the per-core cycle counts and per-rank channel counters that
``TraceSimulator.run`` holds after the last access. The driver
validates the point, classifies upgraded pages with the vectorized
hash, and rolls the counters up into a
:class:`~repro.perf.simulator.MixResult` (:func:`_finalize_result`)
through the same power arithmetic as ``MemorySystem.power_report``, so
a divergence from the scalar oracle can only come from the sequential
core itself — which is what the golden matrix in
``tests/test_kernel_equivalence.py`` and the ``trace-kernel`` fuzz
oracle pin.

Array memos are keyed on batch identity (batches are memoized by
:func:`repro.perf.trace.materialize_mix`), so a sweep flattens each
trace once per process and decodes once per organization.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.config import PROCESSOR_CONFIG, MemoryConfig, ProcessorConfig
from repro.dram.channel import POWERDOWN_HYSTERESIS_NS
from repro.dram.power import PowerCounters, RankPowerModel
from repro.dram.system import power_report_from_counters
from repro.dram.timing import power_params_for_width, timings_for_width
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
from repro.perf.simulator import CoreResult, MixResult
from repro.perf.trace import TraceBatch
from repro.workloads.trace import CoreTrace


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
def _trace_buffers(batch: TraceBatch):
    """Contiguous organization-independent buffers for one batch."""
    return (
        np.ascontiguousarray(batch.line_addresses, dtype=np.int64),
        np.ascontiguousarray(batch.write_flags).view(np.uint8),
        np.ascontiguousarray(batch.gap_cycles(), dtype=np.float64),
        np.ascontiguousarray(batch.core_offsets, dtype=np.int64),
        np.array([p.mlp for p in batch.profiles], dtype=np.float64),
    )


@lru_cache(maxsize=64)
def _route_indices(
    batch: TraceBatch, config: MemoryConfig
) -> Tuple[np.ndarray, ...]:
    """Decode every access and its ``^ 1`` sibling for one organization.

    Returns contiguous int32 ``(chan, rank_index, bank_index, sib_chan,
    sib_rank_index, sib_bank_index)``: rank indices are channel-major
    (``chan * ranks + rank``) and bank indices flat (``rank_index *
    banks + bank``), so the kernel never multiplies. The conversion
    must run while the int64 intermediates are still alive: converting
    after they are freed lets the long-lived memo buffers fragment the
    glibc heap, about 40 MB more peak RSS on a full-scale ``repro run``.
    """
    from repro.perf.engine import decode_lines

    addresses = batch.line_addresses
    n_ranks = config.ranks_per_channel
    banks = config.banks_per_device
    chan_a, rank_a, bank_a = decode_lines(addresses, config)
    sib_chan_a, sib_rank_a, sib_bank_a = decode_lines(addresses ^ 1, config)
    ri_a = chan_a * n_ranks + rank_a
    sri_a = sib_chan_a * n_ranks + sib_rank_a
    return tuple(
        np.ascontiguousarray(a, dtype=np.int32)
        for a in (
            chan_a,
            ri_a,
            ri_a * banks + bank_a,
            sib_chan_a,
            sri_a,
            sri_a * banks + sib_bank_a,
        )
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
    _trace_buffers.cache_clear()
    _route_indices.cache_clear()
    _upgraded_flag_arrays.cache_clear()


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def _finalize_result(
    batch: TraceBatch,
    config: MemoryConfig,
    cycles: List[float],
    last_activity: List[float],
    powerdown_ns: List[float],
    read_bursts: List[int],
    write_bursts: List[int],
    active_ns: List[float],
    total_latency: float,
    hits: int,
    misses: int,
    ns_per_cycle: float,
) -> MixResult:
    """Rollup of one replay's end state into a :class:`MixResult`.

    ``MemorySystem.power_report`` over reconstructed counters: the same
    trailing power-down accounting as ``Channel.finalize`` and the same
    :func:`~repro.dram.system.power_report_from_counters` arithmetic.
    """
    timings = timings_for_width(config.io_width)
    hysteresis = POWERDOWN_HYSTERESIS_NS
    instructions = [
        int(batch.instruction_gaps[batch.core_slice(i)].sum())
        for i in range(batch.cores)
    ]
    end_ns = max(cycles) * ns_per_cycle
    counters = []
    for ri in range(config.channels * config.ranks_per_channel):
        trailing = end_ns - last_activity[ri]
        pd = powerdown_ns[ri]
        if trailing > hysteresis:
            pd += trailing - hysteresis
        counters.append(
            PowerCounters(
                # Every Channel.service is one ACT-PRE pair: activates
                # is exactly the burst count (reads + writes).
                activates=read_bursts[ri] + write_bursts[ri],
                read_bursts=read_bursts[ri],
                write_bursts=write_bursts[ri],
                elapsed_ns=end_ns,
                active_ns=active_ns[ri],
                powerdown_ns=pd,
            )
        )
    model = RankPowerModel(
        config.devices_per_rank,
        power_params_for_width(config.io_width),
        timings,
    )
    power = power_report_from_counters(model, counters, end_ns)
    accesses = hits + misses
    return MixResult(
        mix_name=batch.mix_name,
        cores=[
            CoreResult(
                benchmark=profile.name,
                instructions=instructions[i],
                cycles=cycles[i],
            )
            for i, profile in enumerate(batch.profiles)
        ],
        power=power,
        llc_miss_rate=(misses / accesses if accesses else 0.0),
        average_memory_latency_ns=(
            total_latency / misses if misses else 0.0
        ),
    )


def _replay_compiled(
    batch: TraceBatch,
    point,
    processor: ProcessorConfig,
) -> Tuple[MixResult, KernelStats]:
    """One compiled replay: validate, marshal, run, finalize."""
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
    addr, write, gap_cyc, core_offsets, mlp = _trace_buffers(batch)
    chan, ri, fb, schan, sri, sfb = _route_indices(batch, config)
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
        # The exact message the scalar controller raises on this
        # condition.
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
) -> MixResult:
    """Replay one ``SweepPoint`` over ``batch`` on the kernel —
    bit-identical to ``TraceSimulator.run``."""
    return _replay_compiled(batch, point, processor)[0]


def replay_compiled_stats(
    batch: TraceBatch,
    point,
    processor: ProcessorConfig = PROCESSOR_CONFIG,
) -> Tuple[MixResult, KernelStats]:
    """Compiled replay plus the kernel's invariant audit."""
    return _replay_compiled(batch, point, processor)


__all__ = [
    "KernelStats",
    "clear_kernel_memos",
    "replay_compiled",
    "replay_compiled_stats",
]
