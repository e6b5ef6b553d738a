"""NumPy-to-ctypes driver for the compiled replay kernel.

The kernel reads only a batch's organization-independent buffers —
addresses, write flags, gap cycles, core offsets and MLP, flattened
once per batch into its cached
:attr:`~repro.perf.trace.TraceBatch.kernel_buffers` — plus two
per-point inputs the driver builds in microseconds: the route table of
``M = channels x banks x ranks`` entries (:func:`_route_table`,
HIPERF's coordinates depend only on ``addr mod M``) and the
page-upgrade threshold of :func:`~repro.perf.simulator.
page_is_upgraded`, which the kernel tests inline on each miss. So no
per-access array exists per organization or per upgraded fraction.
The kernel hands back the per-core cycle counts and per-rank channel
counters that ``TraceSimulator.run`` holds after the last access, and
:func:`_finalize_result` rolls them up into a
:class:`~repro.perf.simulator.MixResult` through the same power
arithmetic as ``MemorySystem.power_report``, so a divergence from the
scalar oracle can only come from the sequential core itself — which is
what the golden matrix in ``tests/test_kernel_equivalence.py`` and the
``trace-kernel`` fuzz oracle pin.

The driver keeps no memo of its own: the flattened buffers live on the
batch and are freed with it, so the points replayed against one trace
flatten it once, and memory holds no more traces than the
:func:`repro.perf.trace.materialize_mix` memo does.
:func:`repro.perf.engine.replay` is the public way in.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.cache.llc import validate_llc_geometry
from repro.config import MemoryConfig, ProcessorConfig
from repro.dram.channel import POWERDOWN_HYSTERESIS_NS
from repro.dram.power import PowerCounters, RankPowerModel
from repro.dram.system import power_report_from_counters
from repro.dram.timing import power_params_for_width, timings_for_width
from repro.perf._kernel.loader import (
    REPLAY_NOMEM,
    STAT_HITS,
    STAT_MAX_OCCUPANCY,
    STAT_MIRROR_VIOLATIONS,
    STAT_MISSES,
    STAT_POSITIONS,
    ReplayParams,
    load_kernel,
)
from repro.perf.simulator import _HASH, _HASH_MOD, CoreResult, MixResult
from repro.perf.trace import TraceBatch
from repro.workloads.trace import CoreTrace

# The kernel takes a page's hash as the low 32 bits of the product.
assert _HASH_MOD == 1 << 32, "the replay kernel hashes pages mod 2**32"


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


def _route_table(config: MemoryConfig) -> Tuple[np.ndarray, ...]:
    """Contiguous int32 ``(chan, rank_index, bank_index)`` of every
    residue ``0..M-1``, ``M = channels x banks x ranks``.

    Rank indices are channel-major (``chan * ranks + rank``) and bank
    indices flat (``rank_index * banks + bank``), so the kernel never
    multiplies.
    """
    from repro.perf.engine import decode_lines

    n_ranks = config.ranks_per_channel
    banks = config.banks_per_device
    chan, rank, bank = decode_lines(
        np.arange(config.channels * banks * n_ranks), config
    )
    ri = chan * n_ranks + rank
    return tuple(
        np.ascontiguousarray(a, dtype=np.int32)
        for a in (chan, ri, ri * banks + bank)
    )


def _finalize_result(
    batch: TraceBatch,
    config: MemoryConfig,
    instructions: Tuple[int, ...],
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


def replay_compiled(
    batch: TraceBatch,
    point,
    processor: ProcessorConfig,
) -> Tuple[MixResult, KernelStats]:
    """Replay one ``SweepPoint`` over ``batch`` on the kernel.

    The :class:`~repro.perf.simulator.MixResult` is bit-identical to
    ``TraceSimulator.run``; the :class:`KernelStats` are the kernel's
    invariant audit of the same replay.
    """
    validate_llc_geometry(processor.l2_sets, processor.l2_assoc)
    config = point.config

    if not np.all(np.diff(batch.core_offsets) > 0):
        # The kernel reads a core's first access before it checks for
        # the end of its stream.
        raise ValueError("replay needs at least one access on every core")
    lib = load_kernel()
    buffers = batch.kernel_buffers
    routes = _route_table(config)

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
        lotecc_checksum=int(point.lotecc_checksum),
        route_mod=len(routes[0]),
        lines_per_page=CoreTrace.LINES_PER_PAGE,
        page_hash_mult=_HASH,
        trc_ns=timings.trc_ns,
        tras_ns=timings.tras_ns,
        burst_ns=timings.burst_ns,
        data_offset_ns=timings.trcd_ns + timings.cas_ns,
        hysteresis_ns=POWERDOWN_HYSTERESIS_NS,
        ns_per_cycle=1.0 / processor.clock_ghz,
        # page_is_upgraded's threshold, the same double (0.0 at
        # fraction 0, so nothing is upgraded).
        upgrade_below=point.upgraded_fraction * _HASH_MOD,
    )

    cycles = np.zeros(n_cores, dtype=np.float64)
    read_bursts = np.zeros(n_rank_states, dtype=np.int64)
    write_bursts = np.zeros(n_rank_states, dtype=np.int64)
    active_ns = np.zeros(n_rank_states, dtype=np.float64)
    powerdown_ns = np.zeros(n_rank_states, dtype=np.float64)
    last_activity = np.zeros(n_rank_states, dtype=np.float64)
    float_out = np.zeros(1, dtype=np.float64)
    stat_out = np.zeros(STAT_POSITIONS + n_cores, dtype=np.int64)

    outputs = (
        cycles,
        read_bursts,
        write_bursts,
        active_ns,
        powerdown_ns,
        last_activity,
        float_out,
        stat_out,
    )
    status = lib.replay_kernel(
        ctypes.byref(params),
        *buffers.pointers,
        *(a.ctypes.data for a in routes + outputs),
    )
    if status == REPLAY_NOMEM:
        raise MemoryError("replay kernel allocation failed")

    hits = int(stat_out[STAT_HITS])
    misses = int(stat_out[STAT_MISSES])
    result = _finalize_result(
        batch=batch,
        config=config,
        instructions=buffers.instructions,
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


__all__ = [
    "KernelStats",
    "replay_compiled",
]
