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
from repro.dram.addressing import decode_lines
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
    STAT_PROBE_COLLISIONS,
    ReplayParams,
    load_kernel,
)
from repro.perf.simulator import (
    PAGE_HASH_MODULUS,
    PAGE_HASH_MULTIPLIER,
    CoreResult,
    MixResult,
)
from repro.perf.trace import TraceBatch
from repro.workloads.trace import CoreTrace

# The kernel takes a page's hash as the low 32 bits of the product.
assert PAGE_HASH_MODULUS == 1 << 32, "the replay kernel hashes pages mod 2**32"


@dataclass(frozen=True)
class KernelStats:
    """The kernel's self-audited invariants for one replay.

    ``max_occupancy`` is the high-water mark of resident lines (the
    property suite asserts it never exceeds sets x ways),
    ``mirror_violations`` counts hits on a paired line whose sibling
    was missing or carried a different recency tick (must be zero),
    ``probe_collisions`` counts ways whose address fingerprint matched
    a probed line that was not theirs (each cost one address compare),
    and ``final_positions`` are each core's stop indices (must equal
    the batch's ``core_offsets[1:]`` — exact termination).
    """

    hits: int
    misses: int
    max_occupancy: int
    mirror_violations: int
    probe_collisions: int
    final_positions: Tuple[int, ...]


def _route_table(config: MemoryConfig) -> np.ndarray:
    """The int32 rows ``(chan, rank_index, bank_index)`` of every
    residue ``0..M-1``, ``M = channels x banks x ranks``, as one
    C-contiguous ``(3, M)`` array.

    Rank indices are channel-major (``chan * ranks + rank``) and bank
    indices flat (``rank_index * banks + bank``), so the kernel never
    multiplies.
    """
    n_ranks = config.ranks_per_channel
    banks = config.banks_per_device
    chan, rank, bank = decode_lines(
        np.arange(config.channels * banks * n_ranks), config
    )
    ri = chan * n_ranks + rank
    return np.array((chan, ri, ri * banks + bank), dtype=np.int32)


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
    lib = load_kernel()
    buffers = batch.kernel_buffers
    routes = _route_table(config)
    route_mod = routes.shape[1]

    timings = timings_for_width(config.io_width)
    n_cores = batch.cores
    n_rank_states = config.channels * config.ranks_per_channel
    ns_per_cycle = 1.0 / processor.clock_ghz
    params = ReplayParams(
        n_accesses=batch.accesses,
        n_cores=n_cores,
        n_sets=processor.l2_sets,
        n_ways=processor.l2_assoc,
        n_channels=config.channels,
        n_ranks=config.ranks_per_channel,
        banks_per_device=config.banks_per_device,
        lotecc_checksum=int(point.lotecc_checksum),
        route_mod=route_mod,
        lines_per_page=CoreTrace.LINES_PER_PAGE,
        page_hash_mult=PAGE_HASH_MULTIPLIER,
        trc_ns=timings.trc_ns,
        tras_ns=timings.tras_ns,
        burst_ns=timings.burst_ns,
        data_offset_ns=timings.trcd_ns + timings.cas_ns,
        hysteresis_ns=POWERDOWN_HYSTERESIS_NS,
        ns_per_cycle=ns_per_cycle,
        # page_is_upgraded's threshold, the same double (0.0 at
        # fraction 0, so nothing is upgraded).
        upgrade_below=point.upgraded_fraction * PAGE_HASH_MODULUS,
    )

    # The outputs live in one float64 and one int64 buffer, zeroed:
    # float64 [cycles | active_ns | powerdown_ns | last_activity |
    # total latency] and int64 [read_bursts | write_bursts | stat_out].
    n = n_rank_states
    floats = np.zeros(n_cores + 3 * n + 1)
    ints = np.zeros(2 * n + STAT_POSITIONS + n_cores, dtype=np.int64)
    f = floats.ctypes.data
    i = ints.ctypes.data
    r = routes.ctypes.data
    status = lib.replay_kernel(
        ctypes.byref(params),
        *buffers.pointers,
        r,
        r + 4 * route_mod,
        r + 8 * route_mod,
        f,  # cycles
        i,  # read_bursts
        i + 8 * n,  # write_bursts
        f + 8 * n_cores,  # active_ns
        f + 8 * (n_cores + n),  # powerdown_ns
        f + 8 * (n_cores + 2 * n),  # last_activity
        f + 8 * (n_cores + 3 * n),  # total latency
        i + 16 * n,  # stat_out
    )
    if status == REPLAY_NOMEM:
        raise MemoryError("replay kernel allocation failed")

    float_list = floats.tolist()
    int_list = ints.tolist()
    stat = int_list[2 * n :]
    hits = stat[STAT_HITS]
    misses = stat[STAT_MISSES]
    c = n_cores
    result = _finalize_result(
        batch=batch,
        config=config,
        instructions=buffers.instructions,
        cycles=float_list[:c],
        last_activity=float_list[c + 2 * n : c + 3 * n],
        powerdown_ns=float_list[c + n : c + 2 * n],
        read_bursts=int_list[:n],
        write_bursts=int_list[n : 2 * n],
        active_ns=float_list[c : c + n],
        total_latency=float_list[c + 3 * n],
        hits=hits,
        misses=misses,
        ns_per_cycle=ns_per_cycle,
    )
    stats = KernelStats(
        hits=hits,
        misses=misses,
        max_occupancy=stat[STAT_MAX_OCCUPANCY],
        mirror_violations=stat[STAT_MIRROR_VIOLATIONS],
        probe_collisions=stat[STAT_PROBE_COLLISIONS],
        final_positions=tuple(stat[STAT_POSITIONS:]),
    )
    return result, stats


__all__ = [
    "KernelStats",
    "replay_compiled",
]
