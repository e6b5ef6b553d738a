"""Batched replay of the interval model over materialized traces.

This is the hot path of ``repro run``: where :class:`~repro.perf.
simulator.TraceSimulator` walks the quad-core interval model one
object-heavy access at a time — dataclass allocations, property
recomputation and a mapping decode per request — :func:`replay` drives
the *same* model over the flat arrays of a :class:`~repro.perf.trace.
TraceBatch`:

* page-upgrade classification is one vectorized golden-ratio hash over
  the whole address stream (:func:`upgraded_page_flags`);
* channel/rank/bank coordinates are decoded for every access (and every
  upgraded sibling) in a handful of array ops (:func:`decode_lines`),
  then packed with the pre-divided compute cycles into per-access
  tuples shared by every point of a sweep;
* the remaining sequential core — LLC tags, channel scheduling, stall
  and IDD accounting — runs as a tight loop over plain Python scalars
  with list-backed state and near-zero allocations per access.

The replay is an *exact* reimplementation: same floating-point
operations in the same order, same LRU tie-breaks, same tick sequence —
so its :class:`~repro.perf.simulator.MixResult` matches
``TraceSimulator.run`` bit for bit (``tests/test_perf_engine.py`` holds
that line for all 12 mixes). ``TraceSimulator.run`` stays as the oracle;
everything figure-facing goes through :func:`sweep` /
:class:`BatchedTraceSimulator`, which amortize one materialized trace
across arbitrarily many ``upgraded_fraction`` / organization points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import (
    ARCC_MEMORY_CONFIG,
    PROCESSOR_CONFIG,
    MemoryConfig,
    ProcessorConfig,
)
from repro.dram.addressing import MappingPolicy
from repro.dram.channel import POWERDOWN_HYSTERESIS_NS
from repro.dram.power import PowerCounters, RankPowerModel
from repro.dram.system import power_report_from_counters
from repro.dram.timing import power_params_for_width, timings_for_width
from repro.perf.simulator import (
    _HASH,
    _HASH_MOD,
    CoreResult,
    MixResult,
    page_is_upgraded,
)
from repro.perf.trace import TraceBatch, materialize_mix
from repro.runner.job import Job
from repro.workloads.spec import WorkloadMix
from repro.workloads.trace import CoreTrace


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


@dataclass(frozen=True)
class _TraceArrays:
    """Organization-independent flat lists of one materialized trace.

    Plain Python lists of primitives: scalar indexing on ndarrays would
    dominate the replay loop (every ``[]`` births a NumPy scalar), and
    primitive elements keep the working set invisible to the cyclic
    garbage collector — the replay loop is allocation-free, so gen-2
    collections never churn through the materialized streams.
    """

    addr: list
    write: list
    gap_cycles: list


@dataclass(frozen=True)
class _RouteArrays:
    """Per-(trace, organization) decode of every access and sibling.

    Rank indices are channel-major (``chan * ranks + rank``) and bank
    indices flat (``rank_index * banks + bank``) so the loop never
    multiplies.
    """

    chan: list
    rank_index: list
    bank_index: list
    sib_chan: list
    sib_rank_index: list
    sib_bank_index: list


@lru_cache(maxsize=64)
def _trace_arrays(batch: TraceBatch) -> _TraceArrays:
    """Flatten one trace's organization-independent streams.

    Memoized on the batch's *identity* (batches are themselves memoized
    by :func:`~repro.perf.trace.materialize_mix`), so per-(mix, point)
    runner jobs landing in one worker flatten each trace once — and a
    multi-organization sweep (e.g. Figure 7.1) holds one copy, not one
    per organization.
    """
    return _TraceArrays(
        addr=batch.line_addresses.tolist(),
        write=batch.write_flags.tolist(),
        gap_cycles=batch.gap_cycles().tolist(),
    )


def _route_indices(
    batch: TraceBatch,
    config: MemoryConfig,
    policy: MappingPolicy,
    convert: Callable[[np.ndarray], Any],
) -> Tuple[Any, ...]:
    """Decode every access and its ``^ 1`` sibling for one organization.

    Returns ``convert`` of ``(chan, rank_index, bank_index, sib_chan,
    sib_rank_index, sib_bank_index)`` in the :class:`_RouteArrays`
    layout. Unmemoized: each replay tier memoizes the result in its own
    format (Python lists here, contiguous int32 buffers in the compiled
    driver). The conversion must run while the int64 intermediates are
    still alive: converting after they are freed lets the long-lived
    memo buffers fragment the glibc heap, about 40 MB more peak RSS on a
    full-scale ``repro run``.
    """
    addresses = batch.line_addresses
    n_ranks = config.ranks_per_channel
    banks = config.banks_per_device
    chan_a, rank_a, bank_a = decode_lines(addresses, config, policy)
    sib_chan_a, sib_rank_a, sib_bank_a = decode_lines(
        addresses ^ 1, config, policy
    )
    ri_a = chan_a * n_ranks + rank_a
    sri_a = sib_chan_a * n_ranks + sib_rank_a
    return tuple(
        convert(a)
        for a in (
            chan_a,
            ri_a,
            ri_a * banks + bank_a,
            sib_chan_a,
            sri_a,
            sri_a * banks + sib_bank_a,
        )
    )


@lru_cache(maxsize=64)
def _route_arrays(
    batch: TraceBatch, config: MemoryConfig, policy: MappingPolicy
) -> _RouteArrays:
    """Vectorized decode of every access for one organization."""
    return _RouteArrays(
        *_route_indices(batch, config, policy, np.ndarray.tolist)
    )


def replay(
    batch: TraceBatch,
    point: SweepPoint = SweepPoint(),
    processor: ProcessorConfig = PROCESSOR_CONFIG,
    policy: MappingPolicy = MappingPolicy.HIPERF,
) -> MixResult:
    """Replay one sweep point over a materialized trace.

    Bit-identical to ``TraceSimulator(point.config, processor,
    point.upgraded_fraction, point.arcc_enabled, batch.seed).run(mix,
    batch.instructions_per_core)`` — same interleave, same LLC
    decisions, same floats — at a fraction of the interpreter cost.
    """
    config = point.config
    arcc_enabled = point.resolved_arcc()
    fraction = point.upgraded_fraction
    if fraction and not arcc_enabled:
        raise ValueError(
            "upgraded pages require an ARCC-capable configuration"
        )
    # Sub-lines (addr and addr ^ 1) differ by exactly one, and every
    # mapping policy takes the channel from the bottom of the address,
    # so they share a channel iff there is only one. The scalar
    # controller raises on the first *paired memory access* in that
    # case — replicated lazily in the miss path below, because a run
    # whose upgraded pages are never missed completes on the oracle.
    paired_single_channel = (
        bool(fraction) and arcc_enabled and config.channels == 1
    )
    lotecc_checksum = point.lotecc_checksum

    # -- vectorized precomputation -----------------------------------------
    addresses = batch.line_addresses
    trace_arrays = _trace_arrays(batch)
    route = _route_arrays(batch, config, policy)
    if arcc_enabled and fraction > 0.0:
        pages = addresses // CoreTrace.LINES_PER_PAGE
        upgraded_a = upgraded_page_flags(pages, fraction)
    else:
        upgraded_a = np.zeros(len(addresses), dtype=bool)
    ADDR = trace_arrays.addr
    WRITE = trace_arrays.write
    GAPCYC = trace_arrays.gap_cycles
    CHAN = route.chan
    RI = route.rank_index
    FB = route.bank_index
    SCHAN = route.sib_chan
    SRI = route.sib_rank_index
    SFB = route.sib_bank_index
    UPGRADED = upgraded_a.tolist()

    # -- channel/rank scheduling state (Channel.service, flattened) --------
    timings = timings_for_width(config.io_width)
    trc = timings.trc_ns
    tras = timings.tras_ns
    burst = timings.burst_ns
    data_offset = timings.trcd_ns + timings.cas_ns
    hysteresis = POWERDOWN_HYSTERESIS_NS
    n_channels = config.channels
    n_ranks = config.ranks_per_channel
    banks_per_device = config.banks_per_device
    bus_busy = [0.0] * n_channels
    last_issue = [0.0] * n_channels
    n_rank_states = n_channels * n_ranks
    bank_busy = [0.0] * (n_rank_states * banks_per_device)  # flat [ri, bank]
    last_activity = [0.0] * n_rank_states
    powerdown_ns = [0.0] * n_rank_states
    read_bursts = [0] * n_rank_states
    write_bursts = [0] * n_rank_states
    active_ns = [0.0] * n_rank_states

    wb_routes: Dict[int, Tuple[int, int, int]] = {}

    def write_back(now: float, addr: int) -> None:
        # Operation-for-operation Channel.service (channel.py) for the
        # (rarer) writeback traffic; demand fills run the same sequence
        # inlined in the main loop below. Victim addresses are data-
        # dependent, so their coordinates are decoded here (memoized —
        # hot victim lines recur) rather than precomputed positionally.
        route = wb_routes.get(addr)
        if route is None:
            chan, rest = addr % n_channels, addr // n_channels
            if policy is MappingPolicy.HIPERF:
                bank, rest = rest % banks_per_device, rest // banks_per_device
                rank = rest % n_ranks
            elif policy is MappingPolicy.BASE:
                rest //= lines_per_row
                bank, rest = rest % banks_per_device, rest // banks_per_device
                rank = rest % n_ranks
            else:  # CLOSE_PAGE
                rank, rest = rest % n_ranks, rest // n_ranks
                bank = rest % banks_per_device
            ri = chan * n_ranks + rank
            fb = ri * banks_per_device + bank
            route = (chan, ri, fb)
            wb_routes[addr] = route
        else:
            chan, ri, fb = route
        start = now
        other = bank_busy[fb]
        if other > start:
            start = other
        other = last_issue[chan]
        if other > start:
            start = other
        bus_at = start + data_offset
        other = bus_busy[chan]
        if other > bus_at:
            bus_at = other
        start = bus_at - data_offset
        idle = start - last_activity[ri]
        if idle > hysteresis:
            powerdown_ns[ri] += idle - hysteresis
        busy_until = start + trc
        bank_busy[fb] = busy_until
        last_activity[ri] = busy_until
        bus_busy[chan] = bus_at + burst
        last_issue[chan] = start
        write_bursts[ri] += 1
        active_ns[ri] += tras

    lines_per_row = (
        config.page_bytes * config.pages_per_row // config.cacheline_bytes
    )

    # -- LLC state (LastLevelCache + PairedLruPolicy, flattened) -----------
    # A resident line is one integer ``way = recency * SHIFT + address``
    # living in its set's way list, plus a tag dict (address -> that
    # integer), a dirty set and an upgraded set. Three departures from
    # the scalar cache, none observable:
    #
    # * Where the scalar cache recomputes PairedLru's effective recency
    #   — max(own, sibling) — with a sibling tag probe per way at every
    #   eviction, the encoded recencies mirror it incrementally:
    #   touching either sub-line of a pair stamps the new tick on
    #   *both* entries (sub-lines of a pair fill together and evict
    #   together, so the mirror can never go stale).
    # * With recency in the integer's high bits, victim selection is a
    #   bare ``min()`` over a small list of ints — no key function, no
    #   per-way probes. It picks the same victim: ticks are unique per
    #   touch and pair-mates never share a set, so the minimum tick is
    #   unique within a set and the address low bits never tip a
    #   comparison.
    # * A page's mode never changes within a replay, so the upgraded
    #   set only ever grows — stale entries for evicted lines are
    #   harmless because only resident addresses are ever queried.
    #
    # Everything is ints in dicts/sets/lists: the loop allocates no
    # GC-tracked objects, so collector pauses never scale with the
    # trace length.
    n_sets = processor.l2_sets
    n_ways = processor.l2_assoc
    set_addrs: List[List[int]] = [[] for _ in range(n_sets)]
    set_recs: List[List[int]] = [[] for _ in range(n_sets)]
    resident: set = set()
    resident_add = resident.add
    resident_discard = resident.discard
    dirty: set = set()
    dirty_add = dirty.add
    dirty_discard = dirty.discard
    upgraded_lines: set = set()
    upgraded_add = upgraded_lines.add
    clock = 0
    hits = 0
    misses = 0

    # -- the sequential core ------------------------------------------------
    # The interleave rule is the legacy loop's: run the not-done core
    # with the lowest cycle count, lowest index first on ties. Three
    # shortcuts keep the bookkeeping off the per-access path without
    # changing a single decision:
    #
    # * a core is done exactly when it consumes the last access the
    #   materialization drew for it (the stopping rules are the same
    #   cumulative-gap threshold), so the done test is one index
    #   comparison and retired-instruction totals come from array sums;
    # * only the running core's cycle count ever changes, so the arg-min
    #   is cached: as long as the running core stays strictly below the
    #   best of the others (ties go to the lower index), no rescan
    #   happens;
    # * while one core keeps the lead, its position and cycle count live
    #   in locals (the inner loop), written back only on a lead change.
    n_cores = batch.cores
    profiles = batch.profiles
    mlp = [profile.mlp for profile in profiles]
    ns_per_cycle = 1.0 / processor.clock_ghz
    position = batch.core_offsets[:-1].tolist()
    END = batch.core_offsets[1:].tolist()
    cycles = [0.0] * n_cores
    active = list(range(n_cores))
    total_latency = 0.0
    infinity = float("inf")

    core = 0  # all cores start at 0.0 cycles: first-minimal is core 0
    best_other = infinity
    best_other_index = -1
    for i in active:
        if i != core and cycles[i] < best_other:
            best_other = cycles[i]
            best_other_index = i

    while True:
        p = position[core]
        end = END[core]
        cyc = cycles[core]
        core_mlp = mlp[core]
        while True:
            addr = ADDR[p]
            cyc += GAPCYC[p]

            if addr in resident:  # LLC hit
                clock += 1
                s_i = addr % n_sets
                set_recs[s_i][set_addrs[s_i].index(addr)] = clock
                if addr in upgraded_lines:  # mirror the pair's recency
                    sibling_addr = addr ^ 1
                    s_i = sibling_addr % n_sets
                    set_recs[s_i][set_addrs[s_i].index(sibling_addr)] = clock
                if WRITE[p]:
                    dirty_add(addr)
                hits += 1
                p += 1
                if p == end:
                    break
                if cyc < best_other:
                    continue
                if cyc == best_other and core < best_other_index:
                    continue
                break

            # LLC miss: insert the line (evicting as needed), then the
            # upgraded sibling, then issue the fill and any writebacks
            # — the exact event order of the scalar simulator.
            misses += 1
            now = cyc * ns_per_cycle
            upgraded = UPGRADED[p]
            if upgraded and paired_single_channel:
                raise RuntimeError(
                    "sub-lines of an upgraded line mapped to one channel; "
                    "address mapping must interleave channels at line level"
                )
            is_write = WRITE[p]
            writebacks = None
            s_i = addr % n_sets
            addrs_here = set_addrs[s_i]
            recs_here = set_recs[s_i]
            while len(addrs_here) >= n_ways:
                v_i = recs_here.index(min(recs_here))
                vaddr = addrs_here.pop(v_i)
                recs_here.pop(v_i)
                resident_discard(vaddr)
                if vaddr in upgraded_lines:
                    sibling_addr = vaddr ^ 1
                    if sibling_addr in resident:
                        was_dirty = vaddr in dirty or sibling_addr in dirty
                        ss_i = sibling_addr % n_sets
                        sj = set_addrs[ss_i].index(sibling_addr)
                        set_addrs[ss_i].pop(sj)
                        set_recs[ss_i].pop(sj)
                        resident_discard(sibling_addr)
                    else:
                        was_dirty = vaddr in dirty
                    if was_dirty:
                        if writebacks is None:
                            writebacks = []
                        writebacks.append((vaddr & ~1, True))
                elif vaddr in dirty:
                    if writebacks is None:
                        writebacks = []
                    writebacks.append((vaddr, False))
            clock += 1
            addrs_here.append(addr)
            recs_here.append(clock)
            resident_add(addr)
            if is_write:
                dirty_add(addr)
            else:
                dirty_discard(addr)
            if upgraded:
                upgraded_add(addr)
                sibling_addr = addr ^ 1
                if sibling_addr in resident:
                    # Sibling already resident: mark it paired; its
                    # effective recency becomes the pair max (= the
                    # tick the line above just received).
                    upgraded_add(sibling_addr)
                    ss_i = sibling_addr % n_sets
                    set_recs[ss_i][
                        set_addrs[ss_i].index(sibling_addr)
                    ] = clock
                else:
                    ss_i = sibling_addr % n_sets
                    sib_addrs = set_addrs[ss_i]
                    sib_recs = set_recs[ss_i]
                    while len(sib_addrs) >= n_ways:
                        v_i = sib_recs.index(min(sib_recs))
                        vaddr = sib_addrs.pop(v_i)
                        sib_recs.pop(v_i)
                        resident_discard(vaddr)
                        if vaddr in upgraded_lines:
                            pair_addr = vaddr ^ 1
                            if pair_addr in resident:
                                was_dirty = (
                                    vaddr in dirty or pair_addr in dirty
                                )
                                ps_i = pair_addr % n_sets
                                pj = set_addrs[ps_i].index(pair_addr)
                                set_addrs[ps_i].pop(pj)
                                set_recs[ps_i].pop(pj)
                                resident_discard(pair_addr)
                            else:
                                was_dirty = vaddr in dirty
                            if was_dirty:
                                if writebacks is None:
                                    writebacks = []
                                writebacks.append((vaddr & ~1, True))
                        elif vaddr in dirty:
                            if writebacks is None:
                                writebacks = []
                            writebacks.append((vaddr, False))
                    clock += 1
                    sib_addrs.append(sibling_addr)
                    sib_recs.append(clock)
                    resident_add(sibling_addr)
                    dirty_discard(sibling_addr)
                    upgraded_add(sibling_addr)
                    # Pair fills together: re-stamp the line inserted
                    # above with the sibling's (newer) tick.
                    recs_here[addrs_here.index(addr)] = clock

            # Demand fill: Channel.service inlined (see write_back).
            chan = CHAN[p]
            ri = RI[p]
            fb = FB[p]
            start = now
            other = bank_busy[fb]
            if other > start:
                start = other
            other = last_issue[chan]
            if other > start:
                start = other
            bus_at = start + data_offset
            other = bus_busy[chan]
            if other > bus_at:
                bus_at = other
            start = bus_at - data_offset
            completion = bus_at + burst
            idle = start - last_activity[ri]
            if idle > hysteresis:
                powerdown_ns[ri] += idle - hysteresis
            busy_until = start + trc
            bank_busy[fb] = busy_until
            last_activity[ri] = busy_until
            bus_busy[chan] = completion
            last_issue[chan] = start
            read_bursts[ri] += 1
            active_ns[ri] += tras

            if upgraded:  # paired fill: the sibling's channel, in lockstep
                chan = SCHAN[p]
                ri = SRI[p]
                fb = SFB[p]
                start = now
                other = bank_busy[fb]
                if other > start:
                    start = other
                other = last_issue[chan]
                if other > start:
                    start = other
                bus_at = start + data_offset
                other = bus_busy[chan]
                if other > bus_at:
                    bus_at = other
                start = bus_at - data_offset
                sibling_completion = bus_at + burst
                idle = start - last_activity[ri]
                if idle > hysteresis:
                    powerdown_ns[ri] += idle - hysteresis
                busy_until = start + trc
                bank_busy[fb] = busy_until
                last_activity[ri] = busy_until
                bus_busy[chan] = sibling_completion
                last_issue[chan] = start
                read_bursts[ri] += 1
                active_ns[ri] += tras
                if sibling_completion > completion:
                    completion = sibling_completion

                if lotecc_checksum:
                    # 18-device LOT-ECC verifies every read against its
                    # checksum: one extra read burst per sub-line, on
                    # the fill's critical path (the 2r of the Figure
                    # 7.6 arithmetic, issued instead of approximated).
                    for chan, ri, fb in (
                        (CHAN[p], RI[p], FB[p]),
                        (SCHAN[p], SRI[p], SFB[p]),
                    ):
                        start = now
                        other = bank_busy[fb]
                        if other > start:
                            start = other
                        other = last_issue[chan]
                        if other > start:
                            start = other
                        bus_at = start + data_offset
                        other = bus_busy[chan]
                        if other > bus_at:
                            bus_at = other
                        start = bus_at - data_offset
                        checksum_completion = bus_at + burst
                        idle = start - last_activity[ri]
                        if idle > hysteresis:
                            powerdown_ns[ri] += idle - hysteresis
                        busy_until = start + trc
                        bank_busy[fb] = busy_until
                        last_activity[ri] = busy_until
                        bus_busy[chan] = checksum_completion
                        last_issue[chan] = start
                        read_bursts[ri] += 1
                        active_ns[ri] += tras
                        if checksum_completion > completion:
                            completion = checksum_completion

            latency = completion - now
            if latency < 0.0:
                latency = 0.0
            total_latency += latency
            cyc += latency / ns_per_cycle / core_mlp
            if writebacks is not None:
                for wb_addr, wb_upgraded in writebacks:
                    write_back(now, wb_addr)
                    if lotecc_checksum:
                        # LOT-ECC pays one checksum write per data
                        # write in *both* modes (the 2w term), co-
                        # located with the data it protects.
                        write_back(now, wb_addr)
                    if wb_upgraded:
                        write_back(now, wb_addr ^ 1)
                        if lotecc_checksum:
                            write_back(now, wb_addr ^ 1)

            p += 1
            if p == end:
                break
            if cyc < best_other:
                continue
            if cyc == best_other and core < best_other_index:
                continue
            break

        # Lead change or core retirement: write run-locals back, then
        # re-establish (first-minimal core, first-minimal other).
        position[core] = p
        cycles[core] = cyc
        if p == end:
            active.remove(core)
            if not active:
                break
            best_cycles = infinity
            for i in active:
                if cycles[i] < best_cycles:
                    best_cycles = cycles[i]
                    core = i
        else:
            core = best_other_index
        best_other = infinity
        best_other_index = -1
        for i in active:
            if i != core and cycles[i] < best_other:
                best_other = cycles[i]
                best_other_index = i

    return _finalize_result(
        batch=batch,
        config=config,
        cycles=cycles,
        last_activity=last_activity,
        powerdown_ns=powerdown_ns,
        read_bursts=read_bursts,
        write_bursts=write_bursts,
        active_ns=active_ns,
        total_latency=total_latency,
        hits=hits,
        misses=misses,
        ns_per_cycle=ns_per_cycle,
    )


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

    ``MemorySystem.power_report`` over reconstructed counters — shared
    by the Python loop and the compiled kernel's driver, so the two
    tiers differ only in who ran the sequential core.
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


#: The replay engine tiers, strongest first. ``auto`` resolves to the
#: compiled kernel when one can be built, else the vectorized Python
#: loop; ``compiled`` *requires* the kernel (refuses to run without it,
#: never silently falls back); ``python`` pins the pure-Python engine —
#: the exact oracle of the compiled tier. ``TraceSimulator.run`` stays
#: below both as the scalar oracle of the whole pipeline.
ENGINE_TIERS = ("auto", "compiled", "python")


def resolve_engine(engine: str = "auto") -> str:
    """Map a requested tier to the one that will actually run.

    Returns ``"compiled"`` or ``"python"``. Resolution is explicit so
    callers (planners, the CLI) can record the *resolved* tier in job
    configurations — runner cache keys then distinguish compiled from
    fallback runs, closing the silent-fallback hazard.
    """
    if engine not in ENGINE_TIERS:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINE_TIERS}"
        )
    if engine == "python":
        return "python"
    from repro.perf._kernel import kernel_available, kernel_provenance

    if kernel_available():
        return "compiled"
    if engine == "compiled":
        raise RuntimeError(
            "engine 'compiled' requested but the replay kernel is "
            f"unavailable: {kernel_provenance()}"
        )
    return "python"


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


def replay_resolved(
    batch: TraceBatch,
    point: SweepPoint,
    processor: ProcessorConfig,
    policy: MappingPolicy,
    resolved: str,
) -> MixResult:
    """Dispatch one replay to an already-resolved engine tier."""
    if resolved == "compiled":
        from repro.perf._kernel import replay_compiled

        return replay_compiled(batch, point, processor, policy)
    return replay(batch, point, processor, policy)


def sweep(
    batch: TraceBatch,
    points: Sequence[SweepPoint],
    processor: ProcessorConfig = PROCESSOR_CONFIG,
    policy: MappingPolicy = MappingPolicy.HIPERF,
    engine: str = "auto",
) -> List[MixResult]:
    """Replay many sweep points against one materialized trace.

    The organization-independent flattening is shared across all
    points and the decode across every point with the same
    organization (both memoized), so per-point cost is the sequential
    replay alone.
    """
    resolved = resolve_engine(engine)
    return [
        replay_resolved(batch, point, processor, policy, resolved)
        for point in points
    ]


def clear_engine_memos() -> None:
    """Drop memoized traces and replay arrays (cold-run benchmarking)."""
    from repro.perf._kernel import clear_kernel_memos
    from repro.perf.trace import clear_trace_memo

    _trace_arrays.cache_clear()
    _route_arrays.cache_clear()
    clear_kernel_memos()
    clear_trace_memo()


class BatchedTraceSimulator:
    """Drop-in :class:`~repro.perf.simulator.TraceSimulator` on the
    batched engine.

    Same constructor, same ``run`` contract, bit-identical results;
    traces are materialized through the per-process memo so repeated
    runs of one mix (any fraction, any organization) generate them once.
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
        self.config = config
        self.processor = processor
        self.upgraded_fraction = upgraded_fraction
        if arcc_enabled is None:
            arcc_enabled = arcc_capable(config)
        self.arcc_enabled = arcc_enabled
        self.seed = seed
        self.engine = engine
        self.resolved_engine = resolve_engine(engine)
        self.lotecc_checksum = lotecc_checksum
        if upgraded_fraction and not arcc_enabled:
            raise ValueError(
                "upgraded pages require an ARCC-capable configuration"
            )

    def run(
        self,
        mix: WorkloadMix,
        instructions_per_core: int = 200_000,
    ) -> MixResult:
        """Simulate one mix (identical contract to the legacy oracle)."""
        batch = materialize_mix(mix, self.seed, instructions_per_core)
        return replay_resolved(
            batch,
            SweepPoint(
                config=self.config,
                upgraded_fraction=self.upgraded_fraction,
                arcc_enabled=self.arcc_enabled,
                lotecc_checksum=self.lotecc_checksum,
            ),
            self.processor,
            MappingPolicy.HIPERF,
            self.resolved_engine,
        )


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
    *resolved* engine tier (``"compiled"`` or ``"python"``) rather than
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
    is how a run forces the Python tier.
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
    "replay",
    "replay_resolved",
    "resolve_engine",
    "simulate_point_job",
    "sweep",
    "upgraded_page_flags",
]
