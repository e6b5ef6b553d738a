/* The compiled trace-replay core.
 *
 * A statement-for-statement transcription of the sequential core of
 * repro.perf.engine.replay() — the allocation-free Python loop that
 * walks one SweepPoint over a materialized TraceBatch.  Every floating-
 * point operation runs in the same order on the same IEEE-754 doubles
 * (the build disables FP contraction, so no fused multiply-adds can
 * reassociate anything), every LRU tie-break scans the same way order,
 * and the interleave rule is the same cached arg-min — so the outputs
 * are bit-identical to the Python engine, which stays as this kernel's
 * exact oracle (tests/test_kernel_equivalence.py holds the three-way
 * line against TraceSimulator.run as well).
 *
 * State layout differs from the Python engine in one invisible way: the
 * Python loop keeps global resident/dirty/upgraded sets next to the
 * per-set way lists, while this kernel stores dirty/upgraded as per-way
 * flags.  Equivalent, because the Python sets are only ever queried for
 * resident addresses, insertion always re-establishes both flags, and a
 * page's mode never changes within a replay (see the LLC commentary in
 * engine.py).
 *
 * The kernel also self-audits three data-structure invariants on the
 * way through (reported via stat_out, asserted by the hypothesis suite
 * in tests/test_kernel_properties.py): LLC occupancy never exceeds
 * sets x ways, the paired-LRU recency mirror never goes stale, and
 * every core terminates exactly at its stop index.
 *
 * The rollup (PowerCounters reconstruction, RankPowerModel, MixResult)
 * stays in Python: the kernel returns the same per-core cycles and
 * per-rank counters the Python loop would hold at the end of the
 * access stream, and the driver feeds both engines' numbers through
 * the identical finalization path.
 */

#include <math.h>
#include <stdlib.h>
#include <string.h>

typedef long long i64;
typedef unsigned char u8;

/* Keep in sync with the ctypes.Structure in loader.py: ten 8-byte
 * integers followed by six doubles, so the layout has no padding. */
typedef struct {
    i64 n_accesses;
    i64 n_cores;
    i64 n_sets;
    i64 n_ways;
    i64 n_channels;
    i64 n_ranks; /* per channel */
    i64 banks_per_device;
    i64 lines_per_row;
    i64 policy; /* 0 = BASE, 1 = HIPERF, 2 = CLOSE_PAGE */
    i64 paired_single_channel;
    double trc_ns;
    double tras_ns;
    double burst_ns;
    double data_offset_ns;
    double hysteresis_ns;
    double ns_per_cycle;
} ReplayParams;

/* Return codes. */
#define REPLAY_OK 0
#define REPLAY_SINGLE_CHANNEL_PAIR 1
#define REPLAY_NOMEM 2

/* stat_out layout (before the per-core final positions). */
#define STAT_HITS 0
#define STAT_MISSES 1
#define STAT_MAX_OCCUPANCY 2
#define STAT_MIRROR_VIOLATIONS 3
#define STAT_POSITIONS 4

/* -- LLC: per-set way arrays ------------------------------------------- */

typedef struct {
    i64 *slot_addr;
    i64 *slot_rec;
    u8 *slot_dirty;
    u8 *slot_upg;
    int *set_len;
    i64 n_sets;
    i64 n_ways;
    i64 occupancy;
    i64 max_occupancy;
} Llc;

static int set_find(const Llc *L, i64 s, i64 addr)
{
    const i64 *addrs = L->slot_addr + s * L->n_ways;
    int len = L->set_len[s];
    int j;
    for (j = 0; j < len; j++) {
        if (addrs[j] == addr) {
            return j;
        }
    }
    return -1;
}

static void set_pop(Llc *L, i64 s, int idx)
{
    i64 base = s * L->n_ways;
    int len = L->set_len[s];
    int tail = len - idx - 1;
    if (tail > 0) {
        memmove(L->slot_addr + base + idx, L->slot_addr + base + idx + 1,
                (size_t)tail * sizeof(i64));
        memmove(L->slot_rec + base + idx, L->slot_rec + base + idx + 1,
                (size_t)tail * sizeof(i64));
        memmove(L->slot_dirty + base + idx, L->slot_dirty + base + idx + 1,
                (size_t)tail * sizeof(u8));
        memmove(L->slot_upg + base + idx, L->slot_upg + base + idx + 1,
                (size_t)tail * sizeof(u8));
    }
    L->set_len[s] = len - 1;
    L->occupancy -= 1;
}

static void set_append(Llc *L, i64 s, i64 addr, i64 rec, u8 dirty, u8 upg)
{
    i64 base = s * L->n_ways;
    int len = L->set_len[s];
    L->slot_addr[base + len] = addr;
    L->slot_rec[base + len] = rec;
    L->slot_dirty[base + len] = dirty;
    L->slot_upg[base + len] = upg;
    L->set_len[s] = len + 1;
    L->occupancy += 1;
    if (L->occupancy > L->max_occupancy) {
        L->max_occupancy = L->occupancy;
    }
}

typedef struct {
    i64 addr;
    int upgraded;
} WriteBack;

/* Evict first-minimal-recency ways from set s until a way is free —
 * the Python engine's `while len(addrs_here) >= n_ways` loop, paired
 * eviction included.  Appends the resulting writebacks in order. */
static void evict_until_free(Llc *L, i64 s, WriteBack *wbs, int *n_wb)
{
    while (L->set_len[s] >= L->n_ways) {
        i64 base = s * L->n_ways;
        int len = L->set_len[s];
        int v_i = 0;
        i64 best = L->slot_rec[base];
        i64 vaddr;
        u8 vdirty, vupg;
        int j;
        for (j = 1; j < len; j++) {
            if (L->slot_rec[base + j] < best) {
                best = L->slot_rec[base + j];
                v_i = j;
            }
        }
        vaddr = L->slot_addr[base + v_i];
        vdirty = L->slot_dirty[base + v_i];
        vupg = L->slot_upg[base + v_i];
        set_pop(L, s, v_i);
        if (vupg) {
            i64 sib = vaddr ^ 1;
            i64 ss = sib % L->n_sets;
            int sj = set_find(L, ss, sib);
            int was_dirty;
            if (sj >= 0) {
                was_dirty = vdirty || L->slot_dirty[ss * L->n_ways + sj];
                set_pop(L, ss, sj);
            } else {
                was_dirty = vdirty;
            }
            if (was_dirty) {
                wbs[*n_wb].addr = vaddr & ~(i64)1;
                wbs[*n_wb].upgraded = 1;
                (*n_wb)++;
            }
        } else if (vdirty) {
            wbs[*n_wb].addr = vaddr;
            wbs[*n_wb].upgraded = 0;
            (*n_wb)++;
        }
    }
}

/* -- channel/rank scheduling state (Channel.service, flattened) -------- */

typedef struct {
    double *bus_busy;      /* [channel], kernel-internal */
    double *last_issue;    /* [channel], kernel-internal */
    double *bank_busy;     /* flat [rank_index, bank], kernel-internal */
    double *last_activity; /* [rank_index], output */
    double *powerdown_ns;  /* [rank_index], output */
    double *active_ns;     /* [rank_index], output */
    i64 *read_bursts;      /* [rank_index], output */
    i64 *write_bursts;     /* [rank_index], output */
} Channels;

/* Channel.service flattened — the identical float sequence to both the
 * demand-fill inline and the write_back() closure of the Python engine
 * (which themselves mirror repro.dram.channel.Channel.service). */
static double channel_service(Channels *C, const ReplayParams *P,
                              double now, int chan, int ri, int fb,
                              int is_write)
{
    double start = now;
    double other = C->bank_busy[fb];
    double bus_at, completion, idle, busy_until;
    if (other > start) {
        start = other;
    }
    other = C->last_issue[chan];
    if (other > start) {
        start = other;
    }
    bus_at = start + P->data_offset_ns;
    other = C->bus_busy[chan];
    if (other > bus_at) {
        bus_at = other;
    }
    start = bus_at - P->data_offset_ns;
    completion = bus_at + P->burst_ns;
    idle = start - C->last_activity[ri];
    if (idle > P->hysteresis_ns) {
        C->powerdown_ns[ri] += idle - P->hysteresis_ns;
    }
    busy_until = start + P->trc_ns;
    C->bank_busy[fb] = busy_until;
    C->last_activity[ri] = busy_until;
    C->bus_busy[chan] = completion;
    C->last_issue[chan] = start;
    if (is_write) {
        C->write_bursts[ri] += 1;
    } else {
        C->read_bursts[ri] += 1;
    }
    C->active_ns[ri] += P->tras_ns;
    return completion;
}

/* Victim-address decode for writeback routing — the same mixed-radix
 * integer arithmetic as the Python write_back() closure.  Victim
 * addresses are data-dependent, so (like the Python engine) they are
 * decoded on demand rather than positionally precomputed; the Python
 * side memoizes the decode, this side just redoes a handful of integer
 * divisions. */
static void decode_route(i64 a, const ReplayParams *P,
                         int *chan, int *ri, int *fb)
{
    i64 ch = a % P->n_channels;
    i64 rest = a / P->n_channels;
    i64 bank, rank, r;
    if (P->policy == 1) { /* HIPERF */
        bank = rest % P->banks_per_device;
        rest /= P->banks_per_device;
        rank = rest % P->n_ranks;
    } else if (P->policy == 0) { /* BASE */
        rest /= P->lines_per_row;
        bank = rest % P->banks_per_device;
        rest /= P->banks_per_device;
        rank = rest % P->n_ranks;
    } else { /* CLOSE_PAGE */
        rank = rest % P->n_ranks;
        rest /= P->n_ranks;
        bank = rest % P->banks_per_device;
    }
    r = ch * P->n_ranks + rank;
    *chan = (int)ch;
    *ri = (int)r;
    *fb = (int)(r * P->banks_per_device + bank);
}

/* -- the sequential core ------------------------------------------------ */

int replay_kernel(
    const ReplayParams *P,
    const i64 *addr_a, const u8 *write_a, const double *gap_cyc,
    const int *chan_a, const int *ri_a, const int *fb_a,
    const int *schan_a, const int *sri_a, const int *sfb_a,
    const u8 *upgraded_a,
    const i64 *core_offsets, const double *mlp,
    double *cycles,
    i64 *read_bursts, i64 *write_bursts,
    double *active_ns, double *powerdown_ns, double *last_activity,
    double *float_out, i64 *stat_out)
{
    const i64 n_cores = P->n_cores;
    const i64 *END = core_offsets + 1;
    const double ns_per_cycle = P->ns_per_cycle;
    const i64 n_rank_states = P->n_channels * P->n_ranks;
    i64 clock = 0, hits = 0, misses = 0, mirror_violations = 0;
    double total_latency = 0.0;
    int status = REPLAY_OK;
    i64 k;

    Llc L;
    Channels C;
    i64 *position = NULL;
    int *active = NULL;
    int active_count;
    int core;
    double best_other;
    int best_other_index;

    memset(&L, 0, sizeof(L));
    memset(&C, 0, sizeof(C));
    L.n_sets = P->n_sets;
    L.n_ways = P->n_ways;
    L.slot_addr = malloc((size_t)(L.n_sets * L.n_ways) * sizeof(i64));
    L.slot_rec = malloc((size_t)(L.n_sets * L.n_ways) * sizeof(i64));
    L.slot_dirty = malloc((size_t)(L.n_sets * L.n_ways) * sizeof(u8));
    L.slot_upg = malloc((size_t)(L.n_sets * L.n_ways) * sizeof(u8));
    L.set_len = calloc((size_t)L.n_sets, sizeof(int));
    C.bus_busy = calloc((size_t)P->n_channels, sizeof(double));
    C.last_issue = calloc((size_t)P->n_channels, sizeof(double));
    C.bank_busy = calloc(
        (size_t)(n_rank_states * P->banks_per_device), sizeof(double));
    C.last_activity = last_activity;
    C.powerdown_ns = powerdown_ns;
    C.active_ns = active_ns;
    C.read_bursts = read_bursts;
    C.write_bursts = write_bursts;
    position = malloc((size_t)n_cores * sizeof(i64));
    active = malloc((size_t)n_cores * sizeof(int));
    if (!L.slot_addr || !L.slot_rec || !L.slot_dirty || !L.slot_upg ||
        !L.set_len || !C.bus_busy || !C.last_issue || !C.bank_busy ||
        !position || !active) {
        status = REPLAY_NOMEM;
        goto done;
    }

    for (k = 0; k < n_rank_states; k++) {
        read_bursts[k] = 0;
        write_bursts[k] = 0;
        active_ns[k] = 0.0;
        powerdown_ns[k] = 0.0;
        last_activity[k] = 0.0;
    }
    for (k = 0; k < n_cores; k++) {
        position[k] = core_offsets[k];
        cycles[k] = 0.0;
        active[k] = (int)k;
    }
    active_count = (int)n_cores;

    /* All cores start at 0.0 cycles: first-minimal is core 0. */
    core = 0;
    best_other = INFINITY;
    best_other_index = -1;
    for (k = 0; k < active_count; k++) {
        int i = active[k];
        if (i != core && cycles[i] < best_other) {
            best_other = cycles[i];
            best_other_index = i;
        }
    }

    for (;;) {
        i64 p = position[core];
        i64 end = END[core];
        double cyc = cycles[core];
        double core_mlp = mlp[core];
        for (;;) {
            i64 a = addr_a[p];
            i64 s = a % P->n_sets;
            int idx;
            cyc += gap_cyc[p];

            idx = set_find(&L, s, a);
            if (idx >= 0) { /* LLC hit */
                clock += 1;
                if (L.slot_upg[s * L.n_ways + idx]) {
                    /* Mirror the pair's recency — and audit it: the
                     * sibling must be resident with an equal tick
                     * before this touch re-stamps both. */
                    i64 sib = a ^ 1;
                    i64 ss = sib % P->n_sets;
                    int sj = set_find(&L, ss, sib);
                    if (sj < 0 ||
                        L.slot_rec[ss * L.n_ways + sj] !=
                            L.slot_rec[s * L.n_ways + idx]) {
                        mirror_violations += 1;
                    }
                    L.slot_rec[s * L.n_ways + idx] = clock;
                    if (sj >= 0) {
                        L.slot_rec[ss * L.n_ways + sj] = clock;
                    }
                } else {
                    L.slot_rec[s * L.n_ways + idx] = clock;
                }
                if (write_a[p]) {
                    L.slot_dirty[s * L.n_ways + idx] = 1;
                }
                hits += 1;
                p += 1;
                if (p == end) {
                    break;
                }
                if (cyc < best_other) {
                    continue;
                }
                if (cyc == best_other && core < best_other_index) {
                    continue;
                }
                break;
            }

            /* LLC miss: insert the line (evicting as needed), then the
             * upgraded sibling, then issue the fill and any writebacks
             * — the exact event order of the Python engine. */
            misses += 1;
            {
                double now = cyc * ns_per_cycle;
                int is_upg = upgraded_a[p];
                int is_write = write_a[p];
                WriteBack wbs[8];
                int n_wb = 0;
                double completion, latency;
                int w;

                if (is_upg && P->paired_single_channel) {
                    status = REPLAY_SINGLE_CHANNEL_PAIR;
                    position[core] = p;
                    cycles[core] = cyc;
                    goto done;
                }
                evict_until_free(&L, s, wbs, &n_wb);
                clock += 1;
                set_append(&L, s, a, clock, (u8)(is_write ? 1 : 0),
                           (u8)(is_upg ? 1 : 0));
                if (is_upg) {
                    i64 sib = a ^ 1;
                    i64 ss = sib % P->n_sets;
                    int sj = set_find(&L, ss, sib);
                    if (sj >= 0) {
                        /* Sibling already resident: mark it paired; its
                         * effective recency becomes the pair max (= the
                         * tick the line above just received). */
                        L.slot_upg[ss * L.n_ways + sj] = 1;
                        L.slot_rec[ss * L.n_ways + sj] = clock;
                    } else {
                        int ai;
                        evict_until_free(&L, ss, wbs, &n_wb);
                        clock += 1;
                        set_append(&L, ss, sib, clock, 0, 1);
                        /* Pair fills together: re-stamp the line
                         * inserted above with the sibling's (newer)
                         * tick. */
                        ai = set_find(&L, s, a);
                        if (ai >= 0) {
                            L.slot_rec[s * L.n_ways + ai] = clock;
                        }
                    }
                }

                /* Demand fill (and, for a pair, the sibling's channel
                 * in lockstep). */
                completion = channel_service(
                    &C, P, now, chan_a[p], ri_a[p], fb_a[p], 0);
                if (is_upg) {
                    double sc = channel_service(
                        &C, P, now, schan_a[p], sri_a[p], sfb_a[p], 0);
                    if (sc > completion) {
                        completion = sc;
                    }
                }
                latency = completion - now;
                if (latency < 0.0) {
                    latency = 0.0;
                }
                total_latency += latency;
                cyc += latency / ns_per_cycle / core_mlp;
                for (w = 0; w < n_wb; w++) {
                    int wc, wri, wfb;
                    decode_route(wbs[w].addr, P, &wc, &wri, &wfb);
                    channel_service(&C, P, now, wc, wri, wfb, 1);
                    if (wbs[w].upgraded) {
                        decode_route(wbs[w].addr ^ 1, P, &wc, &wri, &wfb);
                        channel_service(&C, P, now, wc, wri, wfb, 1);
                    }
                }
            }

            p += 1;
            if (p == end) {
                break;
            }
            if (cyc < best_other) {
                continue;
            }
            if (cyc == best_other && core < best_other_index) {
                continue;
            }
            break;
        }

        /* Lead change or core retirement: write run-locals back, then
         * re-establish (first-minimal core, first-minimal other). */
        position[core] = p;
        cycles[core] = cyc;
        if (p == end) {
            int j = 0;
            while (active[j] != core) {
                j++;
            }
            memmove(active + j, active + j + 1,
                    (size_t)(active_count - j - 1) * sizeof(int));
            active_count -= 1;
            if (active_count == 0) {
                break;
            }
            {
                double best_cycles = INFINITY;
                int kk;
                for (kk = 0; kk < active_count; kk++) {
                    int i = active[kk];
                    if (cycles[i] < best_cycles) {
                        best_cycles = cycles[i];
                        core = i;
                    }
                }
            }
        } else {
            core = best_other_index;
        }
        best_other = INFINITY;
        best_other_index = -1;
        for (k = 0; k < active_count; k++) {
            int i = active[k];
            if (i != core && cycles[i] < best_other) {
                best_other = cycles[i];
                best_other_index = i;
            }
        }
    }

done:
    if (status != REPLAY_NOMEM) {
        float_out[0] = total_latency;
        stat_out[STAT_HITS] = hits;
        stat_out[STAT_MISSES] = misses;
        stat_out[STAT_MAX_OCCUPANCY] = L.max_occupancy;
        stat_out[STAT_MIRROR_VIOLATIONS] = mirror_violations;
        for (k = 0; k < n_cores; k++) {
            stat_out[STAT_POSITIONS + k] = position ? position[k] : 0;
        }
    }
    free(L.slot_addr);
    free(L.slot_rec);
    free(L.slot_dirty);
    free(L.slot_upg);
    free(L.set_len);
    free(C.bus_busy);
    free(C.last_issue);
    free(C.bank_busy);
    free(position);
    free(active);
    return status;
}

/* -- Trace materialization ---------------------------------------------- */

#ifdef HAVE_NPYRANDOM
/* NumPy's stable bit-generator interface (numpy/random/bitgen.h): the
 * struct a Generator's ``bit_generator.ctypes.bit_generator`` void
 * pointer addresses.  Passing it straight to NumPy's own compiled
 * random_standard_exponential (linked from libnpyrandom.a) draws the
 * exact ziggurat exponentials Generator.standard_exponential would —
 * same tables, same stream — so no distribution code is transcribed. */
typedef unsigned long long u64;
typedef unsigned int u32;

typedef struct bitgen {
    void *state;
    u64 (*next_uint64)(void *st);
    u32 (*next_uint32)(void *st);
    double (*next_double)(void *st);
    u64 (*next_raw)(void *st);
} bitgen_t;

extern double random_standard_exponential(bitgen_t *bitgen_state);

/* ``next_uint64 >> 11`` scaled by 2**-53: NumPy's canonical
 * uint64-to-double conversion (``random_standard_uniform``). */
#define INV_2_53 (1.0 / 9007199254740992.0)

/* One core's access stream: CoreTrace.__next__ (workloads/trace.py),
 * draw for draw — a uniform for the locality test,
 * Lemire bounded rejection on 32-bit half-words for random lines, the
 * ziggurat exponential for the instruction gap, a uniform for the
 * write flag.  Returns the access count (<= instructions_per_core,
 * since every gap is >= 1 — the caller sizes buffers to exactly that
 * bound), or -1 if the buffers would overflow (cannot happen with
 * correctly sized buffers; the stream is consumed, so no retry).
 * perf/trace.py uses it only after a per-process probe finds it equal
 * to CoreTrace, array for array. */
i64 materialize_kernel(
    bitgen_t *bitgen,
    double locality,
    double read_fraction,
    i64 base,
    i64 footprint,
    double mean_gap,
    i64 instructions_per_core,
    i64 current,
    i64 capacity,
    i64 *addr_out,
    u8 *write_out,
    i64 *gap_out)
{
    void *st = bitgen->state;
    u64 (*next_u64)(void *) = bitgen->next_uint64;
    u32 (*next_u32)(void *) = bitgen->next_uint32;
    i64 end = base + footprint;
    u64 ufootprint = (u64)footprint;
    i64 total = 0;
    i64 count = 0;

    while (total < instructions_per_core) {
        i64 line;
        i64 gap;
        if (count >= capacity) {
            return -1;
        }
        if ((double)(next_u64(st) >> 11) * INV_2_53 < locality) {
            line = current + 1;
            if (line >= end) {
                line = base;
            }
        } else {
            u64 m = (u64)next_u32(st) * ufootprint;
            u64 leftover = m & 0xFFFFFFFFULL;
            if (leftover < ufootprint) {
                u64 threshold =
                    (4294967296ULL - ufootprint) % ufootprint;
                while (leftover < threshold) {
                    m = (u64)next_u32(st) * ufootprint;
                    leftover = m & 0xFFFFFFFFULL;
                }
            }
            line = base + (i64)(m >> 32);
        }
        current = line;
        gap = 1 + (i64)(random_standard_exponential(bitgen) * mean_gap);
        addr_out[count] = line;
        write_out[count] =
            (u8)((double)(next_u64(st) >> 11) * INV_2_53 >= read_fraction);
        gap_out[count] = gap;
        total += gap;
        count++;
    }
    return count;
}
#endif /* HAVE_NPYRANDOM */
