/* The compiled trace-replay core.
 *
 * Replays one SweepPoint over a materialized TraceBatch: the quad-core
 * interval model of repro.perf.simulator.TraceSimulator.run (LLC with
 * paired LRU, MemoryController, Channel.service), flattened into plain
 * arrays.  Every floating-point operation runs in the same order on the
 * same IEEE-754 doubles (the build disables FP contraction, so no fused
 * multiply-adds can reassociate anything), every LRU tie-break picks
 * the same victim, and the interleave rule is the scalar loop's (run
 * the not-done core with the fewest cycles, lowest index on ties) — so
 * the outputs are bit-identical to TraceSimulator.run, which stays as
 * this kernel's exact oracle (tests/test_kernel_equivalence.py).
 *
 * That includes LOT-ECC checksum accounting (ReplayParams.lotecc_checksum,
 * SweepPoint.lotecc_checksum / TraceSimulator(lotecc_checksum=True) on
 * the Python side): each upgraded fill issues one extra read per
 * sub-line after the sibling fill, and every writeback is serviced
 * twice — the same channel_service calls, in the same order, as the
 * scalar MemoryController.
 *
 * The kernel reads only the organization-independent trace (addresses,
 * write flags, gap cycles, core offsets, MLP) plus two small per-point
 * inputs, so nothing per-access is precomputed per organization or per
 * upgraded fraction:
 *
 * - a route table of M = channels x banks x ranks entries.  HIPERF's
 *   (channel, rank, bank) depends only on addr mod M, so the driver
 *   decodes 0..M-1 once per point (addressing.decode_lines) and the kernel
 *   reads entry a % M for the demand fill, (a ^ 1) % M for the sibling
 *   and the victim's entry for every writeback;
 * - the page-upgrade threshold.  An access is upgraded iff its page's
 *   golden-ratio hash, (page * mult) mod 2**32, lies below
 *   fraction * 2**32 — page_is_upgraded's test, evaluated inline on
 *   each miss (both sides are exact doubles).
 *
 * State layout departs from the scalar cache in four invisible ways:
 *
 * - A resident line is one way slot (address, recency tick, and a byte
 *   of dirty and upgraded flags) in its set.  Where the scalar PairedLruPolicy
 *   recomputes a paired line's effective recency — max(own, sibling) —
 *   at every eviction, this kernel mirrors it incrementally: touching
 *   either sub-line of a pair stamps the new tick on *both* slots
 *   (sub-lines of a pair fill together and evict together, so the
 *   mirror never goes stale).
 * - Each way also carries a one-byte fingerprint of its address
 *   (fingerprint() below), packed eight to a 64-bit word, ceil(ways/8)
 *   words per set, written with shifts so the packing does not depend
 *   on byte order.  A probe compares the set's fingerprint words with
 *   the wanted byte eight ways at a time (the SWAR zero-byte test) and
 *   checks the full address only of the ways whose byte matched, in
 *   way order.  A byte that matches a different line is a probe
 *   collision (counted in stat_out); it costs one address compare and
 *   never changes which way is found.
 * - Victim selection is a branch-free scan for the minimal tick.  Ticks
 *   are unique per touch and pair-mates never share a set (the set
 *   count is even and at least 2, which the driver validates, so a ^ 1
 *   lands in set s ^ 1), so the minimum is unique within a set and
 *   picks the scalar cache's victim whatever the slot order.  So a fill
 *   takes its victim's way, and removing a paired victim's sibling
 *   moves its set's last slot, fingerprint byte included, into the
 *   hole instead of shifting.
 * - A page's mode never changes within a replay, so the per-way
 *   upgraded flag is set on insertion and never needs clearing.
 *
 * The interleave keeps one key per core: a waiting core's cycle count,
 * +inf for a retired core and for the core that runs.  When a core
 * starts to run, a branch-free scan of the keys in index order with
 * strict < finds the first-minimal waiting core, which keeps the scalar
 * rule (fewest cycles, lowest index on ties) without a list of active
 * cores: the running core yields to it, or hands over to it on
 * retiring.  Every core has at least one access (TraceBatch.
 * kernel_buffers checks), so a core can run before testing for the end
 * of its stream.
 *
 * The kernel also self-audits three data-structure invariants on the
 * way through (reported via stat_out, asserted by the hypothesis suite
 * in tests/test_kernel_properties.py): LLC occupancy never exceeds
 * sets x ways, the paired-LRU recency mirror never goes stale, and
 * every core terminates exactly at its stop index.
 *
 * The rollup (PowerCounters reconstruction, RankPowerModel, MixResult)
 * stays in Python: the kernel returns the per-core cycles and per-rank
 * counters the scalar model holds at the end of the access stream, and
 * the driver feeds them through MemorySystem.power_report's arithmetic.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef long long i64;
typedef unsigned char u8;

/* Keep in sync with the ctypes.Structure in loader.py: eleven 8-byte
 * integers followed by seven doubles, so the layout has no padding. */
typedef struct {
    i64 n_accesses;
    i64 n_cores;
    i64 n_sets;
    i64 n_ways;
    i64 n_channels;
    i64 n_ranks; /* per channel */
    i64 banks_per_device;
    i64 lotecc_checksum; /* SweepPoint.lotecc_checksum */
    i64 route_mod;       /* M: route-table length */
    i64 lines_per_page;  /* CoreTrace.LINES_PER_PAGE */
    i64 page_hash_mult;  /* simulator.PAGE_HASH_MULTIPLIER */
    double trc_ns;
    double tras_ns;
    double burst_ns;
    double data_offset_ns;
    double hysteresis_ns;
    double ns_per_cycle;
    double upgrade_below; /* fraction * 2**32: 0.0 upgrades nothing */
} ReplayParams;

/* Return codes. */
#define REPLAY_OK 0
#define REPLAY_NOMEM 1

/* stat_out layout (before the per-core final positions). */
#define STAT_HITS 0
#define STAT_MISSES 1
#define STAT_MAX_OCCUPANCY 2
#define STAT_MIRROR_VIOLATIONS 3
#define STAT_PROBE_COLLISIONS 4
#define STAT_POSITIONS 5

/* -- division by a per-replay constant ---------------------------------- */

/* x % d and x / d for x >= 0 (line addresses are non-negative, which
 * TraceBatch.kernel_buffers checks): a mask and a shift when d is a
 * power of two, as in the shipped geometries, and the division
 * otherwise (3-channel organizations, odd LLC geometries). */
typedef struct {
    i64 d;
    i64 mask; /* d - 1 when d is a power of two, else -1 */
    int shift; /* log2(d) when d is a power of two */
} Divisor;

static Divisor divisor(i64 d)
{
    Divisor D;
    D.d = d;
    D.mask = -1;
    D.shift = 0;
    if (d > 0 && (d & (d - 1)) == 0) {
        D.mask = d - 1;
        while (((i64)1 << D.shift) < d) {
            D.shift++;
        }
    }
    return D;
}

static i64 mod_by(const Divisor *D, i64 x)
{
    return D->mask >= 0 ? x & D->mask : x % D->d;
}

static i64 div_by(const Divisor *D, i64 x)
{
    return D->mask >= 0 ? x >> D->shift : x / D->d;
}

/* -- LLC: per-set way arrays ------------------------------------------- */

#define BYTES_01 0x0101010101010101ULL
#define BYTES_80 0x8080808080808080ULL

/* slot_flags bits.  FLAG_DIRTY is 1, so a write flag (0 or 1) ORs in. */
#define FLAG_DIRTY 1
#define FLAG_UPG 2

/* A way's fingerprint: the top byte of the line address times the
 * 64-bit golden ratio, which depends on every address bit, not only on
 * the set-index bits that all lines of a set share. */
static uint64_t fingerprint(i64 addr)
{
    return ((uint64_t)addr * 0x9E3779B97F4A7C15ULL) >> 56;
}

typedef struct {
    i64 *slot_addr;
    i64 *slot_rec;
    u8 *slot_flags;
    uint64_t *slot_fp; /* way j's byte: bits 8*(j%8).. of word j/8 */
    int *set_len;
    i64 n_sets;
    Divisor sets; /* set of line a: mod_by(&sets, a) */
    i64 n_ways;
    i64 n_words; /* fingerprint words per set: ceil(ways / 8) */
    i64 occupancy;
    i64 max_occupancy;
    i64 probe_collisions;
} Llc;

/* Helpers that take the LLC by pointer are forced inline: if one were
 * called instead, the LLC's address would escape and its fields could
 * not stay in registers across the replay loop. */
#define HOT static inline __attribute__((always_inline))

HOT int set_find(Llc *L, i64 s, i64 addr)
{
    const i64 *addrs = L->slot_addr + s * L->n_ways;
    const uint64_t *words = L->slot_fp + s * L->n_words;
    const uint64_t want = fingerprint(addr) * BYTES_01;
    int len = L->set_len[s];
    int base;
    for (base = 0; base < len; base += 8) {
        uint64_t x = *words++ ^ want;
        /* The high bit of every zero byte of x, and maybe of a byte
         * above one (after a borrow): each flagged way is checked. */
        uint64_t hits = (x - BYTES_01) & ~x & BYTES_80;
        while (hits) {
            int j = base + (__builtin_ctzll(hits) >> 3);
            if (j >= len) {
                return -1;
            }
            if (addrs[j] == addr) {
                return j;
            }
            L->probe_collisions += 1;
            hits &= hits - 1;
        }
    }
    return -1;
}

HOT void set_fp(Llc *L, i64 s, int j, uint64_t fp)
{
    uint64_t *word = L->slot_fp + s * L->n_words + (j >> 3);
    int shift = (j & 7) * 8;
    *word = (*word & ~((uint64_t)0xFF << shift)) | (fp << shift);
}

HOT void set_slot(Llc *L, i64 s, int j, i64 addr, i64 rec, u8 flags)
{
    L->slot_addr[s * L->n_ways + j] = addr;
    L->slot_rec[s * L->n_ways + j] = rec;
    L->slot_flags[s * L->n_ways + j] = flags;
    set_fp(L, s, j, fingerprint(addr));
}

/* Remove way idx from set s by moving the set's last slot into the
 * hole: slot order is invisible (see the header). */
HOT void set_pop(Llc *L, i64 s, int idx)
{
    i64 base = s * L->n_ways;
    int last = L->set_len[s] - 1;
    L->slot_addr[base + idx] = L->slot_addr[base + last];
    L->slot_rec[base + idx] = L->slot_rec[base + last];
    L->slot_flags[base + idx] = L->slot_flags[base + last];
    set_fp(L, s, idx,
           (L->slot_fp[s * L->n_words + (last >> 3)] >> ((last & 7) * 8)) &
               0xFF);
    L->set_len[s] = last;
    L->occupancy -= 1;
}

typedef struct {
    i64 addr;
    int upgraded;
} WriteBack;

/* Fill line addr into set s and return its way.  A full set first
 * evicts its minimal-recency way — LastLevelCache._evict_from, paired
 * eviction included — and the line takes that way.  Appends the
 * eviction's writeback, if any.  A paired victim's sibling lives in
 * set s ^ 1 (see the header). */
HOT int set_insert(Llc *L, i64 s, i64 addr, i64 rec, u8 flags,
                   WriteBack *wbs, int *n_wb)
{
    const i64 *recs = L->slot_rec + s * L->n_ways;
    int len = L->set_len[s];
    int v_i = 0;
    i64 best, vaddr;
    u8 vflags;
    int j;
    if (len < L->n_ways) {
        set_slot(L, s, len, addr, rec, flags);
        L->set_len[s] = len + 1;
        L->occupancy += 1;
        if (L->occupancy > L->max_occupancy) {
            L->max_occupancy = L->occupancy;
        }
        return len;
    }
    /* Branch-free arg-min: the compare decides only which values move,
     * never which code runs. */
    best = recs[0];
    for (j = 1; j < len; j++) {
        i64 r = recs[j];
        int lower = r < best;
        best = lower ? r : best;
        v_i = lower ? j : v_i;
    }
    vaddr = L->slot_addr[s * L->n_ways + v_i];
    vflags = L->slot_flags[s * L->n_ways + v_i];
    set_slot(L, s, v_i, addr, rec, flags);
    if (vflags & FLAG_UPG) {
        i64 ss = s ^ 1;
        int sj = set_find(L, ss, vaddr ^ 1);
        if (sj >= 0) {
            vflags |= L->slot_flags[ss * L->n_ways + sj];
            set_pop(L, ss, sj);
        }
        if (vflags & FLAG_DIRTY) {
            wbs[*n_wb].addr = vaddr & ~(i64)1;
            wbs[*n_wb].upgraded = 1;
            (*n_wb)++;
        }
    } else {
        /* Written always, kept only when dirty. */
        wbs[*n_wb].addr = vaddr;
        wbs[*n_wb].upgraded = 0;
        *n_wb += vflags & FLAG_DIRTY;
    }
    return v_i;
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

/* repro.dram.channel.Channel.service flattened — the identical float
 * sequence, for demand fills and writebacks alike. */
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

/* Route table: channel, rank index (chan * ranks + rank) and flat bank
 * index (rank_index * banks + bank) of each residue mod M, so the
 * kernel never multiplies or divides to route an access. */
typedef struct {
    const int *chan;
    const int *ri;
    const int *fb;
    Divisor mod;
} Routes;

static double service_line(Channels *C, const ReplayParams *P,
                           const Routes *R, double now, i64 a,
                           int is_write)
{
    i64 m = mod_by(&R->mod, a);
    return channel_service(C, P, now, R->chan[m], R->ri[m], R->fb[m],
                           is_write);
}

/* -- the sequential core ------------------------------------------------ */

int replay_kernel(
    const ReplayParams *P,
    const i64 *addr_a, const u8 *write_a, const double *gap_cyc,
    const i64 *core_offsets, const double *mlp,
    const int *route_chan, const int *route_ri, const int *route_fb,
    double *cycles,
    i64 *read_bursts, i64 *write_bursts,
    double *active_ns, double *powerdown_ns, double *last_activity,
    double *float_out, i64 *stat_out)
{
    const i64 n_cores = P->n_cores;
    const i64 *END = core_offsets + 1;
    const double ns_per_cycle = P->ns_per_cycle;
    const i64 n_rank_states = P->n_channels * P->n_ranks;
    const Divisor lines_per_page = divisor(P->lines_per_page);
    const uint64_t page_hash_mult = (uint64_t)P->page_hash_mult;
    const double upgrade_below = P->upgrade_below;
    Routes R;
    i64 clock = 0, hits = 0, misses = 0, mirror_violations = 0;
    double total_latency = 0.0;
    int status = REPLAY_OK;
    i64 k;

    Llc L;
    Channels C;
    i64 *position = NULL;
    /* Per-core interleave key: a waiting core's cycles, +inf for the
     * running core and for retired ones (see the header). */
    double *key = NULL;
    int core;
    double best_other;
    int best_other_index;

    memset(&L, 0, sizeof(L));
    memset(&C, 0, sizeof(C));
    R.chan = route_chan;
    R.ri = route_ri;
    R.fb = route_fb;
    R.mod = divisor(P->route_mod);
    L.n_sets = P->n_sets;
    L.sets = divisor(P->n_sets);
    L.n_ways = P->n_ways;
    L.n_words = (P->n_ways + 7) / 8;
    L.slot_addr = malloc((size_t)(L.n_sets * L.n_ways) * sizeof(i64));
    L.slot_rec = malloc((size_t)(L.n_sets * L.n_ways) * sizeof(i64));
    L.slot_flags = malloc((size_t)(L.n_sets * L.n_ways) * sizeof(u8));
    L.slot_fp = calloc((size_t)(L.n_sets * L.n_words), sizeof(uint64_t));
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
    key = malloc((size_t)n_cores * sizeof(double));
    if (!L.slot_addr || !L.slot_rec || !L.slot_flags || !L.slot_fp ||
        !L.set_len || !C.bus_busy || !C.last_issue || !C.bank_busy ||
        !position || !key) {
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
        key[k] = 0.0;
    }

    /* All cores start at 0.0 cycles: first-minimal is core 0. */
    core = 0;
    for (;;) {
        i64 p = position[core];
        i64 end = END[core];
        double cyc;
        double core_mlp = mlp[core];

        /* The first-minimal waiting core.  Waiting cores' keys stay put
         * while this one runs, so it is also the next core to run if
         * this one retires. */
        cyc = key[core];
        key[core] = INFINITY;
        best_other = INFINITY;
        best_other_index = -1;
        for (k = 0; k < n_cores; k++) {
            double v = key[k];
            int lower = v < best_other;
            best_other = lower ? v : best_other;
            best_other_index = lower ? (int)k : best_other_index;
        }

        for (;;) {
            i64 a = addr_a[p];
            i64 s = mod_by(&L.sets, a);
            int idx;
            cyc += gap_cyc[p];

            idx = set_find(&L, s, a);
            if (idx >= 0) { /* LLC hit */
                clock += 1;
                if (L.slot_flags[s * L.n_ways + idx] & FLAG_UPG) {
                    /* Mirror the pair's recency — and audit it: the
                     * sibling must be resident with an equal tick
                     * before this touch re-stamps both. */
                    i64 ss = s ^ 1;
                    int sj = set_find(&L, ss, a ^ 1);
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
                L.slot_flags[s * L.n_ways + idx] |= write_a[p];
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

            /* LLC miss: the scalar simulator inserts the line
             * (evicting as needed), then the upgraded sibling, then
             * issues the fill and any writebacks.  The fill is
             * serviced first here, which changes nothing: the LLC and
             * the channels share no state, and the channel sees the
             * fill and the writebacks in the scalar order. */
            misses += 1;
            {
                double now = cyc * ns_per_cycle;
                /* page_is_upgraded: (page * mult) mod 2**32 is the
                 * low word of the 64-bit product. */
                int is_upg =
                    (double)(uint32_t)((uint64_t)div_by(&lines_per_page, a) *
                                       page_hash_mult) < upgrade_below;
                int is_write = write_a[p];
                WriteBack wbs[8];
                int n_wb = 0;
                double completion, latency;
                int w;

                /* Demand fill (and, for a pair, the sibling's channel
                 * in lockstep).  Nothing here reads the LLC, so it runs
                 * first: a mispredicted branch of the LLC update below
                 * cannot then discard the core's new cycle count. */
                completion = service_line(&C, P, &R, now, a, 0);
                if (is_upg) {
                    double sc = service_line(&C, P, &R, now, a ^ 1, 0);
                    if (sc > completion) {
                        completion = sc;
                    }
                    if (P->lotecc_checksum) {
                        /* LOT-ECC checksum reads: one per sub-line, on
                         * the fill's critical path. */
                        sc = service_line(&C, P, &R, now, a, 0);
                        if (sc > completion) {
                            completion = sc;
                        }
                        sc = service_line(&C, P, &R, now, a ^ 1, 0);
                        if (sc > completion) {
                            completion = sc;
                        }
                    }
                }
                latency = completion - now;
                if (latency < 0.0) {
                    latency = 0.0;
                }
                total_latency += latency;
                cyc += latency / ns_per_cycle / core_mlp;

                clock += 1;
                idx = set_insert(&L, s, a, clock,
                                 (u8)(is_write | (is_upg ? FLAG_UPG : 0)),
                                 wbs, &n_wb);
                if (is_upg) {
                    i64 ss = s ^ 1;
                    int sj = set_find(&L, ss, a ^ 1);
                    if (sj >= 0) {
                        /* Sibling already resident: mark it paired; its
                         * effective recency becomes the pair max (= the
                         * tick the line above just received). */
                        L.slot_flags[ss * L.n_ways + sj] |= FLAG_UPG;
                        L.slot_rec[ss * L.n_ways + sj] = clock;
                    } else {
                        int len = L.set_len[s];
                        clock += 1;
                        set_insert(&L, ss, a ^ 1, clock, FLAG_UPG, wbs,
                                   &n_wb);
                        /* Pair fills together: re-stamp the line
                         * inserted above with the sibling's (newer)
                         * tick.  It keeps its way unless a paired
                         * victim of set ss took that victim's sibling
                         * out of set s, moving set s's last way; it
                         * cannot have been evicted itself, as its own
                         * sibling was not resident. */
                        if (L.set_len[s] != len) {
                            idx = set_find(&L, s, a);
                        }
                        L.slot_rec[s * L.n_ways + idx] = clock;
                    }
                }

                /* LOT-ECC pays one checksum write per data write,
                 * co-located with the data it protects. */
                for (w = 0; w < n_wb; w++) {
                    i64 wa = wbs[w].addr;
                    service_line(&C, P, &R, now, wa, 1);
                    if (P->lotecc_checksum) {
                        service_line(&C, P, &R, now, wa, 1);
                    }
                    if (wbs[w].upgraded) {
                        service_line(&C, P, &R, now, wa ^ 1, 1);
                        if (P->lotecc_checksum) {
                            service_line(&C, P, &R, now, wa ^ 1, 1);
                        }
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

        /* Lead change or core retirement: park this core (its key
         * stays +inf once it retires) and hand over to the
         * first-minimal waiting core. */
        position[core] = p;
        if (p == end) {
            cycles[core] = cyc;
            if (best_other_index < 0) {
                break; /* every core has retired */
            }
        } else {
            key[core] = cyc;
        }
        core = best_other_index;
    }

done:
    if (status == REPLAY_OK) {
        float_out[0] = total_latency;
        stat_out[STAT_HITS] = hits;
        stat_out[STAT_MISSES] = misses;
        stat_out[STAT_MAX_OCCUPANCY] = L.max_occupancy;
        stat_out[STAT_MIRROR_VIOLATIONS] = mirror_violations;
        stat_out[STAT_PROBE_COLLISIONS] = L.probe_collisions;
        for (k = 0; k < n_cores; k++) {
            stat_out[STAT_POSITIONS + k] = position[k];
        }
    }
    free(L.slot_addr);
    free(L.slot_rec);
    free(L.slot_flags);
    free(L.slot_fp);
    free(L.set_len);
    free(C.bus_busy);
    free(C.last_issue);
    free(C.bank_busy);
    free(position);
    free(key);
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
 * write flag.  Draws until the retired-instruction total reaches
 * instructions_per_core or the buffers hold capacity accesses, and
 * returns the count written.  Capacity is checked before any draw, so
 * a full buffer leaves the stream exactly where the next access
 * begins: the caller resumes with the remaining instruction quota and
 * the last line written as current.  perf/trace.py uses it only after
 * a per-process probe finds it equal to CoreTrace, array for array. */
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

    while (total < instructions_per_core && count < capacity) {
        i64 line;
        i64 gap;
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
