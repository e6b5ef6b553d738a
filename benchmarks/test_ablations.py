"""Ablation benchmarks for the design choices of the paper's Sections 4.1-4.2.

1. Scrub interval vs ARCC SDC rate and scrub bandwidth cost.
2. LLC replacement: paired recency (the paper's design) vs naive LRU.
3. Upgrade granularity: page vs whole-rank upgrades on a fault.
4. Upgraded-line design: same symbol size (4 codewords/line) vs halved
   symbols (double the codewords) — decoder-work comparison.
"""

from conftest import emit

from repro.cache.llc import LastLevelCache
from repro.cache.replacement import NaivePairedLru, PairedLruPolicy
from repro.config import RELAXED_GEOMETRY, UPGRADED_GEOMETRY, ScrubConfig
from repro.core.scrubber import scrub_bandwidth_overhead
from repro.faults.models import upgraded_page_fraction
from repro.faults.types import FaultType
from repro.reliability.analytical import ReliabilityParams, sdc_rate_arcc_ded
from repro.util.tables import format_table
from repro.util.units import GB


def test_ablation_scrub_interval(once):
    """Shorter scrubs shrink the SDC race window linearly but raise the
    bandwidth cost inversely — the 4h default is comfortably in the flat
    region of both curves."""

    def sweep():
        rows = []
        for hours in (1.0, 2.0, 4.0, 8.0, 24.0):
            params = ReliabilityParams(scrub_interval_hours=hours)
            sdc = sdc_rate_arcc_ded(params)
            bandwidth = scrub_bandwidth_overhead(
                4 * GB, ScrubConfig(interval_hours=hours)
            )
            rows.append([f"{hours:g}h", f"{sdc:.3e}", f"{bandwidth:.5%}"])
        return rows

    rows = once(sweep)
    emit(
        "Ablation: scrub interval",
        format_table(
            ["Interval", "ARCC SDC rate /ch-hr", "Scrub bandwidth"], rows
        ),
    )
    sdcs = [float(r[1]) for r in rows]
    bandwidths = [float(r[2].rstrip("%")) for r in rows]
    assert sdcs == sorted(sdcs)  # SDC risk grows with the interval
    assert bandwidths == sorted(bandwidths, reverse=True)
    # At the paper's 4h point the bandwidth cost is negligible.
    assert bandwidths[2] < 0.001 * 100


def _llc_workload(cache, upgraded_fraction=1.0):
    """A two-phase stream: fill pairs, then touch one sub-line of each
    pair while streaming conflicting relaxed lines."""
    # Phase 1: upgraded pairs.
    for base in range(0, 128, 2):
        cache.access(base, False, upgraded=True)
    # Phase 2: keep even sub-lines hot while conflicting traffic flows.
    for rounds in range(4):
        for base in range(0, 128, 2):
            cache.access(base, False, upgraded=True)
        for line in range(1024, 1024 + 128):
            cache.access(line, False)
    return cache.stats


def test_ablation_llc_replacement(once):
    """The paper's paired-recency policy keeps hot pairs resident where a
    naive policy thrashes them (Section 4.2.3)."""

    def run():
        paired = LastLevelCache(sets=64, ways=4, policy=PairedLruPolicy())
        naive = LastLevelCache(sets=64, ways=4, policy=NaivePairedLru())
        return _llc_workload(paired), _llc_workload(naive)

    paired, naive = once(run)
    rows = [
        ["paired recency (paper)", paired.misses, paired.paired_writebacks],
        ["naive LRU", naive.misses, naive.paired_writebacks],
    ]
    emit(
        "Ablation: LLC design for upgraded lines",
        format_table(["Design", "Misses", "Paired writebacks"], rows),
    )
    assert paired.misses <= naive.misses


def test_ablation_upgrade_granularity(once):
    """Page-granularity upgrades (the paper's choice) beat whole-rank
    upgrades by orders of magnitude in upgraded fraction for every small
    fault type."""

    def sweep():
        rows = []
        for fault_type in (FaultType.BANK, FaultType.COLUMN, FaultType.ROW):
            page_fraction = upgraded_page_fraction(fault_type)
            rank_fraction = 0.5  # the whole rank upgrades
            rows.append(
                [
                    fault_type.value,
                    f"{page_fraction:.5f}",
                    f"{rank_fraction:.2f}",
                    f"{rank_fraction / page_fraction:.0f}x",
                ]
            )
        return rows

    rows = once(sweep)
    emit(
        "Ablation: upgrade granularity (page vs rank)",
        format_table(
            ["Fault", "Page-granularity", "Rank-granularity", "Penalty"],
            rows,
        ),
    )
    for row in rows:
        assert float(row[1]) <= 0.5


def test_ablation_upgraded_line_design(once):
    """Section 4.1's two upgraded-line designs trade codeword count for
    symbol size; decoder work (syndrome symbol-operations per line) is
    identical, which is why the choice is free and can follow the EDAC
    controller."""

    def compare():
        same_symbol_codewords = 4  # 36-symbol codewords, 8-bit symbols
        half_symbol_codewords = 8  # 36-symbol codewords, 4-bit symbols
        ops_same = same_symbol_codewords * 36
        ops_half = half_symbol_codewords * 36 // 2  # half-width symbols
        return ops_same, ops_half

    ops_same, ops_half = once(compare)
    emit(
        "Ablation: upgraded-line symbol design",
        format_table(
            ["Design", "Codewords/line", "Symbol ops (8-bit equiv)"],
            [
                ["same symbol size", 4, ops_same],
                ["halved symbol size", 8, ops_half],
            ],
        ),
    )
    assert ops_same == ops_half


def test_ablation_geometry_storage_invariant(once):
    """Both ARCC modes keep exactly SECDED's 12.5% overhead — the
    constraint every alternative design has to respect."""

    def check():
        return (
            RELAXED_GEOMETRY.storage_overhead,
            UPGRADED_GEOMETRY.storage_overhead,
        )

    relaxed, upgraded = once(check)
    emit(
        "Ablation: storage overhead across modes",
        f"relaxed {relaxed:.1%}, upgraded {upgraded:.1%}",
    )
    assert relaxed == upgraded == 0.125
