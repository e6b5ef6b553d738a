"""Tests for the ARCC-aware LLC (Section 4.2.3)."""

import pytest

from repro.cache.llc import LastLevelCache
from repro.cache.replacement import NaivePairedLru, PairedLruPolicy


@pytest.fixture
def llc():
    return LastLevelCache(sets=8, ways=2)


class TestBasicCaching:
    def test_miss_then_hit(self, llc):
        assert not llc.access(5, is_write=False).hit
        assert llc.access(5, is_write=False).hit
        assert llc.stats.hits == 1 and llc.stats.misses == 1

    def test_negative_address_rejected(self, llc):
        with pytest.raises(ValueError):
            llc.access(-1, False)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            LastLevelCache(sets=7, ways=2)  # odd sets break pairing
        with pytest.raises(ValueError):
            LastLevelCache(sets=8, ways=0)

    def test_lru_eviction(self, llc):
        # Set 0 holds addresses 0, 8, 16, ... with 2 ways.
        llc.access(0, False)
        llc.access(8, False)
        llc.access(0, False)  # 0 now MRU
        llc.access(16, False)  # evicts 8
        assert llc.contains(0)
        assert not llc.contains(8)
        assert llc.contains(16)

    def test_clean_eviction_no_writeback(self, llc):
        llc.access(0, False)
        llc.access(8, False)
        outcome = llc.access(16, False)
        assert outcome.writebacks == ()

    def test_dirty_eviction_writes_back(self, llc):
        llc.access(0, is_write=True)
        llc.access(8, False)
        llc.access(0, False)
        outcome = llc.access(16, False)  # evicts dirty 8? no: 8 is LRU clean
        llc.access(24, False)  # now evicts 0 (dirty)
        all_wbs = outcome.writebacks
        # Track over both accesses:
        assert llc.stats.writebacks >= 1

    def test_write_hit_marks_dirty(self, llc):
        llc.access(0, False)
        llc.access(0, is_write=True)
        llc.access(8, False)
        outcome = llc.access(16, False)
        assert any(wb.line_address == 0 for wb in outcome.writebacks)

    def test_resident_lines(self, llc):
        for i in range(5):
            llc.access(i, False)
        assert llc.resident_lines == 5


class TestUpgradedLines:
    def test_upgraded_miss_fills_both_sublines(self, llc):
        outcome = llc.access(4, False, upgraded=True)
        assert not outcome.hit
        assert set(outcome.fills) == {4, 5}
        assert llc.contains(4) and llc.contains(5)

    def test_sibling_hit_after_paired_fill(self, llc):
        llc.access(4, False, upgraded=True)
        assert llc.access(5, False, upgraded=True).hit

    def test_paired_eviction_removes_both(self):
        llc = LastLevelCache(sets=4, ways=1)
        llc.access(0, False, upgraded=True)  # fills 0 (set 0) and 1 (set 1)
        llc.access(4, False)  # set 0: evicts 0 -> sibling 1 must go too
        assert not llc.contains(0)
        assert not llc.contains(1)
        assert llc.stats.paired_evictions == 1

    def test_dirty_pair_single_paired_writeback(self):
        llc = LastLevelCache(sets=4, ways=1)
        llc.access(0, is_write=True, upgraded=True)
        outcome = llc.access(4, False)
        paired = [wb for wb in outcome.writebacks if wb.upgraded]
        assert len(paired) == 1
        assert paired[0].line_address == 0  # aligned base
        assert llc.stats.paired_writebacks == 1

    def test_clean_sibling_dirty_primary_still_pairs(self):
        """Either dirty sub-line forces a paired writeback: all four check
        symbols span both sub-lines."""
        llc = LastLevelCache(sets=4, ways=1)
        llc.access(1, is_write=True, upgraded=True)  # dirty odd sub-line
        outcome = llc.access(5, False)  # set 1: evicts 1
        assert any(wb.upgraded for wb in outcome.writebacks)

    def test_second_tag_access_counted(self):
        llc = LastLevelCache(sets=4, ways=1)
        llc.access(0, False, upgraded=True)
        llc.access(4, False)  # replacement in set 0 checks sibling recency
        assert llc.stats.extra_tag_accesses >= 1

    def test_upgrade_while_resident_marks_sibling(self, llc):
        llc.access(4, False)  # relaxed fill of line 4
        llc.access(5, False, upgraded=True)  # page upgraded meanwhile
        # Line 4 must now be flagged as part of the pair: evicting 5
        # takes 4 with it.
        llc2 = LastLevelCache(sets=4, ways=1)
        llc2.access(4, False)
        llc2.access(5, False, upgraded=True)
        llc2.access(9, False)  # set 1: evict 5
        assert not llc2.contains(4)


class TestPairedRecencyPolicy:
    def test_hot_sibling_protects_cold_one(self):
        """Section 4.2.3: the pair inherits the recency of its most
        recently used sub-line."""
        llc = LastLevelCache(sets=2, ways=2, policy=PairedLruPolicy())
        llc.access(0, False, upgraded=True)  # pair (0,1)
        llc.access(2, False)  # set 0 second way
        llc.access(1, False, upgraded=True)  # touch sibling: pair is hot
        llc.access(4, False)  # set 0 full: victim should be 2, not 0
        assert llc.contains(0)
        assert not llc.contains(2)

    def test_naive_policy_thrashes_cold_subline(self):
        llc = LastLevelCache(sets=2, ways=2, policy=NaivePairedLru())
        llc.access(0, False, upgraded=True)
        llc.access(2, False)
        llc.access(1, False, upgraded=True)  # hotness of 1 ignored for 0
        llc.access(4, False)  # victim is 0 (oldest own recency)
        assert not llc.contains(0)
        # ...and the paired eviction ripped out the hot sibling too:
        assert not llc.contains(1)


class TestFlush:
    def test_flush_writes_dirty_lines(self, llc):
        llc.access(0, is_write=True)
        llc.access(1, False)
        writebacks = llc.flush()
        assert [wb.line_address for wb in writebacks] == [0]
        assert llc.resident_lines == 0

    def test_flush_pairs_once(self):
        llc = LastLevelCache(sets=4, ways=2)
        llc.access(0, is_write=True, upgraded=True)
        writebacks = llc.flush()
        paired = [wb for wb in writebacks if wb.upgraded]
        assert len(paired) == 1

