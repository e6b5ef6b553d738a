"""Tests for protection modes and the page table / TLB (Section 4.2.1)."""

import pytest

from repro.core.modes import ProtectionMode
from repro.core.page_table import PageTable, Tlb


class TestProtectionModes:
    def test_lattice_order(self):
        assert ProtectionMode.RELAXED.next_stronger() == (
            ProtectionMode.UPGRADED
        )
        assert ProtectionMode.UPGRADED.next_stronger() == (
            ProtectionMode.DOUBLE_UPGRADED
        )

    def test_top_of_lattice(self):
        assert ProtectionMode.DOUBLE_UPGRADED.is_strongest
        with pytest.raises(ValueError):
            ProtectionMode.DOUBLE_UPGRADED.next_stronger()

    def test_span_doubles_each_step(self):
        assert ProtectionMode.RELAXED.span == 1
        assert ProtectionMode.UPGRADED.span == 2
        assert ProtectionMode.DOUBLE_UPGRADED.span == 4

    def test_line_bytes(self):
        assert ProtectionMode.RELAXED.line_bytes == 64
        assert ProtectionMode.UPGRADED.line_bytes == 128

    def test_devices_per_access(self):
        """The power story in one assertion: 18 vs 36 vs 72."""
        assert ProtectionMode.RELAXED.devices_per_access == 18
        assert ProtectionMode.UPGRADED.devices_per_access == 36
        assert ProtectionMode.DOUBLE_UPGRADED.devices_per_access == 72

    def test_check_symbols_double(self):
        assert ProtectionMode.RELAXED.check_symbols == 2
        assert ProtectionMode.UPGRADED.check_symbols == 4
        assert ProtectionMode.DOUBLE_UPGRADED.check_symbols == 8

    def test_same_overhead_everywhere(self):
        overheads = {
            mode.geometry.storage_overhead for mode in ProtectionMode
        }
        assert overheads == {0.125}


class TestPageTable:
    def test_boot_default_upgraded(self):
        pt = PageTable(8)
        assert pt.mode_of(0) == ProtectionMode.UPGRADED

    def test_upgrade_one_page(self):
        pt = PageTable(8, initial_mode=ProtectionMode.RELAXED)
        new_mode = pt.upgrade(3)
        assert new_mode == ProtectionMode.UPGRADED
        assert pt.mode_of(3) == ProtectionMode.UPGRADED
        assert pt.mode_of(2) == ProtectionMode.RELAXED
        assert pt.upgrade_events == 1

    def test_fraction_upgraded(self):
        pt = PageTable(10, initial_mode=ProtectionMode.RELAXED)
        assert pt.fraction_upgraded() == 0.0
        pt.upgrade(0)
        pt.upgrade(1)
        assert pt.fraction_upgraded() == pytest.approx(0.2)

    def test_pages_in_mode(self):
        pt = PageTable(10, initial_mode=ProtectionMode.RELAXED)
        pt.upgrade(5)
        assert pt.pages_in_mode(ProtectionMode.RELAXED) == 9
        assert pt.pages_in_mode(ProtectionMode.UPGRADED) == 1
        assert pt.pages_in_mode(ProtectionMode.DOUBLE_UPGRADED) == 0

    def test_double_upgrade_path(self):
        pt = PageTable(4, initial_mode=ProtectionMode.RELAXED)
        pt.upgrade(0)
        assert pt.upgrade(0) == ProtectionMode.DOUBLE_UPGRADED

    def test_set_same_mode_no_event(self):
        pt = PageTable(4, initial_mode=ProtectionMode.RELAXED)
        pt.set_mode(0, ProtectionMode.RELAXED)
        assert pt.upgrade_events == 0 and pt.relax_events == 0

    def test_out_of_range_rejected(self):
        pt = PageTable(4)
        with pytest.raises(ValueError):
            pt.mode_of(4)
        with pytest.raises(ValueError):
            pt.set_mode(-1, ProtectionMode.RELAXED)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            PageTable(0)


class TestTlb:
    def test_miss_then_hit(self):
        pt = PageTable(8)
        tlb = Tlb(pt, entries=4)
        tlb.lookup(0)
        tlb.lookup(0)
        assert tlb.stats.misses == 1 and tlb.stats.hits == 1

    def test_mode_cached(self):
        pt = PageTable(8, initial_mode=ProtectionMode.RELAXED)
        tlb = Tlb(pt, entries=4)
        assert tlb.lookup(0) == ProtectionMode.RELAXED
        # Mode changes behind the TLB's back are invisible until
        # shootdown — that is why upgrades must shoot entries down.
        pt.upgrade(0)
        assert tlb.lookup(0) == ProtectionMode.RELAXED
        tlb.shootdown(0)
        assert tlb.lookup(0) == ProtectionMode.UPGRADED
        assert tlb.stats.shootdowns == 1

    def test_lru_capacity(self):
        pt = PageTable(16)
        tlb = Tlb(pt, entries=2)
        tlb.lookup(0)
        tlb.lookup(1)
        tlb.lookup(2)  # evicts 0
        tlb.lookup(0)
        assert tlb.stats.misses == 4

    def test_flush(self):
        pt = PageTable(8)
        tlb = Tlb(pt, entries=4)
        tlb.lookup(0)
        tlb.lookup(1)
        tlb.flush()
        assert tlb.stats.shootdowns == 2

    def test_shootdown_absent_page_noop(self):
        pt = PageTable(8)
        tlb = Tlb(pt, entries=4)
        tlb.shootdown(5)
        assert tlb.stats.shootdowns == 0

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            Tlb(PageTable(4), entries=0)
