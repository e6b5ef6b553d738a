"""Tests for the Table 7.1/7.2 configuration objects."""

import pytest

from repro.config import (
    ARCC_MEMORY_CONFIG,
    BASELINE_MEMORY_CONFIG,
    DOUBLE_UPGRADED_GEOMETRY,
    PROCESSOR_CONFIG,
    RELAXED_GEOMETRY,
    SCRUB_CONFIG,
    UPGRADED_GEOMETRY,
    MemoryConfig,
)


class TestMemoryConfigs:
    def test_table_7_1_baseline(self):
        cfg = BASELINE_MEMORY_CONFIG
        assert cfg.io_width == 4
        assert cfg.channels == 2
        assert cfg.ranks_per_channel == 1
        assert cfg.devices_per_rank == 36

    def test_table_7_1_arcc(self):
        cfg = ARCC_MEMORY_CONFIG
        assert cfg.io_width == 8
        assert cfg.channels == 2
        assert cfg.ranks_per_channel == 2
        assert cfg.devices_per_rank == 18

    def test_same_total_devices(self):
        """Both configurations use 72 devices (Section 7.1)."""
        assert (
            BASELINE_MEMORY_CONFIG.total_devices
            == ARCC_MEMORY_CONFIG.total_devices
            == 72
        )

    def test_same_storage_overhead(self):
        """Both keep SECDED's 12.5% overhead (Chapter 2)."""
        assert BASELINE_MEMORY_CONFIG.storage_overhead == pytest.approx(0.125)
        assert ARCC_MEMORY_CONFIG.storage_overhead == pytest.approx(0.125)

    def test_lines_per_page(self):
        assert ARCC_MEMORY_CONFIG.lines_per_page == 64  # 4 KB / 64B

    def test_devices_per_access_halved(self):
        """The power story: 18 vs 36 devices per request."""
        assert ARCC_MEMORY_CONFIG.devices_per_access * 2 == (
            BASELINE_MEMORY_CONFIG.devices_per_access
        )

    def test_invalid_redundancy_rejected(self):
        with pytest.raises(ValueError):
            MemoryConfig(
                name="bad",
                technology="DDR2",
                io_width=8,
                channels=1,
                ranks_per_channel=1,
                devices_per_rank=16,
                data_devices_per_rank=16,
            )

    def test_page_must_divide_into_lines(self):
        with pytest.raises(ValueError):
            MemoryConfig(
                name="bad",
                technology="DDR2",
                io_width=8,
                channels=1,
                ranks_per_channel=1,
                devices_per_rank=18,
                data_devices_per_rank=16,
                cacheline_bytes=100,
            )

    def test_pages_per_channel(self):
        assert ARCC_MEMORY_CONFIG.pages_per_channel == (
            ARCC_MEMORY_CONFIG.capacity_per_channel_bytes // 4096
        )


class TestProcessorConfig:
    def test_table_7_2_values(self):
        p = PROCESSOR_CONFIG
        assert p.superscalar_width == 2
        assert p.iq_size == 16
        assert p.lq_size == 32 and p.sq_size == 32
        assert p.l2_mb == 1 and p.l2_assoc == 16
        assert p.l2_mshrs == 240
        assert p.cacheline_bytes == 64

    def test_l2_sets(self):
        assert PROCESSOR_CONFIG.l2_sets == 1024  # 1MB / (64B * 16 ways)


class TestGeometries:
    def test_relaxed(self):
        assert RELAXED_GEOMETRY.data_symbols == 16
        assert RELAXED_GEOMETRY.check_symbols == 2
        assert RELAXED_GEOMETRY.total_symbols == 18

    def test_upgraded_doubles_relaxed(self):
        assert UPGRADED_GEOMETRY.data_symbols == (
            2 * RELAXED_GEOMETRY.data_symbols
        )
        assert UPGRADED_GEOMETRY.check_symbols == (
            2 * RELAXED_GEOMETRY.check_symbols
        )

    def test_all_same_overhead(self):
        """The central invariant of Section 4.1."""
        for g in (RELAXED_GEOMETRY, UPGRADED_GEOMETRY, DOUBLE_UPGRADED_GEOMETRY):
            assert g.storage_overhead == pytest.approx(0.125)


class TestScrubAndSim:
    def test_scrub_defaults(self):
        assert SCRUB_CONFIG.interval_hours == 4.0
        assert SCRUB_CONFIG.arcc_pass_multiplier == 6
