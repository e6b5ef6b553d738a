"""Tests for the upgrade engine and the full ARCC memory system."""

import random

import pytest

from repro.config import ARCC_MEMORY_CONFIG
from repro.core.arcc import ARCCMemorySystem
from repro.core.modes import ProtectionMode
from repro.core.page_table import PageTable
from repro.core.storage import ArccStorage, codec_for_mode
from repro.core.upgrade import UpgradeEngine
from repro.ecc.base import DecodeStatus
from repro.faults.types import FaultType


def random_line(seed):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(64))


class TestUpgradeEngine:
    def _setup(self, pages=2):
        storage = ArccStorage(ARCC_MEMORY_CONFIG, pages=pages)
        pt = PageTable(pages, initial_mode=ProtectionMode.RELAXED)
        codec = codec_for_mode(ProtectionMode.RELAXED)
        payloads = {}
        for line in range(storage.total_lines):
            data = random_line(line)
            payloads[line] = data
            storage.write_codewords(
                line, ProtectionMode.RELAXED, codec.encode_line(data)
            )
        return storage, pt, UpgradeEngine(storage, pt), payloads

    def test_upgrade_preserves_data(self):
        storage, pt, engine, payloads = self._setup()
        report = engine.upgrade_page(0)
        assert report.new_mode == ProtectionMode.UPGRADED
        assert report.lines_rewritten == 32  # 64 sub-lines -> 32 pairs
        codec = codec_for_mode(ProtectionMode.UPGRADED)
        for base in range(0, 64, 2):
            result = codec.decode_line(
                storage.read_codewords(base, ProtectionMode.UPGRADED)
            )
            assert result.status == DecodeStatus.NO_ERROR
            assert result.data == payloads[base] + payloads[base + 1]

    def test_upgrade_corrects_latent_errors(self):
        storage, pt, engine, payloads = self._setup()
        codec = codec_for_mode(ProtectionMode.RELAXED)
        cws = [list(cw) for cw in codec.encode_line(payloads[3])]
        for cw in cws:
            cw[7] ^= 0x21
        storage.write_codewords(3, ProtectionMode.RELAXED, cws)
        report = engine.upgrade_page(0)
        assert report.corrected_lines >= 1
        up_codec = codec_for_mode(ProtectionMode.UPGRADED)
        result = up_codec.decode_line(
            storage.read_codewords(2, ProtectionMode.UPGRADED)
        )
        assert result.data == payloads[2] + payloads[3]

    def test_double_upgrade(self):
        storage, pt, engine, payloads = self._setup()
        engine.upgrade_page(0)
        report = engine.upgrade_page(0)
        assert report.new_mode == ProtectionMode.DOUBLE_UPGRADED
        codec = codec_for_mode(ProtectionMode.DOUBLE_UPGRADED)
        result = codec.decode_line(
            storage.read_codewords(0, ProtectionMode.DOUBLE_UPGRADED)
        )
        assert result.data == b"".join(payloads[i] for i in range(4))

    def test_upgrade_at_top_is_noop(self):
        storage, pt, engine, _ = self._setup()
        engine.upgrade_page(0)
        engine.upgrade_page(0)
        report = engine.upgrade_page(0)
        assert report.old_mode == report.new_mode
        assert report.lines_rewritten == 0

    def test_set_same_mode_is_noop(self):
        storage, pt, engine, payloads = self._setup()
        writes = storage.device_writes
        report = engine.set_page_mode(0, ProtectionMode.RELAXED)
        assert report.old_mode == report.new_mode == ProtectionMode.RELAXED
        assert report.lines_rewritten == 0
        assert storage.device_writes == writes

    def test_set_page_mode_jumps_two_levels(self):
        storage, pt, engine, payloads = self._setup()
        report = engine.set_page_mode(1, ProtectionMode.DOUBLE_UPGRADED)
        assert report.new_mode == ProtectionMode.DOUBLE_UPGRADED
        assert pt.mode_of(1) == ProtectionMode.DOUBLE_UPGRADED
        codec = codec_for_mode(ProtectionMode.DOUBLE_UPGRADED)
        result = codec.decode_line(
            storage.read_codewords(64, ProtectionMode.DOUBLE_UPGRADED)
        )
        assert result.data == b"".join(payloads[i] for i in range(64, 68))

    def test_relax_roundtrip(self):
        storage, pt, engine, payloads = self._setup()
        engine.upgrade_page(1)
        engine.relax_page(1)
        codec = codec_for_mode(ProtectionMode.RELAXED)
        for line in range(64, 128):
            result = codec.decode_line(
                storage.read_codewords(line, ProtectionMode.RELAXED)
            )
            assert result.data == payloads[line]

    def test_only_target_page_touched(self):
        storage, pt, engine, payloads = self._setup()
        engine.upgrade_page(0)
        assert pt.mode_of(1) == ProtectionMode.RELAXED
        codec = codec_for_mode(ProtectionMode.RELAXED)
        result = codec.decode_line(
            storage.read_codewords(64, ProtectionMode.RELAXED)
        )
        assert result.data == payloads[64]


class TestArccSystemLifecycle:
    def test_access_before_boot_rejected(self):
        memory = ARCCMemorySystem(pages=2)
        with pytest.raises(RuntimeError):
            memory.read_line(0)

    def test_boot_relaxes_clean_memory(self):
        memory = ARCCMemorySystem(pages=2)
        report = memory.boot()
        assert report.clean
        assert memory.fraction_upgraded() == 0.0

    def test_boot_keeps_faulty_pages_upgraded(self):
        """Section 4.2.1: pages with faults at boot never relax."""
        memory = ARCCMemorySystem(pages=2)
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=0, device=2)
        report = memory.boot()
        assert not report.clean
        assert memory.fraction_upgraded() > 0.0

    def test_write_read_roundtrip(self):
        memory = ARCCMemorySystem(pages=2)
        memory.boot()
        data = random_line(1)
        memory.write_line(10, data)
        got, result = memory.read_line(10)
        assert got == data and result.status == DecodeStatus.NO_ERROR

    def test_relaxed_access_touches_18_devices(self):
        memory = ARCCMemorySystem(pages=2)
        memory.boot()
        memory.write_line(0, bytes(64))
        before = memory.stats.device_accesses
        memory.read_line(0)
        assert memory.stats.device_accesses - before == 18

    def test_invalid_write_rejected(self):
        memory = ARCCMemorySystem(pages=2)
        memory.boot()
        with pytest.raises(ValueError):
            memory.write_line(0, bytes(63))


class TestArccFaultHandling:
    def _booted_with_data(self, pages=2, seed=0):
        memory = ARCCMemorySystem(pages=pages, seed=seed)
        memory.boot()
        payloads = {}
        for line in range(0, memory.total_lines, 3):
            data = random_line(line + 1000)
            memory.write_line(line, data)
            payloads[line] = data
        return memory, payloads

    def test_device_fault_corrected_on_read(self):
        memory, payloads = self._booted_with_data()
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=0, device=4)
        data, result = memory.read_line(0)
        assert result.status == DecodeStatus.CORRECTED
        assert data == payloads[0]
        assert memory.stats.corrected_reads >= 1

    def test_scrub_upgrades_faulty_pages(self):
        memory, payloads = self._booted_with_data()
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=0, device=4)
        report, upgrades = memory.scrub()
        assert report.faulty_pages
        assert upgrades
        for page in upgrades:
            assert memory.mode_of_page(page) == ProtectionMode.UPGRADED

    def test_data_survives_upgrade(self):
        memory, payloads = self._booted_with_data()
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=0, device=4)
        memory.scrub()
        for line, data in payloads.items():
            got, result = memory.read_line(line)
            assert got == data, f"line {line}: {result.status}"

    def test_upgraded_access_touches_36_devices(self):
        memory, _ = self._booted_with_data()
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=0, device=4)
        memory.scrub()
        before = memory.stats.device_accesses
        memory.read_line(0)
        assert memory.stats.device_accesses - before == 36

    def test_second_fault_detected_not_silent(self):
        """Chapter 6's DUE story: after the upgrade, a second bad device
        in the same codeword is *detected* (correct-1/detect-2)."""
        memory, payloads = self._booted_with_data()
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=0, device=4)
        memory.scrub()
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=0, device=9)
        _, result = memory.read_line(0)
        assert result.status == DecodeStatus.DETECTED_UE
        assert memory.stats.due_reads >= 1
        assert memory.stats.sdc_reads == 0

    def test_double_fault_in_relaxed_window_is_sdc_or_due(self):
        """Two faults before any scrub: the relaxed code cannot guarantee
        detection — the oracle flags any silent corruption."""
        memory, payloads = self._booted_with_data(seed=7)
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=0, device=4)
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=0, device=9)
        _, result = memory.read_line(0)
        assert result.status in (
            DecodeStatus.DETECTED_UE,
            DecodeStatus.MISCORRECTED,
            DecodeStatus.CORRECTED,  # miscorrection caught by oracle -> no
        )
        assert result.status != DecodeStatus.NO_ERROR or (
            memory.stats.sdc_reads > 0
        )

    def test_write_to_upgraded_page_read_modify_write(self):
        memory, payloads = self._booted_with_data()
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=0, device=4)
        memory.scrub()
        fresh = random_line(999)
        memory.write_line(1, fresh)
        got, _ = memory.read_line(1)
        assert got == fresh
        # The sibling sub-line survived the read-modify-write.
        got0, _ = memory.read_line(0)
        assert got0 == payloads[0]

    def test_lane_fault_hits_both_ranks(self):
        memory, _ = self._booted_with_data()
        memory.inject_fault(FaultType.LANE, channel=0, rank=0, device=3)
        report, _ = memory.scrub()
        assert len(report.faulty_pages) == memory.page_table.pages

    def test_double_upgrade_disabled_by_default(self):
        memory, _ = self._booted_with_data()
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=0, device=4)
        memory.scrub()
        memory.inject_fault(FaultType.DEVICE, channel=1, rank=0, device=9)
        memory.scrub()
        assert all(
            memory.mode_of_page(p) != ProtectionMode.DOUBLE_UPGRADED
            for p in range(memory.page_table.pages)
        )

    def test_double_upgrade_enabled(self):
        memory = ARCCMemorySystem(
            pages=2, seed=3, enable_double_upgrade=True
        )
        memory.boot()
        for line in range(0, 8):
            memory.write_line(line, random_line(line))
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=0, device=4)
        memory.scrub()
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=0, device=9)
        _, upgrades = memory.scrub()
        assert any(
            r.new_mode == ProtectionMode.DOUBLE_UPGRADED
            for r in upgrades.values()
        )

    def test_stats_devices_per_access(self):
        memory, _ = self._booted_with_data()
        assert memory.stats.devices_per_access == pytest.approx(18.0)
