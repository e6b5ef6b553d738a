"""Tests for functional symbol storage and the enhanced scrubber."""

import pytest

from repro.config import ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG
from repro.core.modes import ProtectionMode
from repro.core.page_table import PageTable
from repro.core.scrubber import (
    Scrubber,
    scrub_bandwidth_overhead,
    scrub_pass_seconds,
)
from repro.core.storage import ArccStorage, codec_for_mode, symbol_home
from repro.util.units import GB


@pytest.fixture
def storage():
    return ArccStorage(ARCC_MEMORY_CONFIG, pages=4)


def encode(mode, data):
    return codec_for_mode(mode).encode_line(data)


class TestSymbolHome:
    def test_relaxed_data_symbols(self):
        for i in range(16):
            assert symbol_home(ProtectionMode.RELAXED, i) == (0, i)

    def test_relaxed_check_symbols(self):
        assert symbol_home(ProtectionMode.RELAXED, 16) == (0, 16)
        assert symbol_home(ProtectionMode.RELAXED, 17) == (0, 17)

    def test_upgraded_spans_two_sublines(self):
        subs = {symbol_home(ProtectionMode.UPGRADED, i)[0] for i in range(36)}
        assert subs == {0, 1}

    def test_upgraded_check_split(self):
        """Figure 4.1: two check symbols per sub-line."""
        assert symbol_home(ProtectionMode.UPGRADED, 32) == (0, 16)
        assert symbol_home(ProtectionMode.UPGRADED, 33) == (0, 17)
        assert symbol_home(ProtectionMode.UPGRADED, 34) == (1, 16)
        assert symbol_home(ProtectionMode.UPGRADED, 35) == (1, 17)

    def test_every_mode_balanced(self):
        """Each sub-line rank carries exactly 18 symbols per codeword —
        the constant-storage invariant."""
        for mode in ProtectionMode:
            per_sub = {}
            for s in range(mode.geometry.total_symbols):
                sub, dev = symbol_home(mode, s)
                per_sub.setdefault(sub, set()).add(dev)
            assert all(devs == set(range(18)) for devs in per_sub.values())

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            symbol_home(ProtectionMode.RELAXED, 18)


class TestStorage:
    def test_requires_arcc_rank_shape(self):
        with pytest.raises(ValueError):
            ArccStorage(BASELINE_MEMORY_CONFIG, pages=2)

    def test_roundtrip_relaxed(self, storage):
        data = bytes(range(64))
        cws = encode(ProtectionMode.RELAXED, data)
        storage.write_codewords(7, ProtectionMode.RELAXED, cws)
        assert storage.read_codewords(7, ProtectionMode.RELAXED) == cws

    def test_roundtrip_upgraded(self, storage):
        data = bytes(i % 256 for i in range(128))
        cws = encode(ProtectionMode.UPGRADED, data)
        storage.write_codewords(6, ProtectionMode.UPGRADED, cws)
        assert storage.read_codewords(6, ProtectionMode.UPGRADED) == cws

    def test_misaligned_upgraded_rejected(self, storage):
        cws = encode(ProtectionMode.UPGRADED, bytes(128))
        with pytest.raises(ValueError):
            storage.write_codewords(7, ProtectionMode.UPGRADED, cws)

    def test_wrong_codeword_length_rejected(self, storage):
        cws = encode(ProtectionMode.RELAXED, bytes(64))
        with pytest.raises(ValueError):
            storage.write_codewords(
                0, ProtectionMode.RELAXED, [cw[:-1] for cw in cws]
            )

    def test_misaligned_read_rejected(self, storage):
        with pytest.raises(ValueError):
            storage.read_codewords(5, ProtectionMode.UPGRADED)
        with pytest.raises(ValueError):
            storage.read_codewords(6, ProtectionMode.DOUBLE_UPGRADED)

    def test_out_of_range_line(self, storage):
        with pytest.raises(ValueError):
            storage.check_line(storage.total_lines)

    def test_base_line_alignment(self, storage):
        assert storage.base_line(7, ProtectionMode.UPGRADED) == 6
        assert storage.base_line(7, ProtectionMode.RELAXED) == 7
        assert storage.base_line(7, ProtectionMode.DOUBLE_UPGRADED) == 4

    def test_distinct_lines_do_not_clobber(self, storage):
        a = encode(ProtectionMode.RELAXED, bytes([1] * 64))
        b = encode(ProtectionMode.RELAXED, bytes([2] * 64))
        storage.write_codewords(0, ProtectionMode.RELAXED, a)
        storage.write_codewords(1, ProtectionMode.RELAXED, b)
        assert storage.read_codewords(0, ProtectionMode.RELAXED) == a
        assert storage.read_codewords(1, ProtectionMode.RELAXED) == b

    def test_fill_and_raw_read(self, storage):
        storage.fill_subline(3, 0xA5)
        raw = storage.read_subline_raw(3)
        assert all(s == 0xA5 for cw in raw for s in cw)

    def test_device_access_counters(self, storage):
        before = storage.device_reads
        storage.read_codewords(0, ProtectionMode.RELAXED)
        assert storage.device_reads - before == 4 * 18


class TestScrubber:
    def _setup(self, pages=2):
        storage = ArccStorage(ARCC_MEMORY_CONFIG, pages=pages)
        pt = PageTable(pages, initial_mode=ProtectionMode.RELAXED)
        # Initialize all lines so decodes see valid codewords.
        codec = codec_for_mode(ProtectionMode.RELAXED)
        for line in range(storage.total_lines):
            storage.write_codewords(
                line, ProtectionMode.RELAXED, codec.encode_line(bytes(64))
            )
        return storage, pt, Scrubber(storage, pt)

    def test_batch_must_hold_a_line(self):
        storage, pt, _ = self._setup()
        with pytest.raises(ValueError):
            Scrubber(storage, pt, batch_lines=0)

    def test_clean_memory_clean_report(self):
        _, _, scrubber = self._setup()
        report = scrubber.scrub()
        assert report.clean
        assert report.pages_scrubbed == 2
        assert report.lines_scrubbed == 128
        assert report.corrected_lines == 0

    def test_detects_device_fault(self):
        storage, _, scrubber = self._setup()
        storage.devices[0][0][3].inject_device_fault(stuck_value=0x55)
        report = scrubber.scrub()
        assert not report.clean
        assert report.faulty_pages

    def test_detects_hidden_stuck_at_zero(self):
        """The whole point of the 0/1 probe: a stuck-at-0 cell currently
        storing 0 is invisible to a read-only scrubber."""
        storage, _, scrubber = self._setup()
        # All data is zero, and the fault forces zeros: decode is clean.
        storage.devices[0][0][5].inject_device_fault(stuck_value=0x00)
        report = scrubber.scrub()
        assert not report.clean
        assert report.pattern_mismatches > 0

    def test_detects_hidden_stuck_at_one(self):
        storage, pt, scrubber = self._setup()
        storage.devices[0][0][5].inject_device_fault(stuck_value=0xFF)
        report = scrubber.scrub()
        assert not report.clean

    def test_restores_content(self):
        storage, _, scrubber = self._setup()
        codec = codec_for_mode(ProtectionMode.RELAXED)
        data = bytes(range(64))
        storage.write_codewords(
            5, ProtectionMode.RELAXED, codec.encode_line(data)
        )
        scrubber.scrub()
        result = codec.decode_line(
            storage.read_codewords(5, ProtectionMode.RELAXED)
        )
        assert result.data == data

    def test_corrects_latent_errors_on_writeback(self):
        """Step 4: the scrubbed line goes back *corrected*."""
        storage, _, scrubber = self._setup()
        codec = codec_for_mode(ProtectionMode.RELAXED)
        data = bytes(range(64))
        cws = codec.encode_line(data)
        corrupted = [list(cw) for cw in cws]
        for cw in corrupted:
            cw[2] ^= 0x40  # soft error, not a stuck-at fault
        storage.write_codewords(9, ProtectionMode.RELAXED, corrupted)
        report = scrubber.scrub()
        assert report.corrected_lines >= 1
        assert storage.read_codewords(9, ProtectionMode.RELAXED) == cws


class TestScrubCostModel:
    def test_paper_example_0_4_seconds(self):
        """Section 4.2.2: 4 GB over a 128-bit 667 MHz channel = 0.4 s."""
        assert scrub_pass_seconds(4 * GB) == pytest.approx(0.4, rel=0.01)

    def test_paper_example_bandwidth_overhead(self):
        """2.4 s per six-pass scrub every 4 h = 0.0167%."""
        overhead = scrub_bandwidth_overhead(4 * GB)
        assert overhead == pytest.approx(0.000167, rel=0.02)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            scrub_pass_seconds(4 * GB, bus_bits=0)
