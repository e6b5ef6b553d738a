"""Tests for the channel timing model, controller and memory system."""

import dataclasses

import pytest

from repro.config import ARCC_MEMORY_CONFIG
from repro.dram.addressing import AddressMapping
from repro.dram.channel import POWERDOWN_HYSTERESIS_NS, Channel
from repro.dram.command import MemoryRequest
from repro.dram.controller import MemoryController
from repro.dram.system import MemorySystem
from repro.dram.timing import DDR2_667_X8


@pytest.fixture
def channel():
    return Channel(DDR2_667_X8, ranks=2)


class TestChannelTiming:
    def test_idle_access_latency(self, channel):
        start, completion = channel.service(0.0, 0, 0, is_write=False)
        assert start == 0.0
        t = DDR2_667_X8
        assert completion == pytest.approx(
            t.trcd_ns + t.cas_ns + t.burst_ns
        )

    def test_same_bank_serialized_by_trc(self, channel):
        channel.service(0.0, 0, 0, False)
        start2, _ = channel.service(0.0, 0, 0, False)
        assert start2 >= DDR2_667_X8.trc_ns

    def test_different_banks_overlap(self, channel):
        channel.service(0.0, 0, 0, False)
        start2, _ = channel.service(0.0, 0, 1, False)
        assert start2 < DDR2_667_X8.trc_ns

    def test_bus_serializes_bursts(self, channel):
        _, c1 = channel.service(0.0, 0, 0, False)
        _, c2 = channel.service(0.0, 0, 1, False)
        assert c2 >= c1 + DDR2_667_X8.burst_ns

    def test_rank_parallelism(self, channel):
        """Same bank index on another rank does not wait for tRC."""
        channel.service(0.0, 0, 0, False)
        start2, _ = channel.service(0.0, 1, 0, False)
        assert start2 < DDR2_667_X8.trc_ns

    def test_out_of_range_rejected(self, channel):
        with pytest.raises(ValueError):
            channel.service(0.0, 2, 0, False)
        with pytest.raises(ValueError):
            channel.service(0.0, 0, 8, False)

    def test_counters_accumulate(self, channel):
        channel.service(0.0, 0, 0, False)
        channel.service(0.0, 0, 1, True)
        counters = channel.finalize(1000.0)
        assert counters[0].activates == 2
        assert counters[0].read_bursts == 1
        assert counters[0].write_bursts == 1
        assert counters[0].elapsed_ns == 1000.0

    def test_powerdown_accounted_after_idle_gap(self, channel):
        channel.service(0.0, 0, 0, False)
        gap = 10_000.0
        channel.service(gap, 0, 1, False)
        counters = channel.finalize(gap + 100.0)
        assert counters[0].powerdown_ns > 0
        assert counters[0].powerdown_ns < gap

    def test_idle_rank_sleeps(self, channel):
        channel.service(0.0, 0, 0, False)
        counters = channel.finalize(100_000.0)
        # Rank 1 never accessed: nearly all of its time is power-down.
        assert counters[1].powerdown_ns == pytest.approx(
            100_000.0 - POWERDOWN_HYSTERESIS_NS
        )


class TestController:
    def _make(self, config):
        mapping = AddressMapping(config)
        channels = [
            Channel(DDR2_667_X8, config.ranks_per_channel)
            for _ in range(config.channels)
        ]
        return MemoryController(mapping, channels)

    def test_channel_count_mismatch_rejected(self):
        mapping = AddressMapping(ARCC_MEMORY_CONFIG)
        with pytest.raises(ValueError):
            MemoryController(mapping, [Channel(DDR2_667_X8, 2)])

    def test_plain_access_completes(self):
        controller = self._make(ARCC_MEMORY_CONFIG)
        req = MemoryRequest(line_address=10, is_write=False, arrival_ns=0.0)
        completion = controller.access(req)
        assert completion > 0
        assert req.completion_ns == completion
        assert req.latency_ns == completion

    def test_paired_access_touches_both_channels(self):
        controller = self._make(ARCC_MEMORY_CONFIG)
        req = MemoryRequest(line_address=8, is_write=False, arrival_ns=0.0)
        controller.access(req, upgraded=True)
        assert controller.channels[0].accesses == 1
        assert controller.channels[1].accesses == 1
        assert controller.stats.paired_requests == 1

    def test_paired_completion_is_max_of_channels(self):
        """The EDAC decode waits for both sub-lines: a paired access
        completes when the later of its two channels does."""

        def warmed():
            controller = self._make(ARCC_MEMORY_CONFIG)
            # Queue work on channel 0 only (even lines) so it runs behind.
            for i in range(6):
                controller.access(
                    MemoryRequest(line_address=2 * i, is_write=False,
                                  arrival_ns=0.0)
                )
            return controller

        def solo(line):
            return warmed().access(
                MemoryRequest(line_address=line, is_write=False,
                              arrival_ns=0.0)
            )

        req = MemoryRequest(line_address=100, is_write=False, arrival_ns=0.0)
        paired_completion = warmed().access(req, upgraded=True)
        busy, idle = solo(100), solo(101)
        assert busy > idle  # the warm-up really delays channel 0
        assert paired_completion == max(busy, idle)

    def test_sub_lines_on_one_channel_rejected(self):
        config = dataclasses.replace(ARCC_MEMORY_CONFIG, channels=1)
        controller = self._make(config)
        req = MemoryRequest(line_address=4, is_write=False, arrival_ns=0.0)
        assert controller.access(req) > 0
        paired = MemoryRequest(line_address=4, is_write=False, arrival_ns=0.0)
        with pytest.raises(RuntimeError):
            controller.access(paired, upgraded=True)

    def test_latency_stats(self):
        controller = self._make(ARCC_MEMORY_CONFIG)
        for i in range(4):
            controller.access(
                MemoryRequest(line_address=i, is_write=False, arrival_ns=0.0)
            )
        stats = controller.stats
        assert stats.requests == 4
        assert stats.total_latency_ns > 0
        assert stats.max_latency_ns >= stats.total_latency_ns / stats.requests

    def test_incomplete_request_latency_raises(self):
        req = MemoryRequest(line_address=0, is_write=False, arrival_ns=0.0)
        with pytest.raises(ValueError):
            _ = req.latency_ns


def _bursts(system: MemorySystem):
    """(read, write) bursts summed over every rank of ``system``."""
    counters = [
        c for channel in system.channels for c in channel.finalize(1e6)
    ]
    return (
        sum(c.read_bursts for c in counters),
        sum(c.write_bursts for c in counters),
    )


class TestLotEccChecksumMode:
    """``lotecc_checksum``: LOT-ECC's checksum bursts, issued in the
    order of the compiled kernel (line, its checksum, sibling, its
    checksum for writes; both sub-lines, then one checksum read each,
    for upgraded fills)."""

    def test_checksum_write_issues_two_write_bursts(self):
        system = MemorySystem(ARCC_MEMORY_CONFIG, lotecc_checksum=True)
        system.access(10, is_write=True, now_ns=0.0)
        assert _bursts(system) == (0, 2)

    def test_upgraded_checksum_write_pairs_each_sub_line(self):
        system = MemorySystem(ARCC_MEMORY_CONFIG, lotecc_checksum=True)
        system.access(10, is_write=True, now_ns=0.0, upgraded=True)
        assert _bursts(system) == (0, 4)
        assert [channel.accesses for channel in system.channels] == [2, 2]

    def test_upgraded_checksum_fill_issues_four_read_bursts(self):
        plain = MemorySystem(ARCC_MEMORY_CONFIG)
        checked = MemorySystem(ARCC_MEMORY_CONFIG, lotecc_checksum=True)
        plain_done = plain.access(10, False, 0.0, upgraded=True)
        checked_done = checked.access(10, False, 0.0, upgraded=True)
        assert _bursts(plain) == (2, 0)
        assert _bursts(checked) == (4, 0)
        assert checked_done >= plain_done

    def test_relaxed_fill_pays_no_checksum_read(self):
        """Only upgraded fills read checksums on the critical path."""
        plain = MemorySystem(ARCC_MEMORY_CONFIG)
        checked = MemorySystem(ARCC_MEMORY_CONFIG, lotecc_checksum=True)
        assert plain.access(10, False, 0.0) == checked.access(10, False, 0.0)
        assert _bursts(checked) == (1, 0)


class TestMemorySystem:
    def test_power_report_structure(self):
        ms = MemorySystem(ARCC_MEMORY_CONFIG)
        for i in range(100):
            ms.access(i, is_write=(i % 4 == 0), now_ns=i * 50.0)
        report = ms.power_report(10_000.0)
        assert report.total_w > 0
        assert report.total_w == pytest.approx(
            report.background_w + report.dynamic_w, rel=1e-6
        )
        assert len(report.per_rank_w) == 4  # 2 channels x 2 ranks

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            MemorySystem(ARCC_MEMORY_CONFIG).power_report(0.0)

    def test_stats_count_every_access(self):
        ms = MemorySystem(ARCC_MEMORY_CONFIG)
        for i in range(5):
            ms.access(2 * i, is_write=False, now_ns=0.0, upgraded=(i % 2 == 0))
        assert ms.stats is ms.controller.stats
        assert ms.stats.requests == 5
        assert ms.stats.paired_requests == 3

    def test_idle_system_power_is_background(self):
        ms = MemorySystem(ARCC_MEMORY_CONFIG)
        report = ms.power_report(1e6)
        assert report.dynamic_w == pytest.approx(0.0, abs=1e-9)
        assert report.background_w > 0
