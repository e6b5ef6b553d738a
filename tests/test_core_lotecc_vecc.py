"""Tests for ARCC applied to LOT-ECC and VECC (Chapter 5)."""

import random

import pytest

from repro.config import ARCC_MEMORY_CONFIG
from repro.core.lotecc_arcc import (
    WORST_CASE_UPGRADE_FACTOR,
    ArccLotEcc,
    LotPageMode,
    lotecc_lifetime_overhead,
)
from repro.core.vecc_arcc import ArccVecc, VeccPageMode, _RelaxedVecc9
from repro.ecc.base import DecodeStatus
from repro.experiments.fig7_6 import plan_fig7_6
from repro.faults.lifetime import _fraction_after_events
from repro.faults.types import DEFAULT_FIT_RATES
from repro.fleet.engine import sample_fleet
from repro.runner.executor import execute_plan
from repro.util.units import HOURS_PER_YEAR


def random_line(seed):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(64))


class TestArccLotEcc:
    def _with_data(self, pages=4):
        memory = ArccLotEcc(pages=pages)
        payloads = {}
        for line in range(0, pages * 64, 5):
            data = random_line(line)
            memory.write_line(line, data)
            payloads[line] = data
        return memory, payloads

    def test_roundtrip(self):
        memory, payloads = self._with_data()
        for line, data in payloads.items():
            got, result = memory.read_line(line)
            assert got == data
            assert result.status == DecodeStatus.NO_ERROR

    def test_pages_start_relaxed(self):
        memory, _ = self._with_data()
        assert all(
            memory.mode_of(p) == LotPageMode.RELAXED_9
            for p in range(memory.pages)
        )
        assert memory.fraction_upgraded() == 0.0

    def test_unwritten_line_reads_zero(self):
        memory = ArccLotEcc(pages=1)
        got, result = memory.read_line(63)
        assert got == bytes(64) and result.ok

    def test_fault_corrected_then_upgraded(self):
        memory, payloads = self._with_data()
        memory.inject_device_fault(page=0, device=2)
        got, result = memory.read_line(0)
        assert result.status == DecodeStatus.CORRECTED
        assert got == payloads[0]
        upgraded = memory.scrub()
        assert upgraded == [0]
        assert memory.mode_of(0) == LotPageMode.UPGRADED_18
        assert memory.stats.pages_upgraded == 1

    def test_data_survives_upgrade(self):
        memory, payloads = self._with_data()
        memory.inject_device_fault(page=0, device=2)
        memory.scrub()
        for line, data in payloads.items():
            got, _ = memory.read_line(line)
            assert got == data

    def test_scrub_idempotent(self):
        memory, _ = self._with_data()
        memory.inject_device_fault(page=1, device=0)
        assert memory.scrub() == [1]
        assert memory.scrub() == []

    def test_access_cost_asymmetry(self):
        """Relaxed reads: 9 devices. Upgraded reads: 2x18 devices (the
        checksum line costs a second access, Section 5.2)."""
        memory, _ = self._with_data(pages=2)
        before = memory.stats.device_accesses
        memory.read_line(64)  # page 1, relaxed
        relaxed_cost = memory.stats.device_accesses - before

        memory.inject_device_fault(page=0, device=1)
        memory.scrub()
        before = memory.stats.device_accesses
        memory.read_line(0)  # page 0, upgraded
        upgraded_cost = memory.stats.device_accesses - before
        assert relaxed_cost == 9
        assert upgraded_cost == 36
        assert upgraded_cost / relaxed_cost == WORST_CASE_UPGRADE_FACTOR

    def test_two_faulty_devices_in_relaxed_page_is_due(self):
        memory, _ = self._with_data(pages=1)
        memory.inject_device_fault(page=0, device=1)
        memory.inject_device_fault(page=0, device=5)
        got, result = memory.read_line(0)
        assert result.status == DecodeStatus.DETECTED_UE
        assert got == bytes(64)
        assert memory.stats.due == 1

    def test_reinjecting_a_device_keeps_it_faulty(self):
        memory, payloads = self._with_data(pages=1)
        memory.inject_device_fault(page=0, device=4)
        memory.inject_device_fault(page=0, device=4)
        got, result = memory.read_line(0)
        assert result.status == DecodeStatus.CORRECTED
        assert got == payloads[0]

    def test_out_of_range_rejected(self):
        memory = ArccLotEcc(pages=1)
        with pytest.raises(ValueError):
            memory.read_line(64)
        with pytest.raises(ValueError):
            memory.inject_device_fault(page=1, device=0)


class TestLotEccLifetimeOverhead:
    def test_monotone_in_time(self):
        series = lotecc_lifetime_overhead(
            years=7, channels=200, rate_multiplier=4.0
        )
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))

    def test_monotone_in_rate(self):
        low = lotecc_lifetime_overhead(years=7, channels=200,
                                       rate_multiplier=1.0)
        high = lotecc_lifetime_overhead(years=7, channels=200,
                                        rate_multiplier=4.0)
        assert high[-1] > low[-1]

    def test_paper_band_at_1x(self):
        """Paper: ~1.6% average overhead over 7 years at 1x."""
        series = lotecc_lifetime_overhead(years=7, channels=500,
                                          rate_multiplier=1.0)
        assert 0.001 < series[-1] < 0.05

    def test_paper_band_at_4x(self):
        """Paper: no more than ~6.3% at 4x."""
        series = lotecc_lifetime_overhead(years=7, channels=500,
                                          rate_multiplier=4.0)
        assert series[-1] < 0.15

    def test_seed_pins_the_fleet(self):
        """One seed, one sampled fleet, one series; another seed draws
        another fleet."""
        kwargs = dict(years=3, channels=300, rate_multiplier=4.0)
        first = lotecc_lifetime_overhead(seed=5, **kwargs)
        assert lotecc_lifetime_overhead(seed=5, **kwargs) == first
        assert lotecc_lifetime_overhead(seed=6, **kwargs) != first


    @pytest.mark.parametrize("rate_multiplier", [1.0, 4.0])
    def test_matches_per_event_reference(self, rate_multiplier):
        """The fleet-engine reduction against the scalar union rule,
        evaluated per channel, per mid-step time, per event."""
        years, channels, seed = 7, 200, 0x107ECC
        histories = sample_fleet(
            channels,
            float(years),
            rates=DEFAULT_FIT_RATES.scaled(rate_multiplier),
            seed=seed,
        ).to_histories()
        reference = []
        for year in range(1, years + 1):
            samples = year * 12
            total = 0.0
            for events in histories:
                for step in range(samples):
                    t_hours = (step + 0.5) / 12 * HOURS_PER_YEAR
                    total += _fraction_after_events(
                        [e for e in events if e.time_hours <= t_hours],
                        ARCC_MEMORY_CONFIG,
                    )
            reference.append(
                (WORST_CASE_UPGRADE_FACTOR - 1.0) * total
                / (samples * channels)
            )
        series = lotecc_lifetime_overhead(
            years=years,
            channels=channels,
            rate_multiplier=rate_multiplier,
            seed=seed,
        )
        assert series == pytest.approx(reference, rel=1e-12, abs=0)

    def test_figure_table_pinned(self):
        """Figure 7.6 at default parameters and 500 channels, as
        rendered (cells end in padding spaces)."""
        expected = "\n".join(
            [
                "Figure 7.6: ARCC+LOT-ECC worst-case overhead "
                "(power increase == performance decrease)",
                "Rate | Year 1 | Year 2 | Year 3 | Year 4 | Year 5 | Year 6 "
                "| Year 7",
                "-----+--------+--------+--------+--------+--------+--------"
                "+-------",
                "1x   | 0.35%  | 0.69%  | 1.02%  | 1.24%  | 1.41%  | 1.73%  "
                "| 2.10% ",
                "2x   | 0.46%  | 0.79%  | 1.46%  | 2.50%  | 3.46%  | 4.56%  "
                "| 5.60% ",
                "4x   | 1.55%  | 3.31%  | 4.53%  | 6.41%  | 8.57%  | 10.70% "
                "| 12.38%",
                "DUE-rate reduction from double chip sparing: 180x "
                "(paper cites 17x)",
            ]
        )
        assert execute_plan(plan_fig7_6(channels=500)).to_table() == expected


class TestArccVecc:
    def _with_data(self, pages=4):
        memory = ArccVecc(pages=pages)
        payloads = {}
        for line in range(0, pages * 64, 7):
            data = random_line(line + 50)
            memory.write_line(line, data)
            payloads[line] = data
        return memory, payloads

    def test_roundtrip(self):
        memory, payloads = self._with_data()
        for line, data in payloads.items():
            got, result = memory.read_line(line)
            assert got == data and result.ok

    def test_relaxed_clean_read_is_nine_devices(self):
        memory, _ = self._with_data()
        before = memory.stats.device_accesses
        memory.read_line(0)
        assert memory.stats.device_accesses - before == 9

    def test_fault_takes_slow_path(self):
        memory, payloads = self._with_data()
        memory.inject_device_fault(page=0, device=1)
        got, result = memory.read_line(0)
        assert result.status == DecodeStatus.CORRECTED
        assert got == payloads[0]
        assert memory.stats.slow_path_reads >= 1

    def test_scrub_upgrades_to_18_device_vecc(self):
        memory, payloads = self._with_data()
        memory.inject_device_fault(page=0, device=1)
        assert memory.scrub() == [0]
        assert memory.mode_of(0) == VeccPageMode.UPGRADED_18
        assert memory.devices_per_access(0) == 18
        assert memory.devices_per_access(1) == 9
        for line, data in payloads.items():
            got, _ = memory.read_line(line)
            assert got == data

    def test_fraction_upgraded(self):
        memory, _ = self._with_data()
        memory.inject_device_fault(page=2, device=0)
        memory.scrub()
        assert memory.fraction_upgraded() == pytest.approx(0.25)

    def test_relaxed_codec_detects_single_symbol(self):
        codec = _RelaxedVecc9()
        rank, corr = codec.encode_line(bytes(range(64)))
        assert codec.detect_line(rank).status == DecodeStatus.NO_ERROR
        bad = [list(cw) for cw in rank]
        for cw in bad:
            cw[3] ^= 0x10
        assert codec.detect_line(bad).status == DecodeStatus.DETECTED_UE
        result = codec.correct_line(bad, corr)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == bytes(range(64))

    def test_two_faulty_devices_in_relaxed_page_is_due(self):
        memory, _ = self._with_data(pages=1)
        memory.inject_device_fault(page=0, device=1)
        memory.inject_device_fault(page=0, device=5)
        _, result = memory.read_line(0)
        assert result.status == DecodeStatus.DETECTED_UE
        assert memory.stats.due == 1

    def test_unwritten_line_reads_zero(self):
        memory = ArccVecc(pages=1)
        got, result = memory.read_line(63)
        assert got == bytes(64)
        assert result.status == DecodeStatus.NO_ERROR

    def test_write_after_upgrade_uses_full_vecc(self):
        memory, _ = self._with_data(pages=1)
        memory.inject_device_fault(page=0, device=1)
        memory.scrub()
        data = random_line(99)
        memory.write_line(1, data)
        rank_words, corrections = memory._store[1]
        assert len(rank_words[0]) == 18 and len(corrections[0]) == 2
        # The device stays faulty, so the fresh write is corrupted too.
        got, result = memory.read_line(1)
        assert got == data and result.status == DecodeStatus.CORRECTED
        assert set(result.error_positions) == {1}

    def test_upgraded_fault_takes_slow_path(self):
        memory, payloads = self._with_data(pages=1)
        memory.inject_device_fault(page=0, device=1)
        memory.scrub()
        memory.inject_device_fault(page=0, device=6)
        slow = memory.stats.slow_path_reads
        got, result = memory.read_line(0)
        assert result.status == DecodeStatus.CORRECTED
        assert got == payloads[0]
        assert memory.stats.slow_path_reads == slow + 1

    def test_scrub_idempotent(self):
        memory, _ = self._with_data()
        memory.inject_device_fault(page=3, device=2)
        assert memory.scrub() == [3]
        assert memory.scrub() == []

    def test_relaxed_codec_takes_64b_lines(self):
        from repro.ecc.base import CodecError

        with pytest.raises(CodecError):
            _RelaxedVecc9().encode_line(bytes(63))

    def test_page_mode_bounds(self):
        memory = ArccVecc(pages=2)
        with pytest.raises(ValueError):
            memory.mode_of(2)
