"""Tests for ARCC applied to LOT-ECC and VECC (Chapter 5)."""

import random

import pytest

from repro.config import ARCC_MEMORY_CONFIG
from repro.core.lotecc_vecc import ArccLotEcc, ArccVecc, PageMode
from repro.ecc.base import DecodeStatus
from repro.ecc.lotecc import WORST_CASE_UPGRADE_FACTOR
from repro.experiments.fig7_6 import plan_fig7_6
from repro.faults.lifetime import _fraction_after_events
from repro.faults.types import DEFAULT_FIT_RATES
from repro.fleet.engine import FLEET_BLOCK_CHANNELS, sample_fleet
from repro.runner.executor import execute_plan
from repro.util.stats import sequential_sum
from repro.util.units import HOURS_PER_YEAR


def random_line(seed):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(64))


def with_data(scheme, pages=4):
    """A memory of ``pages`` pages with every fifth line written."""
    memory = scheme(pages=pages)
    payloads = {}
    for line in range(0, pages * 64, 5):
        data = random_line(line)
        memory.write_line(line, data)
        payloads[line] = data
    return memory, payloads


@pytest.mark.parametrize("scheme", [ArccLotEcc, ArccVecc], ids=lambda s: s.__name__)
class TestArccPages:
    """The Section 5.2 policy both schemes share: relaxed pages, scrub,
    upgrade on a fault."""

    def test_roundtrip(self, scheme):
        memory, payloads = with_data(scheme)
        for line, data in payloads.items():
            got, result = memory.read_line(line)
            assert got == data
            assert result.status == DecodeStatus.NO_ERROR

    def test_pages_start_relaxed(self, scheme):
        memory, _ = with_data(scheme)
        assert all(
            memory.mode_of(p) == PageMode.RELAXED_9 for p in range(memory.pages)
        )
        assert memory.fraction_upgraded() == 0.0

    def test_unwritten_line_reads_zero(self, scheme):
        """Reading unwritten memory decodes a zero line: one relaxed read
        of nine devices, and nothing is written."""
        memory = scheme(pages=1)
        got, result = memory.read_line(3)
        assert got == bytes(64)
        assert result.status == DecodeStatus.NO_ERROR
        assert (memory.stats.reads, memory.stats.writes) == (1, 0)
        assert memory.stats.device_accesses == 9
        assert memory.read_line(3)[1].status == DecodeStatus.NO_ERROR

    def test_fault_corrected_then_upgraded(self, scheme):
        memory, payloads = with_data(scheme)
        memory.inject_device_fault(page=0, device=2)
        got, result = memory.read_line(0)
        assert result.status == DecodeStatus.CORRECTED
        assert got == payloads[0]
        assert memory.scrub() == [0]
        assert memory.mode_of(0) == PageMode.UPGRADED_18
        assert memory.stats.pages_upgraded == 1
        assert memory.devices_per_access(0) == 18
        assert memory.devices_per_access(1) == 9

    def test_data_survives_upgrade(self, scheme):
        memory, payloads = with_data(scheme)
        memory.inject_device_fault(page=0, device=2)
        memory.scrub()
        for line, data in payloads.items():
            got, _ = memory.read_line(line)
            assert got == data

    def test_upgrade_keeps_device_faults(self, scheme):
        """The upgraded page is stored on the same devices, so the faulty
        device still corrupts it and a read corrects it again."""
        memory, payloads = with_data(scheme, pages=1)
        memory.inject_device_fault(page=0, device=1)
        memory.scrub()
        got, result = memory.read_line(0)
        assert got == payloads[0]
        assert result.status == DecodeStatus.CORRECTED
        assert set(result.error_positions) == {1}

    def test_reinjecting_a_device_keeps_it_faulty(self, scheme):
        memory, payloads = with_data(scheme, pages=1)
        memory.inject_device_fault(page=0, device=4)
        memory.inject_device_fault(page=0, device=4)
        got, result = memory.read_line(0)
        assert result.status == DecodeStatus.CORRECTED
        assert got == payloads[0]

    def test_fraction_upgraded(self, scheme):
        memory, _ = with_data(scheme)
        memory.inject_device_fault(page=2, device=0)
        memory.scrub()
        assert memory.fraction_upgraded() == pytest.approx(0.25)

    def test_scrub_idempotent(self, scheme):
        memory, _ = with_data(scheme)
        memory.inject_device_fault(page=1, device=0)
        assert memory.scrub() == [1]
        assert memory.scrub() == []

    def test_two_faulty_devices_in_relaxed_page_is_due(self, scheme):
        memory, _ = with_data(scheme, pages=1)
        memory.inject_device_fault(page=0, device=1)
        memory.inject_device_fault(page=0, device=5)
        got, result = memory.read_line(0)
        assert result.status == DecodeStatus.DETECTED_UE
        assert got == bytes(64)
        assert memory.stats.due == 1

    def test_out_of_range_rejected(self, scheme):
        """A page, line or device outside the memory is an error, never a
        fault recorded on nothing. LOT-ECC faults hit one of 16 data
        devices, VECC faults one of 18 rank devices."""
        devices = {ArccLotEcc: 16, ArccVecc: 18}[scheme]
        memory = scheme(pages=1)
        with pytest.raises(ValueError):
            memory.read_line(64)
        with pytest.raises(ValueError, match="page 1 out of range"):
            memory.mode_of(1)
        for page, device in ((1, 0), (5, 0), (-1, 0), (0, devices), (0, 99), (0, -1)):
            with pytest.raises(ValueError, match="out of range"):
                memory.inject_device_fault(page=page, device=device)
        assert memory._faulty_devices == {}
        memory.inject_device_fault(page=0, device=devices - 1)
        assert memory._faulty_devices == {0: [devices - 1]}


class TestArccLotEcc:
    def test_access_cost_asymmetry(self):
        """Relaxed reads: 9 devices. Upgraded reads: 2x18 devices (the
        checksum line costs a second access, Section 5.2). Every write
        costs LOT-ECC's second write."""
        memory, _ = with_data(ArccLotEcc, pages=2)
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

        before = (memory.stats.device_accesses, memory.stats.memory_operations)
        memory.write_line(64, bytes(64))
        memory.write_line(0, bytes(64))
        after = (memory.stats.device_accesses, memory.stats.memory_operations)
        assert (after[0] - before[0], after[1] - before[1]) == (18 + 36, 2 + 2)
        assert memory.stats.slow_path_reads == 0


def _fig7_6_series(years, channels, rate_multiplier, seed=0x107ECC):
    """One Figure 7.6 row: the overhead per year at ``rate_multiplier``."""
    result = execute_plan(
        plan_fig7_6(
            years=years, channels=channels, multipliers=(rate_multiplier,), seed=seed
        )
    )
    return result.overhead[rate_multiplier]


def _per_event_reference(years, channels, rate_multiplier, seed):
    """Figure 7.6 from the scalar union rule, evaluated per channel, per
    mid-step time, per event, on the same sampled fleet."""
    histories = sample_fleet(
        channels,
        float(years),
        rates=DEFAULT_FIT_RATES.scaled(rate_multiplier),
        seed=seed,
    ).to_histories()
    per_step = []
    for step in range(years * 12):
        t_hours = (step + 0.5) / 12 * HOURS_PER_YEAR
        per_step.append(
            sequential_sum(
                _fraction_after_events(
                    [e for e in events if e.time_hours <= t_hours],
                    ARCC_MEMORY_CONFIG,
                )
                for events in histories
            )
        )
    return [
        (WORST_CASE_UPGRADE_FACTOR - 1.0)
        * sequential_sum(per_step[: year * 12])
        / (year * 12 * channels)
        for year in range(1, years + 1)
    ]


class TestLotEccLifetimeOverhead:
    """Figure 7.6's plan: block queries of the faulty fraction at each
    mid-step time, merged across blocks and rate multipliers."""

    def test_monotone_in_time(self):
        series = _fig7_6_series(years=7, channels=200, rate_multiplier=4.0)
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))

    def test_monotone_in_rate(self):
        low = _fig7_6_series(years=7, channels=200, rate_multiplier=1.0)
        high = _fig7_6_series(years=7, channels=200, rate_multiplier=4.0)
        assert high[-1] > low[-1]

    def test_paper_band_at_1x(self):
        """Paper: ~1.6% average overhead over 7 years at 1x."""
        series = _fig7_6_series(years=7, channels=500, rate_multiplier=1.0)
        assert 0.001 < series[-1] < 0.05

    def test_paper_band_at_4x(self):
        """Paper: no more than ~6.3% at 4x."""
        series = _fig7_6_series(years=7, channels=500, rate_multiplier=4.0)
        assert series[-1] < 0.15

    def test_seed_pins_the_fleet(self):
        """One seed, one sampled fleet, one series; another seed draws
        another fleet."""
        kwargs = dict(years=3, channels=300, rate_multiplier=4.0)
        first = _fig7_6_series(seed=5, **kwargs)
        assert _fig7_6_series(seed=5, **kwargs) == first
        assert _fig7_6_series(seed=6, **kwargs) != first

    @pytest.mark.parametrize(
        "rate_multiplier, channels",
        [(1.0, 200), (4.0, 200), (1.0, FLEET_BLOCK_CHANNELS + 1)],
        # The last case is one channel past a block, so the second
        # block's moments merge into the per-step means.
        ids=["1.0", "4.0", "1.0-two-blocks"],
    )
    def test_matches_per_event_reference(self, rate_multiplier, channels):
        """The fleet-engine reduction against the scalar union rule,
        evaluated per channel, per mid-step time, per event."""
        years, seed = 7, 0x107ECC
        reference = _per_event_reference(years, channels, rate_multiplier, seed)
        series = _fig7_6_series(years, channels, rate_multiplier, seed)
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
    def test_access_costs(self):
        """Relaxed: 9 devices per clean read, 18 per slow-path read or
        write. Upgraded: 18 per clean read, 36 per slow-path read or
        write."""
        memory, _ = with_data(ArccVecc, pages=2)
        costs = []
        for op in (
            lambda: memory.write_line(64, bytes(64)),
            lambda: memory.read_line(64),
            lambda: memory.inject_device_fault(page=0, device=1),
            lambda: memory.read_line(0),
            lambda: memory.scrub(),
            lambda: memory.read_line(0),
            lambda: memory.write_line(0, bytes(64)),
            lambda: memory.read_line(1),
        ):
            before = memory.stats.device_accesses
            op()
            costs.append(memory.stats.device_accesses - before)
        assert costs == [18, 9, 0, 18, 0, 36, 36, 18]

    def test_fault_takes_slow_path(self):
        memory, payloads = with_data(ArccVecc)
        memory.inject_device_fault(page=0, device=1)
        got, result = memory.read_line(0)
        assert result.status == DecodeStatus.CORRECTED
        assert got == payloads[0]
        assert memory.stats.slow_path_reads == 1

    def test_write_after_upgrade_uses_full_vecc(self):
        memory, _ = with_data(ArccVecc, pages=1)
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
        """Upgraded VECC corrects two faulty devices on the slow path."""
        memory, payloads = with_data(ArccVecc, pages=1)
        memory.inject_device_fault(page=0, device=1)
        memory.scrub()
        memory.inject_device_fault(page=0, device=6)
        slow = memory.stats.slow_path_reads
        got, result = memory.read_line(0)
        assert result.status == DecodeStatus.CORRECTED
        assert got == payloads[0]
        assert memory.stats.slow_path_reads == slow + 1
