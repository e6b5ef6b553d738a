"""Tests for the fault taxonomy, Table 7.4 model, injector and lifetime MC."""

import pytest

from repro.config import ARCC_MEMORY_CONFIG
from repro.dram.device import DRAMDevice
from repro.experiments.fig3_1 import plan_fig3_1
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    TABLE_7_4_TYPES,
    pages_per_rank,
    upgraded_page_fraction,
)
from repro.faults.types import DEFAULT_FIT_RATES, FaultType
from repro.fleet.engine import sample_fleet
from repro.runner import execute_plan
from repro.util.fields import FieldError
from repro.util.rng import make_rng


class TestFaultRates:
    def test_scaling(self):
        doubled = DEFAULT_FIT_RATES.scaled(2.0)
        assert doubled.bit == pytest.approx(2 * DEFAULT_FIT_RATES.bit)
        assert doubled.lane == pytest.approx(2 * DEFAULT_FIT_RATES.lane)

    def test_invalid_multiplier(self):
        with pytest.raises(ValueError):
            DEFAULT_FIT_RATES.scaled(0.0)

    @pytest.mark.parametrize(
        "multiplier, shown",
        [
            (float("nan"), "must be finite, got nan"),
            (float("inf"), "must be finite, got inf"),
            (0, "must be > 0, got 0"),
            (0.0, "must be > 0, got 0"),
            (-2.0, "must be > 0, got -2"),
        ],
        ids=["nan", "inf", "zero", "zero-float", "negative"],
    )
    def test_bad_multiplier_is_named(self, multiplier, shown):
        """The error names the multiplier, not the first scaled rate."""
        with pytest.raises(FieldError) as raised:
            DEFAULT_FIT_RATES.scaled(multiplier)
        assert str(raised.value) == f"multiplier: {shown}"

    def test_fit_of_every_type(self):
        for fault_type in FaultType:
            assert DEFAULT_FIT_RATES.fit_of(fault_type) > 0

    def test_small_faults_dominate_counts(self):
        """Field-study shape: bit faults are the most common."""
        assert DEFAULT_FIT_RATES.bit > DEFAULT_FIT_RATES.device
        assert DEFAULT_FIT_RATES.bit > DEFAULT_FIT_RATES.lane


class TestTable74:
    def test_lane_upgrades_everything(self):
        assert upgraded_page_fraction(FaultType.LANE) == 1.0

    def test_device_upgrades_half(self):
        assert upgraded_page_fraction(FaultType.DEVICE) == 0.5

    def test_bank_fraction(self):
        assert upgraded_page_fraction(FaultType.BANK) == pytest.approx(
            1.0 / 16
        )

    def test_column_fraction(self):
        assert upgraded_page_fraction(FaultType.COLUMN) == pytest.approx(
            1.0 / 32
        )

    def test_row_and_bit_tiny(self):
        assert upgraded_page_fraction(FaultType.ROW) < 1e-4
        assert upgraded_page_fraction(FaultType.BIT) < 1e-4

    def test_ordering_matches_paper(self):
        fractions = [
            upgraded_page_fraction(ft) for ft in TABLE_7_4_TYPES
        ]
        assert fractions == sorted(fractions, reverse=True)

    def test_pages_per_rank_positive(self):
        assert pages_per_rank(ARCC_MEMORY_CONFIG) > 0

    def test_row_fault_upgrades_the_pages_of_one_row(self):
        """A row holds ``pages_per_row`` pages; a bit fault touches one."""
        cfg = ARCC_MEMORY_CONFIG
        bit = upgraded_page_fraction(FaultType.BIT)
        assert bit == pytest.approx(
            1.0 / (cfg.ranks_per_channel * pages_per_rank(cfg))
        )
        assert upgraded_page_fraction(FaultType.ROW) == pytest.approx(
            cfg.pages_per_row * bit
        )

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            upgraded_page_fraction("device")


class TestInjector:
    def _ranks(self):
        return [
            [DRAMDevice(width=8, rows=32, columns=32) for _ in range(18)]
            for _ in range(2)
        ]

    def test_device_fault_hits_one_device(self):
        ranks = self._ranks()
        FaultInjector(make_rng(0)).inject(FaultType.DEVICE, ranks, 0, 3)
        assert ranks[0][3].is_faulty
        assert not ranks[0][4].is_faulty
        assert not ranks[1][3].is_faulty

    def test_lane_fault_hits_all_ranks(self):
        """Table 7.4: a lane fault affects both ranks of the channel."""
        ranks = self._ranks()
        FaultInjector(make_rng(1)).inject(FaultType.LANE, ranks, 0, 7)
        assert ranks[0][7].is_faulty
        assert ranks[1][7].is_faulty

    def test_each_type_injects(self):
        for i, fault_type in enumerate(FaultType):
            ranks = self._ranks()
            injector = FaultInjector(make_rng(i))
            overlays = injector.inject(fault_type, ranks, 1, 5)
            assert overlays
            assert injector.injected

    def test_injections_are_logged(self):
        injector = FaultInjector(make_rng(3))
        injector.inject(FaultType.DEVICE, self._ranks(), 1, 5)
        injector.inject(FaultType.BIT, self._ranks(), 0, 17)
        assert injector.injected == ["device@r1d5", "single-bit@r0d17"]

    def test_unknown_type_rejected(self):
        ranks = self._ranks()
        with pytest.raises(ValueError):
            FaultInjector(make_rng(4)).inject("device", ranks, 0, 0)
        assert not any(dev.is_faulty for rank in ranks for dev in rank)

    def test_bank_fault_scoped_to_bank(self):
        ranks = self._ranks()
        FaultInjector(make_rng(2)).inject(FaultType.BANK, ranks, 0, 0)
        dev = ranks[0][0]
        faulty_banks = set()
        for bank in range(dev.banks):
            original = dev.read_true(bank, 0, 0)
            if dev.read(bank, 0, 0) != original or any(
                f.matches(bank, r, c)
                for f in dev.faults
                for r in (0,)
                for c in (0,)
            ):
                faulty_banks.add(bank)
        assert len(faulty_banks) == 1


def _histories(channels, rate_multiplier=1.0, seed=0xFA117):
    """Seven-year per-channel fault histories of a sampled population."""
    return sample_fleet(
        channels, 7.0, rate_multiplier=rate_multiplier, seed=seed
    ).to_histories()


def _fig3_1_series(years, multiplier, channels=400, seed=13):
    result = execute_plan(
        plan_fig3_1(
            years=years,
            channels=channels,
            multipliers=(multiplier,),
            seed=seed,
        )
    )
    return result.series[multiplier]


class TestLifetimeHistories:
    def test_deterministic(self):
        a = _histories(5, seed=11)
        b = _histories(5, seed=11)
        assert [
            [(e.time_hours, e.fault_type) for e in ch] for ch in a
        ] == [[(e.time_hours, e.fault_type) for e in ch] for ch in b]

    def test_events_sorted_and_in_horizon(self):
        histories = _histories(20, rate_multiplier=50.0, seed=3)
        assert any(histories)
        for events in histories:
            times = [e.time_hours for e in events]
            assert times == sorted(times)
            assert all(0 <= t <= 7 * 8760 for t in times)

    def test_rate_multiplier_increases_events(self):
        n_low = sum(len(ch) for ch in _histories(200, 1.0, seed=5))
        n_high = sum(len(ch) for ch in _histories(200, 20.0, seed=5))
        assert n_high > n_low

    def test_event_fields_in_range(self):
        histories = _histories(20, rate_multiplier=50.0, seed=7)
        events = [e for ch in histories for e in ch]
        assert events
        for event in events:
            assert 0 <= event.channel < ARCC_MEMORY_CONFIG.channels
            assert 0 <= event.rank < ARCC_MEMORY_CONFIG.ranks_per_channel
            assert 0 <= event.device < ARCC_MEMORY_CONFIG.devices_per_rank


class TestFig31Shape:
    """The Chapter 3 motivation numbers."""

    def test_fraction_monotone_in_time(self):
        series = _fig3_1_series(years=7, multiplier=4.0)
        assert all(b >= a for a, b in zip(series, series[1:]))

    def test_fraction_monotone_in_rate(self):
        low = _fig3_1_series(years=5, multiplier=1.0)
        high = _fig3_1_series(years=5, multiplier=4.0)
        assert high[-1] > low[-1]

    def test_only_a_few_percent_at_4x(self):
        """The paper's headline: a few percent even at 4x after 7 years."""
        series = _fig3_1_series(years=7, multiplier=4.0)
        assert 0.005 < series[-1] < 0.20

    def test_tiny_at_1x(self):
        series = _fig3_1_series(years=7, multiplier=1.0)
        assert series[-1] < 0.06
