"""Tests for DDR2 timing parameters and the IDD power model."""

import pytest

from repro.dram.power import DevicePowerModel, PowerCounters, RankPowerModel
from repro.dram.timing import (
    DDR2_667_X4,
    DDR2_667_X8,
    MICRON_512MB_X4,
    MICRON_512MB_X8,
    power_params_for_width,
    timings_for_width,
)


class TestTimings:
    def test_trc_composition(self):
        assert DDR2_667_X4.trc_ns == pytest.approx(
            DDR2_667_X4.tras_ns + DDR2_667_X4.trp_ns
        )

    def test_ddr2_667_clock(self):
        assert DDR2_667_X4.tck_ns == pytest.approx(3.0)

    def test_burst_is_double_data_rate(self):
        # BL4 takes 2 clocks at DDR.
        assert DDR2_667_X4.burst_ns == pytest.approx(6.0)

    def test_closed_page_latency(self):
        # tRCD + CL + burst = 15 + 15 + 6 = 36ns.
        t = DDR2_667_X4
        assert t.trcd_ns + t.cas_ns + t.burst_ns == pytest.approx(36.0)

    def test_lookup_by_width(self):
        assert timings_for_width(4) is DDR2_667_X4
        assert timings_for_width(8) is DDR2_667_X8
        with pytest.raises(ValueError):
            timings_for_width(16)

    def test_power_lookup_by_width(self):
        assert power_params_for_width(4) is MICRON_512MB_X4
        assert power_params_for_width(8) is MICRON_512MB_X8
        with pytest.raises(ValueError):
            power_params_for_width(32)

    def test_x8_burns_more_burst_current(self):
        """Wider I/O -> higher IDD4; this is why 18 x8 devices don't save
        a full 50% of dynamic power vs 36 x4."""
        assert MICRON_512MB_X8.idd4r > MICRON_512MB_X4.idd4r


class TestDevicePowerModel:
    def setup_method(self):
        self.model = DevicePowerModel(MICRON_512MB_X4, DDR2_667_X4)

    def test_activate_energy_positive(self):
        assert self.model.energy_per_activate_nj > 0

    def test_read_energy_positive(self):
        assert self.model.energy_per_read_burst_nj > 0

    def test_background_ordering(self):
        """IDD3N > IDD2N > IDD2P: open > standby > power-down."""
        assert (
            self.model.active_standby_w
            > self.model.precharge_standby_w
            > self.model.powerdown_w
            > 0
        )

    def test_activate_energy_formula(self):
        p, t = MICRON_512MB_X4, DDR2_667_X4
        expected = (
            (
                p.idd0 * t.trc_ns
                - p.idd3n * t.tras_ns
                - p.idd2n * (t.trc_ns - t.tras_ns)
            )
            * 1e-3
            * p.vdd
        )
        assert self.model.energy_per_activate_nj == pytest.approx(expected)


class TestRankPowerModel:
    def test_zero_window_power_zero(self):
        model = RankPowerModel(18, MICRON_512MB_X8, DDR2_667_X8)
        assert model.average_power_w(PowerCounters()) == 0.0

    def test_idle_rank_pure_background(self):
        model = RankPowerModel(18, MICRON_512MB_X8, DDR2_667_X8)
        counters = PowerCounters(elapsed_ns=1e6)
        watts = model.average_power_w(counters)
        expected = 18 * model.device_model.precharge_standby_w
        assert watts == pytest.approx(expected)

    def test_powerdown_cheaper_than_standby(self):
        model = RankPowerModel(18, MICRON_512MB_X8, DDR2_667_X8)
        standby = model.average_power_w(PowerCounters(elapsed_ns=1e6))
        sleeping = model.average_power_w(
            PowerCounters(elapsed_ns=1e6, powerdown_ns=1e6)
        )
        assert sleeping < standby

    def test_dynamic_power_scales_with_accesses(self):
        model = RankPowerModel(18, MICRON_512MB_X8, DDR2_667_X8)
        few = PowerCounters(
            activates=100, read_bursts=100, elapsed_ns=1e6
        )
        many = PowerCounters(
            activates=1000, read_bursts=1000, elapsed_ns=1e6
        )
        assert model.average_power_w(many) > model.average_power_w(few)

    @staticmethod
    def _dynamic_w(model, **bursts):
        """Power of 100 closed-page accesses over 1 ms, background removed."""
        busy = PowerCounters(activates=100, elapsed_ns=1e6, **bursts)
        idle = PowerCounters(elapsed_ns=1e6)
        return model.average_power_w(busy) - model.average_power_w(idle)

    def test_access_energy_rank_size_scaling(self):
        """The heart of the paper: 36-device accesses cost about twice
        18-device accesses."""
        arcc = RankPowerModel(18, MICRON_512MB_X8, DDR2_667_X8)
        baseline = RankPowerModel(36, MICRON_512MB_X4, DDR2_667_X4)
        ratio = self._dynamic_w(baseline, read_bursts=100) / self._dynamic_w(
            arcc, read_bursts=100
        )
        assert 1.5 < ratio < 2.2

    def test_write_energy_close_to_read(self):
        model = RankPowerModel(18, MICRON_512MB_X8, DDR2_667_X8)
        read = self._dynamic_w(model, read_bursts=100)
        write = self._dynamic_w(model, write_bursts=100)
        assert abs(read - write) / read < 0.2

    def test_counter_merge(self):
        a = PowerCounters(activates=1, elapsed_ns=10.0, active_ns=5.0)
        b = PowerCounters(activates=2, elapsed_ns=20.0, powerdown_ns=3.0)
        a.merge(b)
        assert a.activates == 3
        assert a.elapsed_ns == 30.0
        assert a.powerdown_ns == 3.0

    def test_standby_never_negative(self):
        c = PowerCounters(elapsed_ns=1.0, active_ns=5.0)
        assert c.standby_ns == 0.0
