"""Tests for the sensitivity-study module."""

import pytest

from repro.experiments.sensitivity import (
    sweep_page_size,
    sweep_scrub_interval,
    sweep_upgraded_fraction,
)
from repro.faults.types import FaultType
from repro.util.units import KB


class TestScrubIntervalSweep:
    def test_sdc_monotone_in_interval(self):
        sweep = sweep_scrub_interval()
        hours = sorted(sweep.points)
        sdcs = [sweep.points[h][0] for h in hours]
        assert sdcs == sorted(sdcs)

    def test_bandwidth_monotone_decreasing(self):
        sweep = sweep_scrub_interval()
        hours = sorted(sweep.points)
        bws = [sweep.points[h][1] for h in hours]
        assert bws == sorted(bws, reverse=True)

    def test_paper_interval_is_affordable(self):
        """The 4h default sits inside the <0.1%-bandwidth region."""
        sweep = sweep_scrub_interval()
        assert sweep.knee_hours() >= 4.0

    def test_knee_budget_unreachable_raises(self):
        sweep = sweep_scrub_interval(intervals_hours=(0.001,))
        with pytest.raises(ValueError):
            sweep.knee_hours()

    def test_table_renders(self):
        assert "scrub interval" in sweep_scrub_interval().to_table()


class TestPageSizeSweep:
    def test_row_fraction_scales_with_page_size(self):
        sweep = sweep_page_size()
        small = sweep.fractions[2 * KB][FaultType.ROW]
        large = sweep.fractions[16 * KB][FaultType.ROW]
        assert large > small

    def test_rank_level_fractions_unchanged(self):
        """Device/lane fractions are rank-geometry facts, independent of
        page size — small pages cannot help against big faults."""
        sweep = sweep_page_size()
        for page_bytes in sweep.fractions:
            assert sweep.fractions[page_bytes][FaultType.LANE] == 1.0
            assert sweep.fractions[page_bytes][FaultType.DEVICE] == 0.5

    def test_upgrade_cost_scales_linearly(self):
        sweep = sweep_page_size()
        assert sweep.upgrade_lines[8 * KB] == 2 * sweep.upgrade_lines[4 * KB]

    def test_table_renders(self):
        assert "page size" in sweep_page_size().to_table()


class TestUpgradedFractionSweep:
    def test_extremes(self):
        curve = sweep_upgraded_fraction()
        assert curve.points[0.0] == (1.0, 1.0)
        assert curve.points[1.0] == (2.0, 0.5)

    def test_crossover_for_full_saving(self):
        """With ~37% fault-free saving, worst-case power parity with the
        baseline is crossed somewhere above half the memory upgraded —
        i.e. only rank-scale faults can ever erase the benefit."""
        curve = sweep_upgraded_fraction(
            fractions=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        )
        assert curve.crossover_fraction(1.58) >= 0.5

    def test_crossover_unreachable_raises(self):
        curve = sweep_upgraded_fraction(fractions=(0.5,))
        with pytest.raises(ValueError):
            curve.crossover_fraction(1.0)

    def test_table_renders(self):
        assert "Upgraded fraction" in sweep_upgraded_fraction().to_table()


class TestMeasuredFractionSweep:
    """The batched-engine measured upgraded-fraction sweep."""

    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.experiments.sensitivity import (
            plan_sweep_upgraded_fraction_measured,
        )
        from repro.runner import execute_plan
        from repro.workloads.spec import ALL_MIXES

        return execute_plan(
            plan_sweep_upgraded_fraction_measured(
                mixes=ALL_MIXES[:3],
                fractions=(0.0, 0.25, 1.0),
                instructions_per_core=8_000,
            )
        )

    def test_zero_point_is_unity(self, sweep):
        for mix in sweep.mixes():
            assert sweep.ratios[(mix, 0.0)] == (1.0, 1.0)

    def test_power_monotone_in_fraction(self, sweep):
        """More upgraded pages can only cost more power on average."""
        averages = [
            sweep.average_power_ratio(f) for f in sweep.fractions
        ]
        assert averages == sorted(averages)

    def test_measured_below_worst_case(self, sweep):
        """Spatial locality keeps the measured curve under 1 + f."""
        from repro.perf.simulator import worst_case_power_ratio

        for f in sweep.fractions:
            assert (
                worst_case_power_ratio(f) - sweep.average_power_ratio(f)
                >= -1e-9
            )

    def test_table_renders(self, sweep):
        table = sweep.to_table()
        assert "measured vs worst case" in table
        assert "1.000" in table

    def test_requires_zero_point(self):
        from repro.experiments.sensitivity import (
            plan_sweep_upgraded_fraction_measured,
        )

        with pytest.raises(ValueError):
            plan_sweep_upgraded_fraction_measured(fractions=(0.5, 1.0))

    def test_plan_shares_table_7_4_points_with_fig7_2(self):
        """Default grid contains every Table 7.4 fraction (cache reuse)."""
        from repro.experiments.sensitivity import DEFAULT_MEASURED_FRACTIONS
        from repro.faults.models import TABLE_7_4_TYPES, upgraded_page_fraction

        for fault_type in TABLE_7_4_TYPES:
            assert upgraded_page_fraction(fault_type) in (
                DEFAULT_MEASURED_FRACTIONS
            )
