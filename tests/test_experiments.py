"""Tests for the experiment harness (every table and figure)."""

import pytest

from repro.experiments import (
    plan_fig3_1,
    plan_fig6_1,
    plan_fig7_1,
    plan_fig7_2_7_3,
    plan_fig7_4_7_5,
    plan_fig7_6,
    render_table_7_1,
    render_table_7_2,
    render_table_7_3,
    render_table_7_4,
)
from repro.experiments.fig7_4_7_5 import FALLBACK_OVERHEADS
from repro.faults.types import FaultType
from repro.runner import execute_plan
from repro.workloads.spec import ALL_MIXES


class TestTables:
    def test_table_7_1_rows(self):
        table = render_table_7_1()
        assert "Baseline-SCCDCD" in table and "ARCC" in table
        assert "36" in table and "18" in table

    def test_table_7_2_microarchitecture(self):
        table = render_table_7_2()
        assert "72FP/72INT" in table
        assert "240" in table  # MSHRs

    def test_table_7_3_all_mixes(self):
        table = render_table_7_3()
        for i in range(1, 13):
            assert f"Mix{i}" in table
        assert "mesa;leslie3d;GemsFDTD;fma3d" in table

    def test_table_7_4_fractions(self):
        table = render_table_7_4()
        assert "lane" in table and "1" in table
        assert "0.0625" in table and "0.03125" in table


class TestFig31:
    def test_structure_and_shape(self):
        result = execute_plan(plan_fig3_1(years=5, channels=150))
        assert set(result.series) == {1.0, 2.0, 4.0}
        for series in result.series.values():
            assert len(series) == 5
            assert all(b >= a for a, b in zip(series, series[1:]))
        assert result.final_fraction(4.0) >= result.final_fraction(1.0)

    def test_table_renders(self):
        result = execute_plan(plan_fig3_1(years=3, channels=50))
        assert "Year 3" in result.to_table()


class TestFig61:
    def test_analytical_cells(self):
        result = execute_plan(
            plan_fig6_1(lifespans=(5, 7), multipliers=(1.0, 4.0))
        )
        assert len(result.cells) == 4
        for (years, mult), (sccdcd, arcc) in result.cells.items():
            assert arcc >= sccdcd >= 0
        assert result.arcc_increase(7, 4.0) > result.arcc_increase(7, 1.0)

    def test_insignificant_increase(self):
        """The Figure 6.1 claim."""
        result = execute_plan(plan_fig6_1())
        for (_, _), (sccdcd, arcc) in result.cells.items():
            assert arcc < 0.01  # events per 1000 machine-years

    def test_monte_carlo_attached(self):
        result = execute_plan(
            plan_fig6_1(
                lifespans=(7,),
                multipliers=(1.0, 4.0),
                monte_carlo_channels=20,
                monte_carlo_years=3.0,
            )
        )
        assert result.monte_carlo is not None
        assert 4.0 in result.monte_carlo
        assert "Monte-Carlo" in result.to_table()


class TestFig71:
    @pytest.fixture(scope="class")
    def result(self):
        return execute_plan(
            plan_fig7_1(mixes=ALL_MIXES[:3], instructions_per_core=8_000)
        )

    def test_rows_match_mixes(self, result):
        assert [r.mix_name for r in result.rows] == [
            "Mix1", "Mix2", "Mix3",
        ]

    def test_power_savings_band(self, result):
        """Every mix should save roughly a third of DRAM power."""
        for row in result.rows:
            assert 0.2 < row.power_saving < 0.55

    def test_average_power_saving_near_paper(self, result):
        assert 0.25 < result.average_power_saving < 0.50

    def test_performance_not_degraded(self, result):
        assert result.average_performance_gain > -0.02

    def test_table_renders(self, result):
        table = result.to_table()
        assert "Average" in table and "Mix1" in table


class TestFig7273:
    @pytest.fixture(scope="class")
    def result(self):
        return execute_plan(
            plan_fig7_2_7_3(mixes=ALL_MIXES[:2], instructions_per_core=8_000)
        )

    def test_power_ordering(self, result):
        """Figure 7.2: lane > device > bank >= column overhead."""
        overheads = result.overheads()
        lane = overheads[FaultType.LANE][0]
        device = overheads[FaultType.DEVICE][0]
        bank = overheads[FaultType.BANK][0]
        column = overheads[FaultType.COLUMN][0]
        assert lane > device > bank >= column >= 1.0 - 1e-6

    def test_power_below_worst_case(self, result):
        """Spatial locality keeps measured power under 1 + fraction."""
        assert result.overheads()[FaultType.LANE][0] < 2.0
        assert result.overheads()[FaultType.DEVICE][0] < 1.5

    def test_performance_near_unity(self, result):
        """Figure 7.3: negligible average degradation."""
        for _, performance in result.overheads().values():
            assert 0.90 < performance < 1.15

    def test_table_contains_worst_case_row(self, result):
        assert "worst case est." in result.to_table()


class TestFig7475:
    def test_structure(self):
        result = execute_plan(plan_fig7_4_7_5(years=5, channels=150))
        for mapping in (
            result.power_overhead,
            result.performance_overhead,
            result.worst_case_power,
            result.worst_case_performance,
        ):
            assert set(mapping) == {1.0, 2.0, 4.0}
            for series in mapping.values():
                assert len(series) == 5

    def test_measured_below_worst_case(self):
        result = execute_plan(plan_fig7_4_7_5(years=5, channels=150))
        for mult in (1.0, 4.0):
            for measured, worst in zip(
                result.power_overhead[mult], result.worst_case_power[mult]
            ):
                assert measured <= worst + 1e-9

    def test_power_benefit_retained(self):
        """Paper: even at 4x after 7 years the overhead stays small
        enough that ARCC keeps >= 30% of its ~37% saving."""
        result = execute_plan(plan_fig7_4_7_5(years=7, channels=300))
        assert result.power_overhead[4.0][-1] < 0.07

    def test_custom_overheads_accepted(self):
        bigger = {
            ft: (p + 0.1, s) for ft, (p, s) in FALLBACK_OVERHEADS.items()
        }
        small = execute_plan(plan_fig7_4_7_5(years=3, channels=100))
        large = execute_plan(
            plan_fig7_4_7_5(years=3, channels=100, overheads=bigger)
        )
        assert large.power_overhead[4.0][-1] > (
            small.power_overhead[4.0][-1]
        )

    def test_table_renders(self):
        result = execute_plan(plan_fig7_4_7_5(years=3, channels=50))
        table = result.to_table()
        assert "Figure 7.4" in table and "Figure 7.5" in table


class TestFig76:
    def test_shape_and_bands(self):
        result = execute_plan(plan_fig7_6(years=7, channels=400))
        assert result.average_overhead(1.0) < 0.05  # paper: ~1.6%
        assert result.average_overhead(4.0) < 0.15  # paper: <= 6.3%
        assert result.average_overhead(4.0) > result.average_overhead(1.0)

    def test_due_reduction_at_least_17x(self):
        result = execute_plan(plan_fig7_6(years=3, channels=50))
        assert result.due_reduction >= 17.0

    def test_table_renders(self):
        result = execute_plan(plan_fig7_6(years=3, channels=50))
        assert "17x" in result.to_table()
