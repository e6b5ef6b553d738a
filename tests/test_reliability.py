"""Tests for the Chapter 6 reliability models (analytical + Monte Carlo)."""

import pytest

from repro.experiments.fig6_1 import plan_fig6_1
from repro.experiments.fig7_6 import plan_fig7_6
from repro.faults.lifetime import FaultEvent
from repro.faults.types import (
    DEFAULT_FIT_RATES,
    DEVICE_LEVEL_TYPES,
    FaultRates,
    FaultType,
)
from repro.fleet.policies import plan_fleet_compare, slice_reliability_params
from repro.fleet.scenarios import resolve_scenario
from repro.reliability import analytical
from repro.reliability.analytical import (
    ReliabilityParams,
    _peers,
    expected_sdc_arcc,
    expected_sdc_sccdcd,
    overlap_probability,
    sdc_events_per_1000_machine_years,
    sdc_rate_arcc_ded,
)
from repro.reliability.due import (
    DEFAULT_REPAIR_HOURS,
    chipkill_vs_secded_due_factor,
    due_rate_sccdcd,
    due_rate_sparing,
    due_reduction_factor,
)
from repro.reliability.footprint import footprint_intersects
from repro.reliability.montecarlo import plan_montecarlo
from repro.runner.cache import ResultCache
from repro.runner.executor import execute_plan
from repro.util.units import HOURS_PER_YEAR


class TestOverlapProbability:
    def setup_method(self):
        self.params = ReliabilityParams()

    def test_device_overlaps_everything(self):
        for other in FaultType:
            if other == FaultType.BIT:
                continue
            assert overlap_probability(
                FaultType.DEVICE, other, self.params
            ) == 1.0

    def test_lane_overlaps_everything(self):
        assert overlap_probability(
            FaultType.LANE, FaultType.ROW, self.params
        ) == 1.0

    def test_row_row(self):
        assert overlap_probability(
            FaultType.ROW, FaultType.ROW, self.params
        ) == pytest.approx(1.0 / (8 * 16384))

    def test_column_column(self):
        assert overlap_probability(
            FaultType.COLUMN, FaultType.COLUMN, self.params
        ) == pytest.approx(1.0 / (8 * 2048))

    def test_row_column_cross_in_same_bank(self):
        assert overlap_probability(
            FaultType.ROW, FaultType.COLUMN, self.params
        ) == pytest.approx(1.0 / 8)

    def test_symmetric(self):
        for a in FaultType:
            for b in FaultType:
                if FaultType.BIT in (a, b):
                    continue
                assert overlap_probability(
                    a, b, self.params
                ) == overlap_probability(b, a, self.params)


class TestAnalyticalSdc:
    def test_arcc_rate_positive(self):
        assert sdc_rate_arcc_ded(ReliabilityParams()) > 0

    def test_arcc_scales_quadratically_with_rate(self):
        """Two faults must race one scrub: rate goes as multiplier^2."""
        base = sdc_rate_arcc_ded(ReliabilityParams(rate_multiplier=1.0))
        quad = sdc_rate_arcc_ded(ReliabilityParams(rate_multiplier=2.0))
        assert quad == pytest.approx(4 * base, rel=1e-6)

    def test_sccdcd_scales_cubically(self):
        base = expected_sdc_sccdcd(
            ReliabilityParams(rate_multiplier=1.0), 7.0
        )
        cubed = expected_sdc_sccdcd(
            ReliabilityParams(rate_multiplier=2.0), 7.0
        )
        assert cubed == pytest.approx(8 * base, rel=1e-6)

    def test_arcc_linear_in_scrub_interval(self):
        short = sdc_rate_arcc_ded(
            ReliabilityParams(scrub_interval_hours=1.0)
        )
        long = sdc_rate_arcc_ded(
            ReliabilityParams(scrub_interval_hours=8.0)
        )
        assert long == pytest.approx(8 * short, rel=1e-6)

    def test_sccdcd_below_arcc(self):
        """The trade: ARCC admits more SDCs than always-on DED."""
        params = ReliabilityParams(rate_multiplier=4.0)
        sccdcd, arcc = sdc_events_per_1000_machine_years(7.0, params)
        assert sccdcd < arcc

    def test_both_insignificant(self):
        """...but both are far below one event per 1000 machine-years,
        which is the paper's point."""
        params = ReliabilityParams(rate_multiplier=4.0)
        sccdcd, arcc = sdc_events_per_1000_machine_years(7.0, params)
        assert arcc < 0.01
        assert sccdcd < 0.001

    def test_expected_arcc_linear_in_lifespan(self):
        params = ReliabilityParams()
        assert expected_sdc_arcc(params, 6.0) == pytest.approx(
            2 * expected_sdc_arcc(params, 3.0)
        )

    def test_invalid_lifespan_rejected(self):
        with pytest.raises(ValueError):
            sdc_events_per_1000_machine_years(0.0, ReliabilityParams())


def _reference_pair_rate(params, window):
    """The pair sum as first written: every type, a fresh product."""
    rate = 0.0
    for a in DEVICE_LEVEL_TYPES:
        lam_a = params.device_rate_per_hour(a) * params.total_devices
        if lam_a == 0.0:
            continue
        for b in DEVICE_LEVEL_TYPES:
            lam_b = params.device_rate_per_hour(b)
            if lam_b == 0.0:
                continue
            rate += (
                lam_a
                * _peers(a, params)
                * lam_b
                * window
                * overlap_probability(a, b, params)
            )
    return rate


def _reference_sdc_sccdcd(params, lifespan_years):
    """The triple sum as first written: every type, a fresh product."""
    hours = lifespan_years * HOURS_PER_YEAR
    window = params.scrub_interval_hours / 2.0
    expected = 0.0
    for a in DEVICE_LEVEL_TYPES:
        lam_a = params.device_rate_per_hour(a) * params.total_devices
        if lam_a == 0.0:
            continue
        peers = _peers(a, params)
        for b in DEVICE_LEVEL_TYPES:
            lam_b = params.device_rate_per_hour(b)
            if lam_b == 0.0:
                continue
            for c in DEVICE_LEVEL_TYPES:
                lam_c = params.device_rate_per_hour(c)
                if lam_c == 0.0:
                    continue
                expected += (
                    lam_a
                    * (hours * hours / 2.0)
                    * peers
                    * lam_b
                    * overlap_probability(a, b, params)
                    * max(peers - 1, 1)
                    * lam_c
                    * window
                    * overlap_probability(a, c, params)
                )
    return expected


_SPARSE_RATES = FaultRates(
    bit=0.0, row=8.2, column=0.0, bank=10.0, device=0.0, lane=2.4
)


class TestSumsMatchReference:
    """The sums over per-call tables return the very floats of the
    original loops (exact ``==``, not approx)."""

    @pytest.mark.parametrize("multiplier", [1.0, 2.0, 4.0, 0.37])
    @pytest.mark.parametrize("rates", [DEFAULT_FIT_RATES, _SPARSE_RATES],
                             ids=["default", "zero-entries"])
    def test_pair_sums(self, multiplier, rates):
        params = ReliabilityParams(rate_multiplier=multiplier, rates=rates)
        scrub = params.scrub_interval_hours / 2.0
        assert sdc_rate_arcc_ded(params) == _reference_pair_rate(params, scrub)
        assert due_rate_sparing(params) == _reference_pair_rate(params, scrub)
        assert due_rate_sccdcd(params) == _reference_pair_rate(
            params, DEFAULT_REPAIR_HOURS / 2.0
        )

    @pytest.mark.parametrize("lifespan", [1.0, 3.0, 7.0])
    @pytest.mark.parametrize("multiplier", [1.0, 2.0, 4.0, 0.37])
    @pytest.mark.parametrize("rates", [DEFAULT_FIT_RATES, _SPARSE_RATES],
                             ids=["default", "zero-entries"])
    def test_triple_sum(self, lifespan, multiplier, rates):
        params = ReliabilityParams(rate_multiplier=multiplier, rates=rates)
        assert expected_sdc_sccdcd(params, lifespan) == _reference_sdc_sccdcd(
            params, lifespan
        )

    def test_lane_only_rates(self):
        """One live type: the tables hold a single pair."""
        rates = FaultRates(bit=0.0, row=0.0, column=0.0, bank=0.0,
                           device=0.0, lane=2.4)
        params = ReliabilityParams(rates=rates)
        assert expected_sdc_sccdcd(params, 7.0) == _reference_sdc_sccdcd(params, 7.0)
        assert sdc_rate_arcc_ded(params) == _reference_pair_rate(
            params, params.scrub_interval_hours / 2.0
        )


class TestPairTablesPerAssembly:
    """Each Chapter 6 assembly tabulates each distinct parameter set
    once, however many sums read it; the run before the counted one
    fills the cache, so the counted one is a warm pass: every job a hit,
    only the assembly computing. A memo that outlived its call would
    leave the warm pass nothing to build, and fail these counts too."""

    @staticmethod
    def _warm_builds(monkeypatch, tmp_path, build):
        execute_plan(build(), cache=ResultCache(str(tmp_path)))
        built = []
        original = analytical._pair_tables

        def counted(params):
            built.append(params)
            return original(params)

        monkeypatch.setattr(analytical, "_pair_tables", counted)
        cache = ResultCache(str(tmp_path))
        execute_plan(build(), cache=cache)
        cache.close()
        return built

    def test_fig6_1_one_build_per_multiplier(self, monkeypatch, tmp_path):
        """Nine cells of two sums each: 18 builds before, 3 now."""
        built = self._warm_builds(monkeypatch, tmp_path, plan_fig6_1)
        assert built == [
            ReliabilityParams(rate_multiplier=mult) for mult in (1.0, 2.0, 4.0)
        ]

    def test_fig7_6_one_build(self, monkeypatch, tmp_path):
        """The DUE reduction's two rates share one build (2 before)."""
        built = self._warm_builds(
            monkeypatch, tmp_path, lambda: plan_fig7_6(channels=40)
        )
        assert built == [ReliabilityParams()]

    def test_fleet_compare_one_build_per_slice_params(
        self, monkeypatch, tmp_path
    ):
        """Every policy's SDC and DUE sums on a slice share its build:
        three policies x three slices x two sums were 18 builds; the
        mixed-generations slices have 3 distinct parameter sets."""
        scenario = resolve_scenario("mixed-generations").scaled_to(300)
        built = self._warm_builds(
            monkeypatch, tmp_path, lambda: plan_fleet_compare(scenario)
        )
        distinct = {slice_reliability_params(pop) for pop in scenario.populations}
        assert len(built) == len(set(built)) == len(distinct) == 3
        assert set(built) == distinct

    def test_shared_memo_gives_the_same_floats(self):
        tables = {}
        for mult in (1.0, 2.0, 0.37):
            params = ReliabilityParams(rate_multiplier=mult)
            for years in (1.0, 7.0):
                assert sdc_events_per_1000_machine_years(
                    years, params, tables
                ) == sdc_events_per_1000_machine_years(years, params)
            assert due_rate_sccdcd(params, tables=tables) == due_rate_sccdcd(
                params
            )
            assert due_rate_sparing(params, tables) == due_rate_sparing(params)
        assert len(tables) == 3


class TestDueRates:
    def test_sparing_far_below_sccdcd(self):
        params = ReliabilityParams()
        assert due_rate_sparing(params) < due_rate_sccdcd(params)

    def test_reduction_exceeds_cited_17x(self):
        """Section 5.2 cites a 17x DUE reduction; the scrub-vs-repair
        window ratio gives at least that."""
        assert due_reduction_factor(ReliabilityParams()) >= 17.0

    @pytest.mark.parametrize(
        "factor", [due_reduction_factor, chipkill_vs_secded_due_factor]
    )
    def test_factor_of_fault_free_memory_rejected(self, factor):
        """With no device-level faults there is no DUE to divide by."""
        bits_only = FaultRates(
            bit=10.0, row=0.0, column=0.0, bank=0.0, device=0.0, lane=0.0
        )
        with pytest.raises(ValueError, match="DUE rate is zero"):
            factor(ReliabilityParams(rates=bits_only))

    def test_reduction_tracks_repair_window(self):
        params = ReliabilityParams()
        week = due_reduction_factor(params, repair_hours=168.0)
        month = due_reduction_factor(params, repair_hours=720.0)
        assert month == pytest.approx(week * 720.0 / 168.0, rel=1e-6)


class TestFootprintIntersection:
    def _fault(
        self, fault_type, channel=0, rank=0, device=0, bank=0, row=0, column=0
    ):
        return FaultEvent(
            time_hours=0.0,
            fault_type=fault_type,
            channel=channel,
            rank=rank,
            device=device,
            bank=bank,
            row=row,
            column=column,
        )

    def test_different_channel_never_intersects(self):
        a = self._fault(FaultType.LANE, channel=0)
        b = self._fault(FaultType.DEVICE, channel=1, device=5)
        assert not footprint_intersects(a, b)
        assert footprint_intersects(a, self._fault(FaultType.DEVICE, device=5))

    def test_same_device_never_intersects(self):
        a = self._fault(FaultType.DEVICE, device=3)
        b = self._fault(FaultType.ROW, device=3)
        assert not footprint_intersects(a, b)

    def test_different_rank_no_intersection(self):
        a = self._fault(FaultType.DEVICE, rank=0)
        b = self._fault(FaultType.DEVICE, rank=1, device=1)
        assert not footprint_intersects(a, b)

    def test_lane_crosses_ranks(self):
        a = self._fault(FaultType.LANE, rank=0)
        b = self._fault(FaultType.DEVICE, rank=1, device=5)
        assert footprint_intersects(a, b)

    def test_rows_need_same_bank_and_row(self):
        a = self._fault(FaultType.ROW, device=0, bank=2, row=7)
        same = self._fault(FaultType.ROW, device=1, bank=2, row=7)
        other_row = self._fault(FaultType.ROW, device=1, bank=2, row=8)
        other_bank = self._fault(FaultType.ROW, device=1, bank=3, row=7)
        assert footprint_intersects(a, same)
        assert not footprint_intersects(a, other_row)
        assert not footprint_intersects(a, other_bank)

    def test_row_column_cross(self):
        a = self._fault(FaultType.ROW, device=0, bank=1, row=5)
        b = self._fault(FaultType.COLUMN, device=1, bank=1, column=99)
        assert footprint_intersects(a, b)


def _run(params, channels, years, seed):
    return execute_plan(plan_montecarlo(params, channels, years, seed=seed))


class TestMonteCarlo:
    def test_no_failures_at_tiny_rates(self):
        outcome = _run(ReliabilityParams(rate_multiplier=0.01), 50, 1.0, seed=1)
        assert outcome.sdc_machines_arcc == 0
        assert outcome.sdc_machines_sccdcd == 0

    def test_elevated_rates_produce_due_and_order(self):
        """At strongly elevated rates the ordering must hold: sparing DUEs
        <= SCCDCD DUEs, and ARCC SDCs >= SCCDCD SDCs."""
        outcome = _run(ReliabilityParams(rate_multiplier=400.0), 150, 7.0, seed=2)
        assert outcome.due_machines_sccdcd >= outcome.due_machines_sparing
        assert outcome.sdc_machines_arcc >= outcome.sdc_machines_sccdcd
        assert outcome.due_machines_sccdcd > 0  # rates high enough to see

    def test_per_1000_machine_years_scaling(self):
        outcome = _run(ReliabilityParams(), 10, 5.0, seed=3)
        assert outcome.per_1000_machine_years(5) == pytest.approx(
            5 * 1000.0 / 50.0
        )

    def test_empty_population_rejected(self):
        outcome = _run(ReliabilityParams(), 0, 1.0, seed=4)
        with pytest.raises(ValueError):
            outcome.per_1000_machine_years(0)

    def test_deterministic(self):
        params = ReliabilityParams(rate_multiplier=200.0)
        a = _run(params, 50, 3.0, seed=5)
        b = _run(params, 50, 3.0, seed=5)
        assert a.sdc_machines_arcc == b.sdc_machines_arcc
        assert a.due_machines_sccdcd == b.due_machines_sccdcd


class TestFig61MonteCarloInputs:
    """Bad cross-check inputs fail when the plan is built, before any job."""

    def test_zero_years_rejected(self):
        with pytest.raises(ValueError, match="years"):
            plan_fig6_1(monte_carlo_channels=100, monte_carlo_years=0.0)

    def test_negative_years_rejected(self):
        with pytest.raises(ValueError, match="years"):
            plan_fig6_1(monte_carlo_channels=100, monte_carlo_years=-1.0)

    def test_negative_channels_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            plan_fig6_1(monte_carlo_channels=-100)

    def test_zero_channels_turns_the_cross_check_off(self):
        plan = plan_fig6_1(lifespans=(7,), monte_carlo_channels=0)
        assert plan.jobs == []
        assert execute_plan(plan).monte_carlo is None
