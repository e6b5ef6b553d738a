"""Tests for the vectorized fleet-lifetime engine (:mod:`repro.fleet`).

The load-bearing guarantees: the struct-of-arrays batch and the
per-channel event lists are exact converters of each other; per-type
arrival counts sit within Poisson noise of the analytic expectation;
the vectorized reductions match the scalar Python rules on identical
histories; block partitioning makes
results independent of worker count and prefix-stable in population
size; and scenario reports attach confidence intervals to every mean.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.config import ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG
from repro.experiments.fig3_1 import plan_fig3_1
from repro.experiments.fig7_4_7_5 import (
    _overhead_series,
    plan_fig7_4_7_5,
    plan_fig7_4_7_5_measured,
)
from repro.experiments.fig7_6 import plan_fig7_6
from repro.faults.lifetime import FaultEvent, _fraction_after_events
from repro.faults.models import upgraded_page_fraction
from repro.faults.types import DEFAULT_FIT_RATES, FaultType
from repro.fleet.engine import (
    FLEET_BLOCK_CHANNELS,
    EventMoments,
    FractionMatrix,
    FractionMoments,
    OverheadMoments,
    PairScreens,
    block_job,
    faulty_fractions_at,
    fleet_blocks,
    overhead_series_by_year,
    sample_block,
    sample_fleet,
    uncorrectable_candidate_channels,
)
from repro.fleet.events import FaultEventBatch, empty_batch
from repro.fleet.report import plan_fleet
from repro.fleet.scenarios import (
    DEFAULT_SCENARIOS,
    MAX_FLEET_CHANNELS,
    FleetScenario,
    RatePhase,
    SubPopulation,
    resolve_scenario,
)
from repro.runner.executor import execute_plan
from repro.util.fields import FieldError
from repro.util.rng import derive_seed
from repro.util.stats import sequential_sum
from repro.util.units import FIT_TO_PER_HOUR, HOURS_PER_YEAR


class TestFaultEventBatch:
    def test_round_trip_exact(self):
        batch = sample_fleet(300, 7.0, rate_multiplier=8.0, seed=21)
        assert FaultEventBatch.from_histories(batch.to_histories()) == batch

    def test_histories_of_selects_members_in_order(self):
        batch = sample_fleet(40, 7.0, rate_multiplier=60.0, seed=8)
        histories = batch.to_histories()
        members = np.array([7, 0, 33, 7, 12])
        assert batch.histories_of(members) == [histories[m] for m in members]
        assert batch.histories_of(np.array([], dtype=np.int64)) == []

    def test_round_trip_with_empty_channels(self):
        batch = sample_fleet(50, 1.0, rate_multiplier=0.5, seed=3)
        histories = batch.to_histories()
        assert len(histories) == 50
        assert FaultEventBatch.from_histories(histories) == batch

    def test_events_of_matches_histories(self):
        batch = sample_fleet(40, 7.0, rate_multiplier=20.0, seed=5)
        histories = batch.to_histories()
        for member in (0, 17, 39):
            assert batch.events_of(member) == histories[member]

    @pytest.mark.parametrize(
        "batch",
        [
            sample_fleet(60, 7.0, rate_multiplier=0.5, seed=4),
            sample_fleet(40, 7.0, rate_multiplier=20.0, seed=5),
            empty_batch(0),
            empty_batch(3),
        ],
        ids=["sparse", "dense", "no-members", "no-events"],
    )
    def test_converters_build_python_typed_events(self, batch):
        """``to_histories`` is ``events_of`` of every member, its fields
        are Python ``float``/``FaultType``/``int`` (never NumPy scalars),
        and it round-trips exactly."""
        histories = batch.to_histories()
        assert histories == [batch.events_of(m) for m in range(batch.num_channels)]
        for event in (e for events in histories for e in events):
            assert type(event.time_hours) is float
            assert type(event.fault_type) is FaultType
            assert {
                type(getattr(event, name))
                for name in ("channel", "rank", "device", "bank", "row", "column")
            } == {int}
        assert FaultEventBatch.from_histories(histories) == batch

    def test_per_channel_counts(self):
        batch = sample_fleet(64, 7.0, rate_multiplier=10.0, seed=9)
        counts = [len(events) for events in batch.to_histories()]
        assert batch.per_channel.tolist() == counts
        assert batch.num_events == sum(counts)
        assert batch.num_channels == 64

    def test_concat_preserves_members(self):
        a = sample_block(1, 10, 7.0, rate_multiplier=30.0)
        b = sample_block(2, 5, 7.0, rate_multiplier=30.0)
        merged = FaultEventBatch.concat([a, b])
        assert merged.num_channels == 15
        assert merged.to_histories() == a.to_histories() + b.to_histories()

    def test_empty_batch(self):
        batch = empty_batch(7)
        batch.validate()
        assert batch.num_channels == 7
        assert batch.num_events == 0
        assert batch.to_histories() == [[]] * 7

    def test_validate_rejects_bad_offsets(self):
        batch = sample_fleet(20, 7.0, rate_multiplier=30.0, seed=1)
        broken = dataclasses.replace(batch, offsets=batch.offsets[:-1])
        with pytest.raises(ValueError):
            broken.validate()

    def test_validate_accepts_samples(self):
        sample_fleet(100, 7.0, rate_multiplier=10.0, seed=2).validate()

    @staticmethod
    def _break(batch, flaw):
        """``batch`` with one structural flaw."""
        if flaw == "start":
            return dataclasses.replace(batch, offsets=batch.offsets + 1)
        if flaw == "monotone":
            offsets = batch.offsets.copy()
            offsets[1] = offsets[2] + 1
            return dataclasses.replace(batch, offsets=offsets)
        if flaw == "sorted":
            member = int(np.argmax(batch.per_channel >= 2))
            first = int(batch.offsets[member])
            times = batch.time_hours.copy()
            times[first], times[first + 1] = times[first + 1] + 1.0, times[first]
            return dataclasses.replace(batch, time_hours=times)
        type_code = batch.type_code.copy()
        type_code[0] = 99
        return dataclasses.replace(batch, type_code=type_code)

    @pytest.mark.parametrize(
        "flaw, message",
        [
            ("start", "start at 0"),
            ("monotone", "monotone"),
            ("sorted", "sorted within each channel"),
            ("type", "type_code out of range"),
        ],
    )
    def test_validate_names_the_flaw(self, flaw, message):
        batch = sample_fleet(20, 7.0, rate_multiplier=30.0, seed=1)
        assert batch.per_channel.max() >= 2
        with pytest.raises(ValueError, match=message):
            self._break(batch, flaw).validate()

    def test_concat_of_nothing_is_empty(self):
        assert FaultEventBatch.concat([]) == empty_batch(0)

    def test_never_equal_to_other_types(self):
        batch = empty_batch(3)
        assert batch != batch.to_histories()
        assert batch == empty_batch(3) and batch != empty_batch(4)


class TestEngineSampling:
    def test_deterministic(self):
        kwargs = dict(rate_multiplier=4.0, seed=42)
        assert sample_fleet(500, 7.0, **kwargs) == sample_fleet(
            500, 7.0, **kwargs
        )

    @pytest.mark.parametrize("multiplier", [1.0, 2.0, 4.0])
    def test_scaled_rates_sample_the_rate_multiplier_fleet(self, multiplier):
        """The two spellings of a rate multiplier draw the same fleet.

        Figure 3.1 passes ``rate_multiplier=``; the LOT-ECC lifetime
        overhead of Figure 7.6 passes ``rates=DEFAULT_FIT_RATES.scaled(m)``.
        At the Figure 3.1 multipliers both give one population, event
        for event, so the two figures see common random numbers.
        """
        assert sample_fleet(
            300, 7.0, rate_multiplier=multiplier, seed=11
        ) == sample_fleet(
            300, 7.0, rates=DEFAULT_FIT_RATES.scaled(multiplier), seed=11
        )

    def test_per_type_rates_within_poisson_band(self):
        """Per-fault-type arrival counts match the analytic expectation.

        The engine draws superposed Poisson processes, so each fault
        type's population-wide count must sit within Poisson noise of
        ``channels * rate_t * horizon``, with ``rate_t`` the per-device
        FIT rate times the memory system's device count — a dropped
        fault type, a wrong FIT normalization, or a mis-scaled
        multiplier lands far outside the 6-sigma band.
        """
        channels, years, multiplier = 6000, 7.0, 10.0
        batch = sample_fleet(
            channels, years, rate_multiplier=multiplier, seed=29
        )
        config = ARCC_MEMORY_CONFIG
        devices = (
            config.channels * config.ranks_per_channel * config.devices_per_rank
        )
        for code, fault_type in enumerate(FaultType):
            count = int(np.sum(batch.type_code == code))
            expected = (
                DEFAULT_FIT_RATES.fit_of(fault_type)
                * multiplier
                * FIT_TO_PER_HOUR
                * devices
                * years
                * HOURS_PER_YEAR
                * channels
            )
            assert abs(count - expected) <= 6.0 * expected**0.5, fault_type

    def test_block_partition_prefix_stable(self):
        small = fleet_blocks(FLEET_BLOCK_CHANNELS)
        large = fleet_blocks(3 * FLEET_BLOCK_CHANNELS + 5)
        assert large[0] == small[0]
        assert sum(large) == 3 * FLEET_BLOCK_CHANNELS + 5

    def test_population_prefix_stable_across_growth(self):
        """Whole-block growth extends, never reshuffles, early channels.

        Streams are owned by blocks, so prefix stability holds at block
        granularity: a fleet of N full blocks is an exact prefix of any
        larger fleet with the same seed.
        """
        small = sample_fleet(
            FLEET_BLOCK_CHANNELS, 7.0, rate_multiplier=2.0, seed=13
        )
        large = sample_fleet(
            FLEET_BLOCK_CHANNELS + 50, 7.0, rate_multiplier=2.0, seed=13
        )
        assert (
            large.to_histories()[:FLEET_BLOCK_CHANNELS]
            == small.to_histories()
        )

    def test_times_sorted_within_channel_and_in_horizon(self):
        batch = sample_fleet(200, 5.0, rate_multiplier=30.0, seed=3)
        batch.validate()
        assert np.all(batch.time_hours >= 0)
        assert np.all(batch.time_hours <= 5.0 * HOURS_PER_YEAR)

    def test_coordinates_in_config_range(self):
        batch = sample_fleet(200, 7.0, rate_multiplier=30.0, seed=4)
        cfg = ARCC_MEMORY_CONFIG
        assert np.all((batch.channel >= 0) & (batch.channel < cfg.channels))
        assert np.all((batch.rank >= 0) & (batch.rank < cfg.ranks_per_channel))
        assert np.all(
            (batch.device >= 0) & (batch.device < cfg.devices_per_rank)
        )

    def test_rate_multiplier_increases_events(self):
        low = sample_fleet(400, 7.0, rate_multiplier=1.0, seed=5)
        high = sample_fleet(400, 7.0, rate_multiplier=20.0, seed=5)
        assert high.num_events > low.num_events

    def test_burn_in_phase_concentrates_events(self):
        """A 4x burn-in half-year must raise the early arrival density."""
        flat = sample_fleet(3000, 4.0, rate_multiplier=10.0, seed=6)
        burned = sample_fleet(
            3000,
            4.0,
            rate_multiplier=10.0,
            seed=6,
            phases=((0.0, 0.5, 4.0), (0.5, 3.5, 1.0)),
        )
        half_year = 0.5 * HOURS_PER_YEAR
        flat_early = np.mean(flat.time_hours <= half_year)
        burned_early = np.mean(burned.time_hours <= half_year)
        assert burned_early > 2 * flat_early

    def test_zero_rate_phase_produces_no_events(self):
        batch = sample_fleet(
            100, 2.0, seed=8, phases=((0.0, 2.0, 0.0),)
        )
        assert batch.num_events == 0
        assert batch.num_channels == 100


def _hand_batch(histories):
    """A batch from ``(hours, fault type)`` pairs per channel."""
    return FaultEventBatch.from_histories(
        [[FaultEvent(t, ft) for t, ft in events] for events in histories]
    )


def _year_ends(years):
    """The first ``years`` year ends, in hours."""
    return tuple(year * HOURS_PER_YEAR for year in range(1, years + 1))


def _mid_step_hours(step, steps_per_year=12):
    """The sample time of ``step``, computed as the reductions do."""
    return (step + 0.5) / steps_per_year * HOURS_PER_YEAR


def _uncompressed_fractions(batch, hours):
    """The whole-population form of ``faulty_fractions_at``: one
    ``bincount`` over every channel per sample time."""
    out = np.zeros((len(hours), batch.num_channels))
    if batch.num_events == 0:
        return out
    fractions = np.array(
        [upgraded_page_fraction(ft, ARCC_MEMORY_CONFIG) for ft in FaultType]
    )
    with np.errstate(divide="ignore"):
        log_survival = np.log1p(-fractions)[batch.type_code]
    ids = batch.channel_ids()
    for i, t_hours in enumerate(hours):
        mask = batch.time_hours <= t_hours
        log_sum = np.bincount(
            ids[mask], weights=log_survival[mask], minlength=batch.num_channels
        )
        out[i] = -np.expm1(log_sum)
    return out


_CHANNEL_WEIGHTS = {
    FaultType.LANE: 0.38,
    FaultType.DEVICE: 0.16,
    FaultType.BANK: 0.02,
    FaultType.COLUMN: 0.01,
    FaultType.ROW: 0.3,
}

#: Live rows beside all-zero rows, and zero and negative caps.
_CHANNEL_ROWS = [
    (_CHANNEL_WEIGHTS, 1.0),
    ({}, 0.5),
    (_CHANNEL_WEIGHTS, 0.05),
    ({FaultType.LANE: 0.0, FaultType.BANK: 0.0}, 0.2),
    ({FaultType.BANK: 0.02, FaultType.ROW: 0.3}, 0.0),
    (_CHANNEL_WEIGHTS, -0.25),
    ({}, -0.5),
]


def _every_channel_faulty():
    batch = sample_fleet(30, 2.0, rate_multiplier=400.0, seed=4)
    assert np.all(batch.per_channel > 0)
    return batch, 2


def _events_after_report_horizon():
    """Sampled over 7 years, reported over 3, as the policy blocks do."""
    batch = sample_fleet(60, 7.0, rate_multiplier=10.0, seed=9)
    assert np.any(batch.time_hours > 3 * HOURS_PER_YEAR)
    return batch, 3


def _event_at_step_midpoint():
    at = _mid_step_hours(5)
    after = float(np.nextafter(at, np.inf))
    return _hand_batch(
        [
            [],
            [(at, FaultType.BANK), (at, FaultType.ROW)],
            [(0.0, FaultType.COLUMN), (at, FaultType.LANE)],
            [(after, FaultType.DEVICE)],
            [],
        ]
    ), 2


#: (batch, report years) builders, one per layout edge case.
_CHANNEL_CASES = {
    "no events": lambda: (empty_batch(6), 3),
    "every channel faulty": _every_channel_faulty,
    "events after the report horizon": _events_after_report_horizon,
    "event at a step midpoint": _event_at_step_midpoint,
    "one year": lambda: (
        sample_fleet(40, 1.0, rate_multiplier=30.0, seed=2),
        1,
    ),
}


class TestChannelExactness:
    """Each channel of the compressed reductions, byte for byte.

    ``overhead_series_by_year`` steps only over the channels that have an
    arrival and fills the rest from one fault-free column; every channel
    must still equal the scalar ``_overhead_series`` of its own history
    (a one-channel mean is that channel's value), and every entry of
    ``faulty_fractions_at`` the whole-population ``bincount`` form.
    """

    @pytest.mark.parametrize("case", list(_CHANNEL_CASES))
    def test_overhead_equals_each_channels_scalar_series(self, case):
        batch, years = _CHANNEL_CASES[case]()
        matrix = overhead_series_by_year(batch, years, _CHANNEL_ROWS)
        assert matrix.shape == (len(_CHANNEL_ROWS), years, batch.num_channels)
        for channel, events in enumerate(batch.to_histories()):
            for row, (weights, cap) in zip(matrix, _CHANNEL_ROWS):
                legacy = _overhead_series([events], years, weights, cap=cap)
                assert row[:, channel].tolist() == legacy

    @pytest.mark.parametrize("case", list(_CHANNEL_CASES))
    def test_fractions_equal_the_uncompressed_form_bytewise(self, case):
        batch, years = _CHANNEL_CASES[case]()
        hours = [_mid_step_hours(step) for step in range(years * 12)]
        hours += [year * HOURS_PER_YEAR for year in range(years, 0, -1)]
        fast = faulty_fractions_at(batch, hours, ARCC_MEMORY_CONFIG)
        reference = _uncompressed_fractions(batch, hours)
        assert fast.shape == reference.shape
        assert fast.tobytes() == reference.tobytes()


class TestVectorizedReductions:
    def _batch_and_histories(self):
        batch = sample_fleet(250, 7.0, rate_multiplier=8.0, seed=17)
        return batch, batch.to_histories()

    @pytest.mark.parametrize("times", ["year-ends", "mid-steps"])
    def test_fraction_matches_legacy_rule(self, times):
        """Year horizons (Figure 3.1) and the 12-per-year mid-step
        times Figure 7.6 samples."""
        batch, histories = self._batch_and_histories()
        if times == "year-ends":
            matrix = faulty_fractions_at(batch, _year_ends(7), ARCC_MEMORY_CONFIG)
            samples = [(year - 1, year * HOURS_PER_YEAR) for year in (1, 4, 7)]
        else:
            hours = (np.arange(7 * 12) + 0.5) / 12 * HOURS_PER_YEAR
            matrix = faulty_fractions_at(batch, hours, ARCC_MEMORY_CONFIG)
            samples = [(i, hours[i]) for i in (0, 5, 11, 40, 83)]
        for row, horizon in samples:
            legacy = [
                _fraction_after_events(
                    [e for e in events if e.time_hours <= horizon],
                    ARCC_MEMORY_CONFIG,
                )
                for events in histories
            ]
            assert np.allclose(matrix[row], legacy, rtol=1e-9, atol=1e-12)

    def test_fraction_handles_lane_saturation(self):
        """A lane fault (footprint 1.0) must drive the fraction to 1."""
        batch = sample_fleet(50, 7.0, rate_multiplier=300.0, seed=23)
        lane_code = list(FaultType).index(FaultType.LANE)
        has_lane = np.zeros(50, dtype=bool)
        ids = batch.channel_ids()
        has_lane_events = batch.type_code == lane_code
        has_lane[np.unique(ids[has_lane_events])] = True
        matrix = faulty_fractions_at(batch, _year_ends(7), ARCC_MEMORY_CONFIG)
        assert has_lane.any()
        assert np.all(matrix[-1][has_lane] == pytest.approx(1.0))

    def test_overhead_matches_legacy_rule(self):
        """Rows sharing one accumulation pass never touch each other:
        each equals the scalar rule bit for bit when its channels are
        summed in the scalar rule's order."""
        batch, histories = self._batch_and_histories()
        per_fault = {
            FaultType.LANE: 0.38,
            FaultType.DEVICE: 0.16,
            FaultType.BANK: 0.02,
            FaultType.COLUMN: 0.01,
        }
        rows = [(per_fault, cap) for cap in (1.0, 0.5, 0.05)]
        rows += [({FaultType.ROW: 0.3, FaultType.BANK: 0.02}, 0.05), ({}, 0.5)]
        matrix = overhead_series_by_year(batch, 7, rows)
        assert matrix.shape == (len(rows), 7, batch.num_channels)
        for row, (weights, cap) in zip(matrix, rows):
            legacy = _overhead_series(histories, 7, weights, cap=cap)
            assert [
                sequential_sum(year) / batch.num_channels for year in row
            ] == legacy

    @pytest.mark.parametrize("years", range(1, 8))
    def test_legacy_series_equals_per_year_accumulation(self, years):
        """``_overhead_series`` accumulates each channel once and reads
        off each year's running sum: exactly (``==``) the floats of the
        loop that re-accumulated every year's prefix from step 0."""

        def prefix_per_year(histories, years, per_fault, cap, steps_per_year=12):
            series = []
            channels = len(histories)
            for year in range(1, years + 1):
                samples = year * steps_per_year
                total = 0.0
                for events in histories:
                    acc = 0.0
                    for step in range(samples):
                        t_hours = (step + 0.5) / steps_per_year * HOURS_PER_YEAR
                        overhead = sum(
                            per_fault.get(e.fault_type, 0.0)
                            for e in events
                            if e.time_hours <= t_hours
                        )
                        acc += min(overhead, cap)
                    total += acc / samples
                series.append(total / channels)
            return series

        histories = sample_fleet(
            40, float(years), rate_multiplier=12.0, seed=100 + years
        ).to_histories()
        assert any(histories)
        rng = np.random.default_rng(years)
        weights = {
            ft: float(w)
            for ft, w in zip(FaultType, rng.uniform(0.0, 0.4, len(FaultType)))
        }
        for cap in (1.0, 0.5, 0.05, 0.3 + years / 10):
            assert _overhead_series(
                histories, years, weights, cap
            ) == prefix_per_year(histories, years, weights, cap)

    def test_timeseries_matches_scalar_reduction(self):
        """The Figure 3.1 series equals the per-channel scalar oracle.

        ``plan_fig3_1`` reduces the sampled fleet block by block in
        array form; ``_fraction_after_events`` over the same fleet's
        per-channel histories, counting events up to each year end, must
        give the same per-year means to rounding.
        """
        years, channels, multiplier, seed = 7, 4000, 4.0, 13
        series = execute_plan(
            plan_fig3_1(
                years=years,
                channels=channels,
                multipliers=(multiplier,),
                seed=seed,
            )
        ).series[multiplier]
        histories = sample_fleet(
            channels, float(years), rate_multiplier=multiplier, seed=seed
        ).to_histories()
        assert len(series) == years
        for year, value in enumerate(series, start=1):
            horizon = year * HOURS_PER_YEAR
            expected = np.mean(
                [
                    _fraction_after_events(
                        [e for e in events if e.time_hours <= horizon],
                        ARCC_MEMORY_CONFIG,
                    )
                    for events in histories
                ]
            )
            assert value > 0.0
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0), year


class TestBlockJob:
    """``block_job`` samples a block once and answers every reduction
    on it: asking for several gives each one's bytes alone."""

    ROWS = (
        ({FaultType.LANE: 0.38, FaultType.DEVICE: 0.16}, 1.0),
        ({FaultType.BANK: 0.02, FaultType.COLUMN: 0.01}, 0.05),
        ({}, 0.5),
    )

    def _reductions(self, years):
        return (
            FractionMoments(_year_ends(years)),
            FractionMatrix(_year_ends(years)),
            OverheadMoments(self.ROWS, tuple(range(1, years + 1))),
            PairScreens((24.0, 2_000.0)),
            EventMoments(),
        )

    @pytest.mark.parametrize(
        "sampling",
        [
            dict(years=7.0, rate_multiplier=40.0),
            dict(
                years=5.0,
                rate_multiplier=60.0,
                phases=((0.0, 1.0, 3.0), (1.0, 4.0, 1.0)),
                spatial={"kind": "multi-row-cluster", "fraction": 0.8},
            ),
        ],
        ids=["constant", "phased-spatial"],
    )
    def test_each_answer_equals_asking_for_it_alone(self, sampling):
        reductions = self._reductions(int(sampling["years"]))
        together = block_job(11, 0, 300, reductions=reductions, **sampling)
        assert len(together) == len(reductions)
        for reduction, answer in zip(reductions, together):
            (alone,) = block_job(11, 0, 300, reductions=(reduction,), **sampling)
            assert pickle.dumps(answer) == pickle.dumps(alone)

    def test_answers_are_the_engine_reductions(self):
        fraction_moments, matrix, overheads, screens, events = block_job(
            5, 3, 200, 7.0, self._reductions(7), rate_multiplier=40.0
        )
        batch = sample_block(derive_seed(5, 3), 200, 7.0, rate_multiplier=40.0)
        fractions = faulty_fractions_at(batch, _year_ends(7))
        assert np.array_equal(matrix, fractions)
        assert fraction_moments[0] == fractions.sum(axis=1).tolist()
        series = overhead_series_by_year(batch, 7, self.ROWS)
        assert np.shape(overheads) == (2, len(self.ROWS), 7)
        assert overheads[1] == np.square(series).sum(axis=-1).tolist()
        # A final-year query reduces that year alone, to the same floats.
        (final,) = block_job(
            5, 3, 200, 7.0, (OverheadMoments(self.ROWS, (7,)),), rate_multiplier=40.0
        )
        assert final == [[row[-1:] for row in moments] for moments in overheads]
        counts = batch.per_channel.astype(float)
        assert events == [
            [counts.sum(), float((counts > 0).sum())],
            [np.square(counts).sum(), float((counts > 0).sum())],
        ]
        assert screens == [
            int(uncorrectable_candidate_channels(batch, window).sum())
            for window in (24.0, 2_000.0)
        ]

    def test_block_without_events_gives_fault_free_values(self):
        years = 3
        fraction_moments, matrix, overheads, screens, events = block_job(
            9, 0, 50, float(years), self._reductions(years), rate_multiplier=0.0
        )
        # A batch with no events at all: +0.0 everywhere, as
        # faulty_fractions_at documents.
        assert matrix.shape == (years, 50)
        assert np.all(matrix == 0.0) and not np.signbit(matrix).any()
        assert not np.signbit(fraction_moments).any()
        assert np.all(np.array(fraction_moments) == 0.0)
        assert np.all(np.array(overheads) == 0.0)
        assert screens == [0, 0]
        assert events == [[0.0, 0.0], [0.0, 0.0]]


class TestScenarios:
    def test_builtin_scenarios_valid(self):
        for scenario in DEFAULT_SCENARIOS.values():
            assert scenario.total_channels > 0
            assert scenario.max_years >= 1

    def test_resolve_by_name_and_object(self):
        steady = DEFAULT_SCENARIOS["steady"]
        assert resolve_scenario("steady") is steady
        assert resolve_scenario(steady) is steady
        with pytest.raises(KeyError):
            resolve_scenario("no-such-scenario")

    def test_scaled_to_preserves_proportions(self):
        scenario = DEFAULT_SCENARIOS["mixed-generations"]
        scaled = scenario.scaled_to(2000)
        assert scaled.total_channels == pytest.approx(2000, abs=2)
        originals = [p.channels for p in scenario.populations]
        rescaled = [p.channels for p in scaled.populations]
        for orig, new in zip(originals, rescaled):
            assert new == pytest.approx(
                orig * 2000 / scenario.total_channels, abs=1
            )

    def test_phases_cover_lifespan(self):
        pop = SubPopulation(
            name="bathtub",
            channels=10,
            lifespan_years=7.0,
            schedule=(RatePhase(duration_years=0.5, multiplier=4.0),),
        )
        phases = pop.phases()
        assert phases[0] == (0.0, 0.5, 4.0)
        assert phases[-1] == (0.5, 6.5, 1.0)
        assert sum(duration for _, duration, _ in phases) == pytest.approx(7.0)

    def test_schedule_longer_than_lifespan_clipped(self):
        pop = SubPopulation(
            name="clipped",
            channels=10,
            lifespan_years=2.0,
            schedule=(RatePhase(duration_years=5.0, multiplier=3.0),),
        )
        assert pop.phases() == [(0.0, 2.0, 3.0)]

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SubPopulation(name="x", channels=0)
        with pytest.raises(ValueError):
            SubPopulation(name="x", channels=1, rate_multiplier=0.0)
        with pytest.raises(ValueError):
            RatePhase(duration_years=0.0, multiplier=1.0)
        with pytest.raises(ValueError):
            FleetScenario(name="x", description="", populations=())
        with pytest.raises(ValueError):
            FleetScenario(
                name="x",
                description="",
                populations=(
                    SubPopulation(name="dup", channels=1),
                    SubPopulation(name="dup", channels=1),
                ),
            )


class TestFleetReport:
    @pytest.fixture(scope="class")
    def report(self):
        return execute_plan(
            plan_fleet("mixed-generations", channels=1500, seed=0xBEEF)
        )

    def test_slices_and_aggregate(self, report):
        assert [s.name for s in report.subpopulations] == [
            "arcc-new",
            "arcc-midlife",
            "legacy-x4",
        ]
        assert report.total_channels == pytest.approx(1500, abs=2)
        assert len(report.fleet_by_year) == report.years

    def test_confidence_intervals_attached(self, report):
        for sub in report.subpopulations:
            assert len(sub.faulty_fraction) == sub.years
            for mean, half in sub.faulty_fraction:
                assert 0.0 <= mean <= 1.0
                assert half >= 0.0
            assert sub.events_per_channel[1] >= 0.0
            assert 0.0 <= sub.affected_fraction[0] <= 1.0

    def test_harsher_slices_fault_more(self, report):
        new, midlife, legacy = report.subpopulations
        assert legacy.faulty_fraction[0][0] > new.faulty_fraction[0][0]

    def test_in_service_channels_shrink(self, report):
        in_service = [channels for _, _, channels in report.fleet_by_year]
        assert in_service[0] == report.total_channels
        assert in_service[-1] < in_service[0]
        assert sorted(in_service, reverse=True) == in_service

    def test_table_renders(self, report):
        table = report.to_table()
        assert "mixed-generations" in table
        assert "±" in table
        assert "fleet (in service)" in table

    def test_jobs_1_vs_4_identical(self):
        a = execute_plan(
            plan_fleet("harsh-environment", channels=600, seed=1),
            max_workers=1,
        )
        b = execute_plan(
            plan_fleet("harsh-environment", channels=600, seed=1),
            max_workers=4,
        )
        assert a.fleet_by_year == b.fleet_by_year
        assert [vars(s) for s in a.subpopulations] == [
            vars(s) for s in b.subpopulations
        ]

    def test_sub_year_lifespan_reports_one_row(self):
        """A slice living under a year still gets a year-1 row (and the
        fleet table still renders)."""
        scenario = FleetScenario(
            name="short-lived",
            description="burn-in test rigs retired after six months",
            populations=(
                SubPopulation(
                    name="rigs",
                    channels=200,
                    rate_multiplier=4.0,
                    lifespan_years=0.5,
                ),
            ),
        )
        report = execute_plan(plan_fleet(scenario))
        assert report.years == 1
        assert report.subpopulations[0].years == 1
        assert len(report.fleet_by_year) == 1
        assert "Year 1" in report.to_table()

    def test_heterogeneous_configs_supported(self):
        scenario = FleetScenario(
            name="tiny-mixed",
            description="one slice per memory organization",
            populations=(
                SubPopulation(
                    name="arcc", channels=50, config=ARCC_MEMORY_CONFIG
                ),
                SubPopulation(
                    name="baseline",
                    channels=50,
                    config=BASELINE_MEMORY_CONFIG,
                    rate_multiplier=4.0,
                ),
            ),
        )
        report = execute_plan(plan_fleet(scenario))
        assert report.scenario == "tiny-mixed"
        assert len(report.subpopulations) == 2


class TestFigureIntegration:
    def test_fig3_1_carries_confidence_intervals(self):
        result = execute_plan(plan_fig3_1(years=3, channels=150))
        assert result.ci is not None
        for mult, halves in result.ci.items():
            assert len(halves) == 3
            assert all(h >= 0 for h in halves)
        assert "±" in result.to_table()

    @pytest.mark.parametrize("multiplier", [1.0, 4.0])
    def test_fig3_1_series_independent_of_companion_multipliers(
        self, multiplier
    ):
        """A multiplier's series is the same alone or in a sweep: every
        multiplier samples the same block streams, so adding 1x/2x/4x
        neighbours to a plan changes none of its series."""
        swept = execute_plan(
            plan_fig3_1(years=3, channels=120, multipliers=(1.0, 2.0, 4.0))
        )
        alone = execute_plan(
            plan_fig3_1(years=3, channels=120, multipliers=(multiplier,))
        )
        assert swept.series[multiplier] == alone.series[multiplier]
        assert swept.ci[multiplier] == alone.ci[multiplier]

    def test_fig7_4_7_5_carries_confidence_intervals(self):
        result = execute_plan(plan_fig7_4_7_5(years=3, channels=150))
        assert result.power_ci is not None
        assert result.performance_ci is not None
        for mult in (1.0, 2.0, 4.0):
            assert len(result.power_ci[mult]) == 3
            assert all(h >= 0 for h in result.power_ci[mult])
        assert "±" in result.to_table()

    _BUILDS = pytest.mark.parametrize(
        "build",
        [plan_fig3_1, plan_fig7_4_7_5, plan_fig7_6, plan_fig7_4_7_5_measured],
        ids=["fig3.1", "fig7.4", "fig7.6", "fig7.4-measured"],
    )

    @_BUILDS
    @pytest.mark.parametrize("channels", [0, -5, MAX_FLEET_CHANNELS + 1])
    def test_empty_population_rejected_at_build_time(self, build, channels):
        """Assembly needs at least one sampled channel, so a figure
        planner names ``channels`` instead of failing at assembly (or
        printing ``nan%``); a population past the fleet cap is refused
        the same way."""
        with pytest.raises(FieldError, match="channels: must be (>= 1|<= )"):
            build(years=3, channels=channels)

    @_BUILDS
    def test_empty_sweep_rejected_at_build_time(self, build):
        """A figure with no rate multiplier has no population to plan."""
        with pytest.raises(FieldError, match="multipliers: must not be empty"):
            build(years=3, channels=10, multipliers=())

    def test_empty_population_partitions_into_no_blocks(self):
        """Figure 6.1's quick scale samples no Monte-Carlo channels."""
        assert fleet_blocks(0) == []

    def test_registry_exposes_fleet(self):
        from repro.runner.registry import FIGURES, build_plans

        assert "fleet" in FIGURES
        (plan,) = build_plans(["fleet"], quick=True)
        assert plan.name == "fleet"
        assert plan.jobs


class TestFleetCLI:
    def test_list_scenarios(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--list"]) == 0
        out = capsys.readouterr().out
        for name in DEFAULT_SCENARIOS:
            assert name in out

    def test_sweep_one_scenario(self, capsys):
        from repro.cli import main

        assert main(["fleet", "steady", "--channels", "200"]) == 0
        out = capsys.readouterr().out
        assert "Fleet scenario 'steady'" in out
        assert "[repro fleet] 1 scenario(s), 200 channels" in out

    def test_unknown_scenario_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["fleet", "definitely-not-a-scenario"])
