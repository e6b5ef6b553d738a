"""Vectorized Monte-Carlo engine: equivalence and consistency checks.

The segmented verdict pass must make *bit-identical policy decisions*
to the exact per-fault event loops, channel for channel on drawn
histories and in total on identical sampled faults (``exact_pairs=True``
routes the candidate channels through the event loops). The segmented
all-pairs pass must list exactly the per-segment upper-triangle pairs,
and the exact mode's >=3-fault screen must send exactly the channels a
scalar footprint walk picks to the event loops. The batched
sampler's per-type fault counts must sit within Poisson noise of the
analytic expectation, and its output is a valid fleet
``FaultEventBatch``. Golden counts pin the population plan's outcome.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.lifetime import FaultEvent
from repro.faults.types import DEVICE_LEVEL_TYPES
from repro.fleet.engine import fleet_blocks
from repro.fleet.events import FAULT_TYPE_ORDER, FaultEventBatch
from repro.reliability import footprint, montecarlo
from repro.reliability.analytical import ReliabilityParams
from repro.reliability.footprint import (
    any_pair_per_segment,
    footprint_intersects,
    footprint_pairs_intersect,
    segment_pairs,
)
from repro.reliability.montecarlo import (
    BLOCK_CHANNELS,
    _sample_batch,
    _sccdcd_outcome,
    _undetected_pair,
    channel_verdicts,
    plan_montecarlo,
    simulate_block,
)
from repro.runner.executor import execute_plan
from repro.util.units import HOURS_PER_YEAR


def _outcome_tuple(outcome):
    return (
        outcome.sdc_machines_arcc,
        outcome.sdc_machines_sccdcd,
        outcome.due_machines_sccdcd,
        outcome.due_machines_sparing,
    )


class TestPairwiseFastPathEquivalence:
    @pytest.mark.parametrize(
        "multiplier,seed,channels",
        [
            (4.0, 11, 2000),
            (80.0, 12, 800),
            (400.0, 13, 300),
            (1500.0, 14, 100),
        ],
    )
    def test_bit_identical_to_event_loop(self, multiplier, seed, channels):
        params = ReliabilityParams(rate_multiplier=multiplier)
        fast, exact = (
            execute_plan(
                plan_montecarlo(
                    params, channels, 7.0, seed=seed, exact_pairs=exact_pairs
                )
            )
            for exact_pairs in (False, True)
        )
        assert _outcome_tuple(fast) == _outcome_tuple(exact)


class TestVectorizedIntersection:
    def test_matches_scalar_rule_on_random_faults(self):
        """Vector rule == scalar rule, fault pair by fault pair."""
        params = ReliabilityParams(rate_multiplier=3000.0)
        rng = np.random.Generator(np.random.PCG64(99))
        batch = _sample_batch(params, rng, channels=4, years=7.0)
        faults = [f for events in batch.to_histories() for f in events]
        left, right, _ = segment_pairs(batch.offsets[:-1], batch.per_channel)
        got = footprint_pairs_intersect(batch, left, right)
        expected = [footprint_intersects(faults[i], faults[j]) for i, j in zip(left, right)]
        assert len(expected) > 1000
        assert got.tolist() == expected

    def test_sampled_coordinates_in_range(self):
        params = ReliabilityParams(rate_multiplier=500.0)
        rng = np.random.Generator(np.random.PCG64(7))
        batch = _sample_batch(params, rng, channels=16, years=7.0)
        assert batch.time_hours.min() >= 0.0
        assert batch.rank.max() < params.ranks
        assert batch.device.max() < params.devices_per_rank
        assert batch.bank.max() < params.banks
        assert batch.row.max() < params.rows
        assert batch.column.max() < params.columns
        assert set(np.unique(batch.channel)) == {0}

    def test_batch_is_a_valid_fleet_batch_of_device_level_faults(self):
        """The sampler speaks the fleet format: the batch validates and
        its type codes, in FAULT_TYPE_ORDER coding, are all device-level."""
        params = ReliabilityParams(rate_multiplier=500.0)
        rng = np.random.Generator(np.random.PCG64(9))
        batch = _sample_batch(params, rng, channels=64, years=7.0)
        batch.validate()
        assert set(batch.fault_types()) == set(DEVICE_LEVEL_TYPES)
        empty = _sample_batch(
            ReliabilityParams(rate_multiplier=1e-6), rng, channels=3, years=1.0
        )
        empty.validate()
        assert (empty.num_channels, empty.num_events) == (3, 0)

    def test_times_sorted_within_channels(self):
        params = ReliabilityParams(rate_multiplier=500.0)
        rng = np.random.Generator(np.random.PCG64(8))
        batch = _sample_batch(params, rng, channels=16, years=7.0)
        for channel in range(16):
            start = int(batch.offsets[channel])
            stop = int(batch.offsets[channel + 1])
            times = batch.time_hours[start:stop]
            assert np.all(np.diff(times) >= 0)


_SEGMENTS = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 9)), max_size=12
)


def _per_segment_pairs(segments):
    """The reference: one upper-triangle index call per segment."""
    left, right, segment = [], [], []
    for s, (start, length) in enumerate(segments):
        i, j = np.triu_indices(length, k=1)
        left.extend((start + i).tolist())
        right.extend((start + j).tolist())
        segment.extend([s] * len(i))
    return left, right, segment


class TestSegmentPairs:
    @settings(max_examples=200, deadline=None)
    @given(_SEGMENTS)
    def test_matches_per_segment_upper_triangle(self, segments):
        starts = np.array([start for start, _ in segments], dtype=np.int64)
        lengths = np.array([length for _, length in segments], dtype=np.int64)
        left, right, segment = segment_pairs(starts, lengths)
        assert (left.tolist(), right.tolist(), segment.tolist()) == (
            _per_segment_pairs(segments)
        )

    @settings(max_examples=100, deadline=None)
    @given(_SEGMENTS, st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_chunked_pass_matches_one_pass(self, segments, budget, seed):
        """A pair budget smaller than one segment's pairs still gives
        every segment's answer: chunking never splits a segment."""
        starts = np.array([start for start, _ in segments], dtype=np.int64)
        lengths = np.array([length for _, length in segments], dtype=np.int64)
        flags = np.random.default_rng(seed).random(10_010) < 0.05

        def test(left, right):
            return flags[left] & flags[right]

        expected = [
            any(flags[a] and flags[b] for a, b in zip(*_per_segment_pairs([seg])[:2]))
            for seg in segments
        ]
        assert any_pair_per_segment(starts, lengths, test).tolist() == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(footprint, "_MAX_SEGMENT_PAIRS", budget)
            chunked = any_pair_per_segment(starts, lengths, test)
        assert chunked.tolist() == expected


@st.composite
def _dense_histories(draw):
    """Per-channel fault histories on a tiny geometry, so most faults
    intersect: 1-2 ranks, 1-3 devices and banks, rows and columns 1-4,
    2-12 faults per channel. Times sit on a half-interval grid (equal
    arrivals, arrivals exactly on a scrub boundary) or anywhere."""
    interval = draw(st.sampled_from((1.0, 2.0, 4.0)))
    ranks, devices, banks, rows, columns = (
        draw(st.integers(1, top)) for top in (2, 3, 3, 4, 4)
    )
    time = st.one_of(
        st.integers(0, 12).map(lambda half: half * interval / 2),
        st.floats(0.0, 6.0 * interval),
    )
    fault = st.builds(
        FaultEvent,
        time,
        st.sampled_from(DEVICE_LEVEL_TYPES),
        st.just(0),
        st.integers(0, ranks - 1),
        st.integers(0, devices - 1),
        st.integers(0, banks - 1),
        st.integers(0, rows - 1),
        st.integers(0, columns - 1),
    )
    members = draw(
        st.lists(st.lists(fault, min_size=2, max_size=12), min_size=1, max_size=6)
    )
    histories = [sorted(faults, key=lambda f: f.time_hours) for faults in members]
    return histories, interval


class TestChannelVerdicts:
    """The segmented pass against the event loops, channel for channel:
    totals alone would let two compensating errors cancel."""

    @settings(max_examples=300, deadline=None)
    @given(_dense_histories())
    def test_matches_event_loops_per_channel(self, drawn):
        histories, interval = drawn
        batch = FaultEventBatch.from_histories(histories)
        verdicts = [a.tolist() for a in channel_verdicts(batch, interval)]
        outcomes = [_sccdcd_outcome(h, interval) for h in histories]
        assert verdicts == [
            [_undetected_pair(h, interval) for h in histories],
            [due for due, _ in outcomes],
            [sdc for _, sdc in outcomes],
        ]
        for budget in (1, 3, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(footprint, "_MAX_SEGMENT_PAIRS", budget)
                chunked = [a.tolist() for a in channel_verdicts(batch, interval)]
            assert chunked == verdicts, budget

    def test_members_without_a_pair_decide_nothing(self):
        histories = [[], [FaultEvent(1.0, DEVICE_LEVEL_TYPES[-1])], []]
        batch = FaultEventBatch.from_histories(histories)
        assert [a.tolist() for a in channel_verdicts(batch, 2.0)] == [
            [False] * 3
        ] * 3


class TestCandidateScreen:
    """The exact mode's >=3-fault screen sends exactly the right channels
    to the exact event loops.

    The ``exact_pairs=True`` totals and the ``montecarlo`` fuzz oracle
    both go through the screen, so neither can catch a wrong candidate
    mask; this compares it with a scalar ``footprint_intersects`` walk.
    """

    @pytest.mark.parametrize(
        "multiplier,seed,channels",
        [(10.0, 21, 2000), (20.0, 22, 1500), (40.0, 23, 800), (80.0, 24, 600)],
    )
    def test_candidates_match_scalar_walk(
        self, monkeypatch, multiplier, seed, channels
    ):
        batches, decided = [], []
        sample = montecarlo._sample_batch

        def capture(*args):
            batches.append(sample(*args))
            return batches[-1]

        def record(faults, interval, outcome):
            if len(faults) >= 3:
                decided.append(tuple(f.time_hours for f in faults))

        monkeypatch.setattr(montecarlo, "_sample_batch", capture)
        monkeypatch.setattr(montecarlo, "_decide_channel", record)
        simulate_block(
            ReliabilityParams(rate_multiplier=multiplier),
            seed,
            0,
            channels,
            7.0,
            exact_pairs=True,
        )

        (batch,) = batches
        expected, screened_out = [], 0
        for channel in np.flatnonzero(batch.per_channel >= 3):
            faults = batch.events_of(int(channel))
            if any(
                footprint_intersects(a, b)
                for i, a in enumerate(faults)
                for b in faults[i + 1 :]
            ):
                expected.append(tuple(f.time_hours for f in faults))
            else:
                screened_out += 1
        assert expected and screened_out, "scenario exercises both sides"
        assert decided == expected


#: Golden outcome of a small, dense population: every multi-fault path
#: (every verdict of the segmented pass; in exact mode the >=3-fault
#: screen and all three event loops) fires.
GOLDEN_PARAMS = ReliabilityParams(
    rate_multiplier=300.0, scrub_interval_hours=48.0, rows=256, columns=256
)
GOLDEN = (585, 36, 4964, 585)


class TestPlanMonteCarlo:
    @pytest.mark.parametrize("exact_pairs", [False, True])
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_golden_counts(self, exact_pairs, max_workers):
        plan = plan_montecarlo(
            GOLDEN_PARAMS, 5000, 7.0, seed=0x5DC, exact_pairs=exact_pairs
        )
        outcome = execute_plan(plan, max_workers=max_workers)
        assert _outcome_tuple(outcome) == GOLDEN
        assert (outcome.channels, outcome.years) == (5000, 7.0)

    def test_figure_6_1_registry_point(self):
        """4x rates, 20k channels, 7 years: the ``repro run fig6.1`` point."""
        plan = plan_montecarlo(ReliabilityParams(rate_multiplier=4.0), 20_000, 7.0)
        assert _outcome_tuple(execute_plan(plan)) == (1, 0, 481, 1)

    def test_one_job_per_fleet_block_summed_at_assembly(self):
        params = ReliabilityParams(rate_multiplier=100.0)
        plan = plan_montecarlo(params, 2 * BLOCK_CHANNELS + 17, 7.0, seed=5)
        blocks = fleet_blocks(2 * BLOCK_CHANNELS + 17, BLOCK_CHANNELS)
        assert [
            (job.kwargs["seed"], job.kwargs["index"], job.kwargs["channels"])
            for job in plan.jobs
        ] == [(5, index, size) for index, size in enumerate(blocks)]
        partials = [job.execute() for job in plan.jobs]
        outcome = plan.assemble(partials)
        assert outcome.channels == 2 * BLOCK_CHANNELS + 17
        assert _outcome_tuple(outcome) == tuple(
            sum(counts) for counts in zip(*map(_outcome_tuple, partials))
        )

    def test_zero_channels_is_an_empty_plan(self):
        plan = plan_montecarlo(GOLDEN_PARAMS, 0, 7.0)
        assert plan.jobs == []
        assert _outcome_tuple(plan.assemble([])) == (0, 0, 0, 0)

    @pytest.mark.parametrize(
        "channels,years,argument",
        [
            (-1, 7.0, "channels"),
            (10, 0.0, "years"),
            (10, -1.0, "years"),
            (10, float("nan"), "years"),
        ],
    )
    def test_bad_inputs_fail_at_build(self, channels, years, argument):
        with pytest.raises(ValueError, match=argument):
            plan_montecarlo(GOLDEN_PARAMS, channels, years)


class TestSamplerRates:
    def test_per_type_counts_within_poisson_band(self):
        """Each device-level type's count matches its Poisson mean.

        Every channel draws ``Poisson(rate * devices * horizon)`` faults
        of each type, so the block total must sit within 6 sigma of
        ``channels`` times that mean — a dropped type, a wrong device
        count or a mis-scaled rate lands far outside the band.
        """
        params = ReliabilityParams(rate_multiplier=200.0)
        channels, years = 2000, 7.0
        rng = np.random.Generator(np.random.PCG64(21))
        batch = _sample_batch(params, rng, channels, years)
        horizon = years * HOURS_PER_YEAR
        for fault_type in DEVICE_LEVEL_TYPES:
            code = FAULT_TYPE_ORDER.index(fault_type)
            expected = (
                params.device_rate_per_hour(fault_type)
                * params.total_devices
                * horizon
                * channels
            )
            count = int(np.count_nonzero(batch.type_code == code))
            assert expected > 0.0, fault_type
            assert abs(count - expected) <= 6.0 * expected**0.5, fault_type
