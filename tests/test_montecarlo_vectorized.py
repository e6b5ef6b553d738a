"""Vectorized Monte-Carlo engine: equivalence and consistency checks.

The array-based pairwise fast path must make *bit-identical policy
decisions* to the exact per-pair event loops on identical sampled
faults (``exact_pairs=True`` routes every channel through the event
loops). The segmented all-pairs pass must list exactly the per-segment
upper-triangle pairs, and the >=3-fault screen must send exactly the
channels a scalar footprint walk picks to the event loops. The batched
sampler's per-type fault counts must sit within Poisson noise of the
analytic expectation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.types import DEVICE_LEVEL_TYPES
from repro.reliability import montecarlo
from repro.reliability.analytical import ReliabilityParams
from repro.reliability.montecarlo import (
    MonteCarloReliability,
    _pairs_intersect,
    _sample_batch,
    any_pair_per_segment,
    merge_outcomes,
    segment_pairs,
)
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
        mc = MonteCarloReliability(
            ReliabilityParams(rate_multiplier=multiplier), seed=seed
        )
        fast = mc.run(channels, 7.0)
        exact = mc.run(channels, 7.0, exact_pairs=True)
        assert _outcome_tuple(fast) == _outcome_tuple(exact)


class TestVectorizedIntersection:
    def test_matches_scalar_method_on_random_faults(self):
        """Array intersection == object intersection, fault by fault."""
        params = ReliabilityParams(rate_multiplier=3000.0)
        mc = MonteCarloReliability(params, seed=99)
        rng = np.random.Generator(np.random.PCG64(99))
        batch = _sample_batch(params, rng, channels=4, years=7.0)
        for channel in range(4):
            start = int(batch.offsets[channel])
            stop = int(batch.offsets[channel + 1])
            faults = batch.channel_faults(channel)
            for i in range(stop - start):
                for j in range(i + 1, stop - start):
                    expected = faults[i].footprint_intersects(faults[j])
                    got = bool(
                        _pairs_intersect(
                            batch,
                            np.array([start + i]),
                            np.array([start + j]),
                        )[0]
                    )
                    assert got == expected, (channel, i, j)

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
        assert set(np.unique(batch.type_code)) <= set(
            range(len(DEVICE_LEVEL_TYPES))
        )

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
            patch.setattr(montecarlo, "_MAX_SEGMENT_PAIRS", budget)
            chunked = any_pair_per_segment(starts, lengths, test)
        assert chunked.tolist() == expected


class TestCandidateScreen:
    """The >=3-fault screen sends exactly the right channels to the exact
    event loops.

    ``run(exact_pairs=True)`` and the ``montecarlo`` fuzz oracle both go
    through the screen, so neither can catch a wrong candidate mask; this
    compares it with a scalar ``footprint_intersects`` walk.
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

        def record(self, faults, outcome):
            decided.append(tuple(f.time_hours for f in faults))

        monkeypatch.setattr(montecarlo, "_sample_batch", capture)
        monkeypatch.setattr(MonteCarloReliability, "_decide_channel", record)
        mc = MonteCarloReliability(ReliabilityParams(rate_multiplier=multiplier))
        mc._simulate_block(seed, channels, 7.0)

        (batch,) = batches
        expected, screened_out = [], 0
        for channel in np.flatnonzero(batch.per_channel >= 3):
            faults = batch.channel_faults(int(channel))
            if any(
                a.footprint_intersects(b)
                for i, a in enumerate(faults)
                for b in faults[i + 1 :]
            ):
                expected.append(tuple(f.time_hours for f in faults))
            else:
                screened_out += 1
        assert expected and screened_out, "scenario exercises both sides"
        assert decided == expected


class TestMergeOutcomes:
    def test_merge_sums_counts(self):
        mc = MonteCarloReliability(
            ReliabilityParams(rate_multiplier=100.0), seed=5
        )
        jobs = mc.block_jobs(channels=300, years=7.0)
        partials = [job.execute() for job in jobs]
        merged = merge_outcomes(300, 7.0, partials)
        direct = mc.run(300, 7.0)
        assert _outcome_tuple(merged) == _outcome_tuple(direct)
        assert merged.channels == 300


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
        for code, fault_type in enumerate(DEVICE_LEVEL_TYPES):
            expected = (
                params.device_rate_per_hour(fault_type)
                * params.total_devices
                * horizon
                * channels
            )
            count = int(np.count_nonzero(batch.type_code == code))
            assert expected > 0.0, fault_type
            assert abs(count - expected) <= 6.0 * expected**0.5, fault_type
