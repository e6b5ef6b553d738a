"""Vectorized Monte-Carlo engine: equivalence and consistency checks.

The array-based pairwise fast path must make *bit-identical policy
decisions* to the exact per-pair event loops on identical sampled
faults (``exact_pairs=True`` routes every channel through the event
loops). The batched sampler's per-type fault counts must sit within
Poisson noise of the analytic expectation.
"""

import numpy as np
import pytest

from repro.faults.types import DEVICE_LEVEL_TYPES
from repro.reliability.analytical import ReliabilityParams
from repro.reliability.montecarlo import (
    MonteCarloReliability,
    _pairs_intersect,
    _sample_batch,
    merge_outcomes,
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
