"""Vectorized Monte-Carlo engine timing at Figure 6.1's cross-check scale.

The timing lands in the CI benchmark job's ``BENCH_pr.json`` artifact;
end-to-end absolute time is tracked by ``perfbench/``.
"""

import pytest

from repro.reliability.analytical import ReliabilityParams
from repro.reliability.montecarlo import MonteCarloReliability

pytestmark = pytest.mark.mc

#: Figure 6.1's Monte-Carlo cross-check scale.
CHANNELS = 2000
YEARS = 7.0
PARAMS = ReliabilityParams(rate_multiplier=4.0)


def test_bench_montecarlo_vectorized(benchmark):
    mc = MonteCarloReliability(PARAMS, seed=0x5DC)
    outcome = benchmark(mc.run, CHANNELS, YEARS)
    assert outcome.channels == CHANNELS
