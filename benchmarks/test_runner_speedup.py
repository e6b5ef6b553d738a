"""Vectorized Monte-Carlo engine timing at Figure 6.1's cross-check scale.

Times ``execute_plan(plan_montecarlo(...))`` inline: every block job of
the population plan plus its assembly. The timing lands in the CI
benchmark job's ``BENCH_pr.json`` artifact; end-to-end absolute time is
tracked by ``perfbench/``.
"""

import pytest

from repro.reliability.analytical import ReliabilityParams
from repro.reliability.montecarlo import plan_montecarlo
from repro.runner import execute_plan

pytestmark = pytest.mark.mc

#: Figure 6.1's Monte-Carlo cross-check scale.
CHANNELS = 2000
YEARS = 7.0
PARAMS = ReliabilityParams(rate_multiplier=4.0)


def test_bench_montecarlo_vectorized(benchmark):
    plan = plan_montecarlo(PARAMS, CHANNELS, YEARS, seed=0x5DC)
    outcome = benchmark(execute_plan, plan)
    assert outcome.channels == CHANNELS
