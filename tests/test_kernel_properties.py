"""Hypothesis property tests on the compiled kernel's invariants.

The kernel self-audits its data structures as it runs (the
:class:`~repro.perf._kernel.KernelStats` counters are computed inside
the C loop, not reconstructed in Python), so these properties hold for
*any* drawn workload, seed, fraction, and LLC geometry — random
access/evict interleavings included, since every materialized trace is
one:

* LLC occupancy never exceeds ``sets x ways`` (the open-addressed
  table never over-fills a set);
* the paired-LRU recency mirror stays consistent — a hit on a paired
  line always finds its sibling resident with the same recency tick;
* stop-index termination is exact — each core consumes precisely its
  slice of the batch, at arbitrary instruction budgets.

LOT-ECC checksum accounting is drawn too: its extra bursts change
timing, never the cache, so every invariant holds in both modes.

Skips with the loader's reason when no C compiler is present.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ARCC_MEMORY_CONFIG, PROCESSOR_CONFIG
from repro.perf._kernel import (
    kernel_available,
    kernel_provenance,
    replay_compiled,
)
from repro.perf.engine import SweepPoint
from repro.perf.simulator import TraceSimulator
from repro.perf.trace import materialize_mix
from repro.workloads.spec import ALL_MIXES

pytestmark = pytest.mark.skipif(
    not kernel_available(),
    reason=f"compiled replay kernel unavailable: {kernel_provenance()}",
)

#: Small LLC geometries (sets derive from line size; the replay only
#: reads ``l2_sets``/``l2_assoc``) so evictions and paired evictions
#: dominate even short drawn traces.
GEOMETRIES = st.tuples(
    st.sampled_from([1, 2, 4, 8]),  # ways
    st.sampled_from([256, 1024, 4096]),  # cacheline_bytes -> fewer sets
)

CASES = st.tuples(
    st.sampled_from(ALL_MIXES),
    st.integers(min_value=0, max_value=2**31 - 1),  # seed
    st.integers(min_value=200, max_value=3_000),  # instruction budget
    st.sampled_from([0.0, 0.0625, 0.25, 0.37, 0.5, 1.0]),
    GEOMETRIES,
    st.booleans(),  # lotecc_checksum
)


def run_case(case):
    mix, seed, instructions, fraction, (ways, line_bytes), checksum = case
    processor = dataclasses.replace(
        PROCESSOR_CONFIG, l2_assoc=ways, cacheline_bytes=line_bytes
    )
    batch = materialize_mix(mix, seed, instructions)
    point = SweepPoint(
        config=ARCC_MEMORY_CONFIG,
        upgraded_fraction=fraction,
        lotecc_checksum=checksum,
    )
    result, stats = replay_compiled(batch, point, processor)
    return batch, processor, point, result, stats


class TestKernelInvariants:
    @settings(max_examples=30, deadline=None)
    @given(CASES)
    def test_occupancy_never_exceeds_capacity(self, case):
        _, processor, _, _, stats = run_case(case)
        assert (
            0
            <= stats.max_occupancy
            <= processor.l2_sets * processor.l2_assoc
        )

    @settings(max_examples=30, deadline=None)
    @given(CASES)
    def test_paired_lru_mirror_consistent(self, case):
        """Every hit on a paired line found its sibling resident with
        an identical recency tick (audited pre-restamp, in the loop)."""
        _, _, _, _, stats = run_case(case)
        assert stats.mirror_violations == 0

    @settings(max_examples=30, deadline=None)
    @given(CASES)
    def test_stop_index_termination_exact(self, case):
        """Cores stop exactly at their slice boundaries, and every
        access is classified exactly once."""
        batch, _, _, _, stats = run_case(case)
        assert stats.final_positions == tuple(
            int(v) for v in batch.core_offsets[1:]
        )
        assert stats.hits + stats.misses == batch.accesses

    @settings(max_examples=15, deadline=None)
    @given(CASES)
    def test_matches_reference(self, case):
        """The audited runs are also bit-identical to
        ``TraceSimulator.run`` on the drawn LLC geometry, with the drawn
        checksum mode — not just the default LLC."""
        _, processor, point, result, _ = run_case(case)
        mix, seed, instructions, fraction, _, checksum = case
        assert result == TraceSimulator(
            point.config,
            processor=processor,
            upgraded_fraction=fraction,
            seed=seed,
            lotecc_checksum=checksum,
        ).run(mix, instructions_per_core=instructions)
