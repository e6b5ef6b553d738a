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

Tracemalloc checks pin the trace layers' memory: once a trace's
buffers exist, replaying more points over it allocates only a few small
per-point arrays, whatever the trace length; materializing a trace
peaks at a small multiple of the trace itself; and replaying one mix
after another keeps at most one trace alive.

Skips with the loader's reason when no C compiler is present.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ARCC_MEMORY_CONFIG,
    BASELINE_MEMORY_CONFIG,
    PROCESSOR_CONFIG,
)
from repro.perf import trace
from repro.perf._kernel import (
    kernel_available,
    kernel_provenance,
    replay_compiled,
)
from repro.perf.engine import SweepPoint, replay
from repro.perf.simulator import TraceSimulator
from repro.perf.trace import (
    clear_trace_memo,
    materialize_mix,
    trace_rng_provenance,
)
from repro.workloads.spec import ALL_MIXES, mix_by_name

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


class TestBoundedMemory:
    """Trace memory is bounded by one trace. Replay keeps no per-point
    array: after the first point over a trace, further points — other
    upgraded fractions, another organization — retain under 16 KB and
    peak under 64 KB, whatever the trace length. Materialization peaks
    near the trace's own size, and the memo keeps one trace."""

    @pytest.mark.parametrize("instructions", [3_000, 30_000])
    def test_more_points_over_one_trace_allocate_little(self, instructions):
        mix = mix_by_name("Mix3")
        replay(mix, SweepPoint(), instructions, 11, engine="compiled")
        points = [
            SweepPoint(upgraded_fraction=f)
            for f in (0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0)
        ] + [SweepPoint(config=BASELINE_MEMORY_CONFIG)]
        gc.collect()
        tracemalloc.start()
        try:
            for point in points:
                replay(mix, point, instructions, 11, engine="compiled")
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 16 * 1024, retained
        assert peak < 64 * 1024, peak

    def test_materialization_peaks_near_the_trace_size(self):
        """Chunked draws: scratch space does not grow with the budget,
        so drawing 2M instructions per core peaks at a small multiple
        of the arrays it returns (sizing scratch to the budget peaked
        at about 52x)."""
        trace_rng_provenance()  # run the probe outside the measurement
        clear_trace_memo()
        gc.collect()
        tracemalloc.start()
        try:
            batch = materialize_mix(mix_by_name("Mix9"), 0, 2_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            clear_trace_memo()
        own = sum(
            array.nbytes
            for array in (
                batch.line_addresses,
                batch.write_flags,
                batch.instruction_gaps,
                batch.core_offsets,
            )
        )
        assert peak <= 3 * own, (peak, own)

    def test_replaying_every_mix_retains_one_trace(self, monkeypatch):
        """A batch and its kernel buffers are freed once the memo moves
        on to the next trace."""
        trace_rng_provenance()  # the probe's batches are not counted
        built = []
        original = trace._build_batch

        def tracked(*args):
            batch = original(*args)
            built.append(weakref.ref(batch))
            return batch

        monkeypatch.setattr(trace, "_build_batch", tracked)
        clear_trace_memo()
        try:
            for mix in ALL_MIXES:
                replay(mix, SweepPoint(), 3_000, 11, engine="compiled")
            gc.collect()
            alive = [ref for ref in built if ref() is not None]
        finally:
            clear_trace_memo()
        assert len(built) == len(ALL_MIXES)
        assert len(alive) <= 1
