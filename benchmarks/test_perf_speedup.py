"""Wall-time benchmarks of the trace pipeline, and the speed trajectory.

* **Figures 7.2/7.3 sweep** — the 12-mix x (fault-free + four Table 7.4
  fault types) sweep at full scale, cold, on the process's resolved
  replay tier.
* **Trace materialization** — all 12 mixes materialized at full scale.
* **Speed trajectory** — ``BENCH_history.json`` holds every measured
  speed claim across the project's history; its shape is checked here.

The compiled kernel's end-to-end speed is gated by the repository
benchmark (``perfbench/``), where trace replay is the largest layer of
a full ``repro run``. Timings land in the CI benchmark job's
``BENCH_pr.json`` artifact.
"""

import json
import time
from pathlib import Path

import pytest

from repro.config import ARCC_MEMORY_CONFIG
from repro.faults.models import TABLE_7_4_TYPES, upgraded_page_fraction
from repro.perf.engine import BatchedTraceSimulator, clear_engine_memos
from repro.workloads.spec import ALL_MIXES

pytestmark = pytest.mark.mc

#: Full-scale trace length of these benchmarks.
INSTRUCTIONS = 200_000

#: The Figure 7.2/7.3 sweep: fault-free baseline + Table 7.4 fractions.
FIG72_FRACTIONS = (0.0,) + tuple(
    upgraded_page_fraction(ft) for ft in TABLE_7_4_TYPES
)


def _batched_seconds(points, mixes):
    """Cold batched run of ``points`` per mix (mat + replays)."""
    clear_engine_memos()
    started = time.perf_counter()
    for mix in mixes:
        for config, fraction in points:
            BatchedTraceSimulator(config, upgraded_fraction=fraction).run(
                mix, instructions_per_core=INSTRUCTIONS
            )
    return time.perf_counter() - started


def _warm_dispatch():
    BatchedTraceSimulator(ARCC_MEMORY_CONFIG).run(
        ALL_MIXES[0], instructions_per_core=2_000
    )


def test_bench_fig7_2_7_3_batched(benchmark):
    """Wall-time of the full-scale 12-mix fig7.2/7.3 sweep, batched."""
    _warm_dispatch()

    def run():
        return _batched_seconds(
            [(ARCC_MEMORY_CONFIG, f) for f in FIG72_FRACTIONS], ALL_MIXES
        )

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_bench_materialize_traces(benchmark):
    """Wall-time of materializing all 12 mixes at full scale."""
    from repro.perf.trace import materialize_mix

    def run():
        clear_engine_memos()
        return sum(
            materialize_mix(mix, 0x7ACE, INSTRUCTIONS).accesses
            for mix in ALL_MIXES
        )

    accesses = benchmark.pedantic(run, rounds=1, iterations=1)
    assert accesses > 0


def test_bench_history_is_wellformed():
    """The committed trajectory parses and covers the enforced bars.

    Ratio entries keep their measured speedup at or over the bar.
    Absolute entries record an end-to-end metric measured in
    alternating parent/change pairs: each side's quartiles must be
    ordered, the pairs won must fit the pairs run, and the change's
    median must beat the parent's in the metric's direction.
    """
    path = Path(__file__).with_name("BENCH_history.json")
    history = json.loads(path.read_text())
    entries = history["entries"]
    names = {entry["benchmark"] for entry in entries}
    assert "trace_suite_speedup" in names
    assert "fig7_2_7_3_sweep_speedup" in names
    assert "kernel_trace_suite_speedup" in names
    kinds = {entry["kind"] for entry in entries}
    assert kinds == {"ratio", "absolute"}, kinds
    for entry in entries:
        assert set(entry) == set(history["schema"][entry["kind"]]), entry
        if entry["kind"] == "ratio":
            assert entry["measured_x"] >= entry["bar_x"], entry
            continue
        for side in ("parent", "change"):
            quartiles = entry[side]
            assert quartiles["q1"] <= quartiles["median"] <= quartiles["q3"]
        assert 0 <= entry["pairs_won"] <= entry["pairs"], entry
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        assert entry["better"] in ("lower", "higher"), entry
        if entry["better"] == "lower":
            assert change < parent, entry
        else:
            assert change > parent, entry
