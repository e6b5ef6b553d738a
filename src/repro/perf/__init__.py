"""Trace-driven power/performance simulation (the Chapter 7 methodology).

Two implementations share one physics:

* :class:`repro.perf.simulator.TraceSimulator` — the per-access
  interval model, kept as the *exact reference* (the oracle the
  compiled kernel is golden-tested against, and the fallback tier on
  hosts without a C compiler);
* :mod:`repro.perf.engine` — tier selection behind every figure:
  :func:`~repro.perf.trace.materialize_mix` turns a Table 7.3 mix into a
  struct-of-arrays :class:`~repro.perf.trace.TraceBatch` once, and
  :func:`~repro.perf.engine.sweep` replays any number of
  ``upgraded_fraction`` / organization points against it on the
  compiled kernel of :mod:`repro.perf._kernel` — bit-identical results
  at a fraction of the wall time.

Both produce the two numbers every Chapter 7 figure is built from:
average DRAM power and summed IPC. The upgraded-page fraction is an
input, which is how the Figure 7.2/7.3 fault scenarios and the
Figure 7.4/7.5 lifetime averages are composed.
"""

from repro.perf.engine import (
    BatchedTraceSimulator,
    SweepPoint,
    arcc_capable,
    simulate_point_job,
    sweep,
    upgraded_page_flags,
)
from repro.perf.simulator import (
    MixResult,
    TraceSimulator,
    page_is_upgraded,
    worst_case_performance_ratio,
    worst_case_power_ratio,
)
from repro.perf.trace import TraceBatch, materialize_mix

__all__ = [
    "BatchedTraceSimulator",
    "MixResult",
    "SweepPoint",
    "TraceBatch",
    "TraceSimulator",
    "arcc_capable",
    "materialize_mix",
    "page_is_upgraded",
    "simulate_point_job",
    "sweep",
    "upgraded_page_flags",
    "worst_case_performance_ratio",
    "worst_case_power_ratio",
]
