"""Trace-driven power/performance simulation (the Chapter 7 methodology).

Two implementations share one physics:

* :class:`repro.perf.simulator.TraceSimulator` — the per-access
  interval model, kept as the *exact reference* (the oracle the
  compiled kernel is golden-tested against, and the fallback tier on
  hosts without a C compiler);
* :func:`repro.perf.engine.replay` — the one entry point behind every
  figure. It runs the oracle itself on the ``reference`` tier; on the
  ``compiled`` tier :func:`~repro.perf.trace.materialize_mix` turns a Table 7.3 mix into a
  struct-of-arrays :class:`~repro.perf.trace.TraceBatch`, memoized one
  trace at a time, and the kernel of :mod:`repro.perf._kernel` replays any
  number of ``upgraded_fraction`` / organization points against it —
  bit-identical results at a fraction of the wall time.

Both produce the two numbers every Chapter 7 figure is built from:
average DRAM power and summed IPC. The upgraded-page fraction is an
input, which is how the Figure 7.2/7.3 fault scenarios and the
Figure 7.4/7.5 lifetime averages are composed.
"""
