"""Workload substrate: the Table 7.3 SPEC mixes as synthetic generators.

The paper drives its evaluation with 12 quad-core multiprogrammed SPEC
mixes simulated on M5. We cannot run SPEC binaries; what the memory-system
evaluation consumes is each benchmark's *memory behaviour* — LLC-miss
intensity, read/write balance, spatial locality — and its IPC sensitivity
to memory latency. :mod:`repro.workloads.spec` encodes those per-benchmark
characteristics (from the well-known memory-intensity taxonomy of SPEC
2000/2006); :mod:`repro.workloads.trace` turns them into reproducible
access streams that exercise the same LLC/controller/DRAM code paths the
paper's traces did.
"""
