"""Compiled trace-replay kernel: C core, loader, and NumPy driver.

The ``compiled`` tier of :func:`repro.perf.engine.replay`, built at
first use from ``kernel.c`` by :mod:`~repro.perf._kernel.loader` and
driven over a batch's NumPy buffers by
:func:`~repro.perf._kernel.driver.replay_compiled`. Bit-identical to
the scalar ``TraceSimulator.run`` oracle by contract
(``tests/test_kernel_equivalence.py``, ``repro fuzz --oracles
trace-kernel``); unavailable — never silently different — when no C
compiler is present or ``REPRO_KERNEL_DISABLE`` is set, in which case
the ``reference`` tier runs ``TraceSimulator.run`` itself.
"""
