"""Struct-of-arrays materialization of workload-mix traces.

The legacy simulator regenerates its four :class:`~repro.workloads.trace.
CoreTrace` streams from scratch on every run, three scalar RNG draws per
access — so a Figure 7.2/7.3 sweep pays the trace-generation tax once per
(mix, fault type) point even though every point replays the *same*
accesses. :class:`TraceBatch` materializes a mix's streams exactly once
into parallel NumPy arrays (line addresses, write flags, instruction
gaps, plus a per-core offset index — the perf analogue of
:class:`repro.fleet.events.FaultEventBatch`), and the batched engine in
:mod:`repro.perf.engine` replays any number of ``upgraded_fraction`` /
organization points against it.

The arrays hold bit-for-bit the accesses the real ``CoreTrace``
iterators yield, which ``TraceSimulator.run`` would have consumed:
each core's stream is drawn from its own ``split_rng`` child, which makes
the per-core access sequence independent of how the cores interleave.
A core consumes accesses until its retired-instruction total reaches
``instructions_per_core`` — the exact stopping rule of the legacy loop —
so equal parameters always yield equal array contents.

Two draw paths produce the arrays. ``CoreTrace`` itself is the
definition. The C materializer of :mod:`repro.perf._kernel` draws the
same streams against NumPy's bit generator many times faster, but it is
trusted only after a per-process probe: one shipped mix materialized
through both paths must agree array for array. Without a kernel, or
after a failed probe, materialization steps ``CoreTrace``;
:func:`trace_rng_provenance` reports which path ran.

Trace memory is bounded by one trace. The C materializer draws each
core in fixed-size chunks, resuming the stream where the previous chunk
stopped, so its scratch space does not grow with the instruction
budget. The memo behind :func:`materialize_mix` holds one batch, and the
replay kernel's contiguous inputs are a cached attribute of that batch
(:attr:`TraceBatch.kernel_buffers`), so they are freed with it. The
runner runs trace jobs grouped by trace (:func:`repro.perf.engine.
point_job` gives each a grouping key), so one slot is enough for each
trace to be drawn once per batch of jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Tuple

import numpy as np

from repro.perf._kernel.loader import load_kernel, materializer_available
from repro.workloads.spec import ALL_MIXES, BenchmarkProfile, WorkloadMix
from repro.workloads.trace import TraceGenerator


def check_instructions_per_core(instructions_per_core: int) -> None:
    """Reject an instruction budget below 1.

    Every core must retire at least one instruction, so that every core
    holds at least one access; the replay kernel reads a core's first
    access before it checks for the end of its stream.
    """
    if instructions_per_core < 1:
        raise ValueError(
            "instructions_per_core must be at least 1, got "
            f"{instructions_per_core!r}"
        )


class KernelBuffers(NamedTuple):
    """A batch's contiguous, organization-independent replay inputs.

    ``arrays`` are the line addresses, write flags as ``uint8``, gap
    cycles, core offsets and per-core MLP; ``pointers`` are their data
    addresses in the kernel's argument order (``arrays`` keeps them
    alive); ``instructions`` are each core's retired instructions.
    """

    arrays: Tuple[np.ndarray, ...]
    pointers: Tuple[int, ...]
    instructions: Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class TraceBatch:
    """One mix's materialized access streams as parallel arrays.

    Identity-compared and identity-hashed (``eq=False``): batches come
    out of the :func:`materialize_mix` memo, so identical parameters
    yield the *same object* while it is memoized, and every point
    replayed against it shares its :attr:`kernel_buffers`.

    Accesses are grouped by core and stream-ordered within each core:
    ``core_offsets[i]:core_offsets[i+1]`` slices core ``i``'s accesses.
    The arrays are exactly what the legacy simulator would have drawn
    from ``TraceGenerator(profiles, seed)`` while retiring
    ``instructions_per_core`` instructions on every core.

    Examples
    --------
    >>> from repro.workloads.spec import mix_by_name
    >>> batch = materialize_mix(mix_by_name("Mix1"), seed=7,
    ...                         instructions_per_core=2_000)
    >>> batch.cores
    4
    >>> batch.accesses == len(batch.line_addresses)
    True
    >>> bool(batch.instruction_gaps.min() >= 1)
    True
    """

    mix_name: str
    profiles: Tuple[BenchmarkProfile, ...]
    seed: int
    instructions_per_core: int
    line_addresses: np.ndarray  # int64[n], grouped by core
    write_flags: np.ndarray  # bool[n]
    instruction_gaps: np.ndarray  # int64[n], instructions since last access
    core_offsets: np.ndarray  # int64[cores + 1]

    @property
    def cores(self) -> int:
        """Number of cores (streams) in the batch."""
        return len(self.core_offsets) - 1

    @property
    def accesses(self) -> int:
        """Total accesses across all cores."""
        return int(self.core_offsets[-1])

    def core_slice(self, core: int) -> slice:
        """Array slice holding ``core``'s accesses."""
        return slice(
            int(self.core_offsets[core]), int(self.core_offsets[core + 1])
        )

    def gap_cycles(self) -> np.ndarray:
        """Per-access compute cycles (``gap / base_ipc``), float64.

        Element-for-element the value the legacy loop adds to a core's
        cycle count before each access (IEEE division of the same
        operands, so bit-identical).
        """
        out = np.empty(self.accesses, dtype=np.float64)
        for core, profile in enumerate(self.profiles):
            view = self.core_slice(core)
            out[view] = (
                self.instruction_gaps[view].astype(np.float64)
                / profile.base_ipc
            )
        return out

    @cached_property
    def kernel_buffers(self) -> KernelBuffers:
        """The replay kernel's inputs, built once per batch.

        Cached on the batch, so they live exactly as long as it does.
        The kernel relies on two properties of the trace, so each is
        checked here, once per batch, and a violation raises
        ``ValueError``: every core has at least one access (the kernel
        reads a core's first access before it checks for the end of its
        stream), and line addresses are non-negative (the kernel
        reduces them with masks and shifts), which holds by
        construction.
        """
        empty = np.flatnonzero(np.diff(self.core_offsets) <= 0)
        if empty.size:
            raise ValueError(
                f"trace '{self.mix_name}' has no access on core "
                f"{int(empty[0])}; replay needs at least one access on "
                "every core"
            )
        addresses = np.ascontiguousarray(self.line_addresses, dtype=np.int64)
        if addresses.size and addresses.min() < 0:
            raise ValueError(
                f"trace '{self.mix_name}' has a negative line address "
                f"({int(addresses.min())}); line addresses must be >= 0"
            )
        arrays = (
            addresses,
            np.ascontiguousarray(self.write_flags).view(np.uint8),
            np.ascontiguousarray(self.gap_cycles(), dtype=np.float64),
            np.ascontiguousarray(self.core_offsets, dtype=np.int64),
            np.array([p.mlp for p in self.profiles], dtype=np.float64),
        )
        return KernelBuffers(
            arrays=arrays,
            pointers=tuple(a.ctypes.data for a in arrays),
            instructions=tuple(
                int(self.instruction_gaps[self.core_slice(i)].sum())
                for i in range(self.cores)
            ),
        )


#: The probe that gates the C materializer: a shipped mix at a scale
#: that draws about 1,600 accesses, both random-jump and sequential.
_PROBE_MIX = ALL_MIXES[0]
_PROBE_SEED = 0xBEEF
_PROBE_INSTRUCTIONS = 40_000

#: Most accesses one call of the C materializer writes: the size of its
#: scratch buffers, whatever the instruction budget.
_CHUNK = 1 << 16


def _draw_core(trace, instructions_per_core):
    """One core's exact access stream, stepped through ``CoreTrace``.

    The definition the C materializer must reproduce: the legacy loop's
    stopping rule (consume accesses until the retired-instruction total
    reaches ``instructions_per_core``) over the iterator itself.
    """
    addresses, writes, gaps = [], [], []
    total = 0
    while total < instructions_per_core:
        access = next(trace)
        addresses.append(access.line_address)
        writes.append(access.is_write)
        gaps.append(access.instructions_since_last)
        total += access.instructions_since_last
    return (
        np.asarray(addresses, dtype=np.int64),
        np.asarray(writes, dtype=bool),
        np.asarray(gaps, dtype=np.int64),
    )


def _draw_core_compiled(lib, trace, instructions_per_core):
    """One core's exact access stream, drawn by the C kernel in chunks.

    Each call writes at most ``_CHUNK`` accesses and stops before it
    draws past a full buffer, so the next call resumes the same stream
    with the remaining instruction quota and the last line as
    ``current``. Every access retires at least one instruction, so a
    chunk never needs more room than the quota left.
    """
    bitgen = trace.rng.bit_generator.ctypes.bit_generator
    remaining = int(instructions_per_core)
    current = int(trace._current)
    chunks = []
    while remaining > 0:
        capacity = min(_CHUNK, remaining)
        addresses = np.empty(capacity, dtype=np.int64)
        writes = np.empty(capacity, dtype=np.uint8)
        gaps = np.empty(capacity, dtype=np.int64)
        count = lib.materialize_kernel(
            bitgen,
            float(trace.profile.spatial_locality),
            float(trace.profile.read_fraction),
            int(trace.region_base),
            int(trace.footprint_lines),
            float(trace._gap_instructions),
            remaining,
            current,
            capacity,
            addresses.ctypes.data,
            writes.ctypes.data,
            gaps.ctypes.data,
        )
        chunks.append((addresses[:count], writes[:count], gaps[:count]))
        remaining -= int(gaps[:count].sum())
        current = int(addresses[count - 1])
    addresses, writes, gaps = (np.concatenate(part) for part in zip(*chunks))
    return addresses, writes.view(np.bool_), gaps


def _build_batch(
    mix_name: str,
    profiles: Tuple[BenchmarkProfile, ...],
    seed: int,
    instructions_per_core: int,
    lib,
) -> TraceBatch:
    """Materialize a mix through the C kernel ``lib``, or ``CoreTrace``
    when ``lib`` is ``None``."""
    traces = TraceGenerator(profiles, seed=seed).core_traces()
    if lib is None:
        per_core = [_draw_core(t, instructions_per_core) for t in traces]
    else:
        per_core = [
            _draw_core_compiled(lib, t, instructions_per_core)
            for t in traces
        ]
    return TraceBatch(
        mix_name=mix_name,
        profiles=tuple(profiles),
        seed=seed,
        instructions_per_core=instructions_per_core,
        line_addresses=np.concatenate([core[0] for core in per_core]),
        write_flags=np.concatenate([core[1] for core in per_core]),
        instruction_gaps=np.concatenate([core[2] for core in per_core]),
        core_offsets=np.cumsum(
            [0] + [core[0].size for core in per_core], dtype=np.int64
        ),
    )


@lru_cache(maxsize=1)
def _probe(lib) -> bool:
    """Whether ``lib``'s C materializer reproduces ``CoreTrace`` exactly.

    Materializes the probe mix through both paths and requires
    array-for-array equality. Run once per loaded kernel, so a
    reloaded (or replaced) kernel is probed afresh.
    """
    args = (
        _PROBE_MIX.name,
        tuple(_PROBE_MIX.profiles),
        _PROBE_SEED,
        _PROBE_INSTRUCTIONS,
    )
    try:
        compiled = _build_batch(*args, lib)
    except Exception:
        return False
    reference = _build_batch(*args, None)
    return all(
        np.array_equal(getattr(compiled, name), getattr(reference, name))
        for name in (
            "line_addresses",
            "write_flags",
            "instruction_gaps",
            "core_offsets",
        )
    )


def _kernel_materializer():
    """The compiled materialization entry point, or ``None``.

    Requires the compiled kernel built against NumPy's static
    ``libnpyrandom.a`` (so its exponential draws *are* NumPy's) and a
    passed :func:`_probe`. Either absence falls back to ``CoreTrace``,
    visibly via :func:`trace_rng_provenance`.
    """
    try:
        if not materializer_available():
            return None
        lib = load_kernel()
    except Exception:  # pragma: no cover - defensive: loader errors
        return None
    return lib if _probe(lib) else None


def trace_rng_provenance() -> str:
    """Which draw path materialization uses, as a report-ready string.

    ``"compiled-pcg64"`` when the C materialization kernel (NumPy's own
    ``libnpyrandom`` linked in) is loaded and passed the per-process
    probe against ``CoreTrace``; ``"generator-fallback"`` when the
    arrays are drawn by stepping ``CoreTrace`` itself (no kernel, a
    kernel without ``libnpyrandom``, or a failed probe). Both paths
    generate bit-identical traces; the label exists so a fallback is
    visible in provenance rather than inferred from timing.
    """
    if _kernel_materializer() is None:
        return "generator-fallback"
    return "compiled-pcg64"


@lru_cache(maxsize=1)
def _materialize(
    mix_name: str,
    profiles: Tuple[BenchmarkProfile, ...],
    seed: int,
    instructions_per_core: int,
) -> TraceBatch:
    """Memoized worker behind :func:`materialize_mix`."""
    return _build_batch(
        mix_name, profiles, seed, instructions_per_core, _kernel_materializer()
    )


def materialize_mix(
    mix: WorkloadMix, seed: int, instructions_per_core: int
) -> TraceBatch:
    """Materialize (or fetch the memoized copy of) one mix's streams.

    The memo holds the last batch, so consecutive points of one trace —
    any ``upgraded_fraction`` or organization, or the runner's trace
    jobs, which run grouped by trace — generate it once while at most
    one trace stays resident. The memo is keyed on the *profiles*, not
    just the mix name, so custom mixes never alias.
    ``instructions_per_core`` below 1 raises ``ValueError``.

    Examples
    --------
    >>> from repro.workloads.spec import mix_by_name
    >>> a = materialize_mix(mix_by_name("Mix2"), 3, 1_000)
    >>> b = materialize_mix(mix_by_name("Mix2"), 3, 1_000)
    >>> a is b  # memoized: the arrays are generated once
    True
    """
    check_instructions_per_core(instructions_per_core)
    return _materialize(
        mix.name, tuple(mix.profiles), seed, instructions_per_core
    )


def clear_trace_memo() -> None:
    """Drop the memoized batch (benchmarks use this to time cold runs)."""
    _materialize.cache_clear()
