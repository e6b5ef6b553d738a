"""Regression net for the silent-fallback hazard class.

Two fast paths in the trace pipeline degrade gracefully when the host
lacks a capability — the probed C trace materializer in
``perf/trace.py`` and the compiled replay kernel. Graceful degradation must never be
*silent*: the resolved tier is exposed through
``engine_provenance()``, recorded in every planner's job configs, and
therefore baked into result-cache keys — a compiled result can never
satisfy a fallback run's lookup (or vice versa), and an explicit
``engine="compiled"`` fails loudly rather than quietly downgrading.
"""

import os
import subprocess

import numpy as np
import pytest

from repro.config import ARCC_MEMORY_CONFIG
from repro.perf._kernel import (
    DISABLE_ENV,
    kernel_available,
    kernel_provenance,
    reset_kernel_loader,
)
from repro.perf.engine import (
    ENGINE_TIERS,
    SweepPoint,
    engine_provenance,
    replay,
    resolve_engine,
    simulate_point_job,
)
from repro.perf import trace
from repro.perf._kernel.loader import load_kernel, materializer_available
from repro.perf.trace import (
    clear_trace_memo,
    materialize_mix,
    trace_rng_provenance,
)
from repro.runner import Job, ResultCache
from repro.workloads.spec import mix_by_name
from repro.workloads.trace import TraceGenerator


def _point_job(engine: str) -> Job:
    return Job.create(
        f"provenance[{engine}]",
        simulate_point_job,
        mix=mix_by_name("Mix1"),
        config=ARCC_MEMORY_CONFIG,
        upgraded_fraction=0.0,
        instructions_per_core=1_000,
        seed=0x7ACE,
        engine=engine,
    )


@pytest.fixture
def masked_kernel(monkeypatch):
    """A process state in which the kernel is unavailable-by-policy."""
    monkeypatch.setenv(DISABLE_ENV, "1")
    reset_kernel_loader()
    yield
    monkeypatch.delenv(DISABLE_ENV, raising=False)
    reset_kernel_loader()


class TestCacheKeysDistinguishEngines:
    def test_compiled_and_reference_jobs_never_share_entries(self, tmp_path):
        """The regression this module exists for: a fallback run must
        miss on a compiled run's cache entry (and vice versa), because
        the resolved tier is part of the job config."""
        cache = ResultCache(str(tmp_path), version="pinned")
        compiled_key = cache.key(_point_job("compiled"))
        reference_key = cache.key(_point_job("reference"))
        assert compiled_key != reference_key

    def test_planners_record_resolved_tier_not_auto(self):
        """Plan-time resolution: the jobs a planner emits carry the
        tier that will actually run, so ``auto`` on a compiler-less
        host keys differently from ``auto`` on a compiled host."""
        from repro.experiments import plan_fig7_1

        plan = plan_fig7_1(
            mixes=[mix_by_name("Mix1")], instructions_per_core=1_000
        )
        engines = {
            dict(job.config)["engine"] for job in plan.jobs
        }
        assert engines == {resolve_engine("auto")}
        assert "auto" not in engines


class TestEngineProvenance:
    def test_provenance_reports_all_capability_probes(self):
        provenance = engine_provenance()
        assert provenance["replay_engine"] in ("compiled", "reference")
        assert provenance["replay_engine"] == resolve_engine("auto")
        assert provenance["replay_kernel"] == kernel_provenance()
        assert provenance["trace_rng"] == trace_rng_provenance()
        assert provenance["trace_rng"] in (
            "compiled-pcg64",
            "generator-fallback",
        )

    def test_masked_kernel_is_visible_everywhere(self, masked_kernel):
        """Masking the compiler (the CI fallback leg) flips every
        surface at once: availability, the reason string, auto
        resolution, and the provenance report."""
        assert not kernel_available()
        assert DISABLE_ENV in kernel_provenance()
        assert resolve_engine("auto") == "reference"
        assert engine_provenance()["replay_engine"] == "reference"
        assert engine_provenance()["trace_rng"] == "generator-fallback"

    def test_compiled_request_fails_loudly_when_masked(self, masked_kernel):
        """``engine="compiled"`` is a demand, not a hint."""
        with pytest.raises(RuntimeError, match="compiled"):
            resolve_engine("compiled")
        with pytest.raises(RuntimeError, match="compiled"):
            replay(
                mix_by_name("Mix1"), SweepPoint(), 500, 0x7ACE,
                engine="compiled",
            )

    def test_masked_run_records_reference_on_every_trace_point(
        self, masked_kernel
    ):
        """``REPRO_KERNEL_DISABLE=1`` is the one way to force the
        fallback: every planned trace point — LOT-ECC checksum points
        included — records and runs on the reference tier."""
        from repro.fleet.measured import plan_measured_profiles
        from repro.runner import execute_plan

        plan = plan_measured_profiles(
            policies=("arcc", "lotecc"),
            mixes=[mix_by_name("Mix1")],
            instructions_per_core=1_000,
        )
        assert any(
            dict(job.config).get("lotecc_checksum") for job in plan.jobs
        )
        assert {dict(job.config)["engine"] for job in plan.jobs} == {
            "reference"
        }
        assert execute_plan(plan)

    def test_reference_tier_unaffected_by_mask(self, masked_kernel):
        result = replay(
            mix_by_name("Mix1"), SweepPoint(), 500, 0x7ACE,
            engine="reference",
        )
        assert result.cores

    def test_tier_vocabulary_is_closed(self):
        assert ENGINE_TIERS == ("auto", "compiled", "reference")
        with pytest.raises(ValueError, match="unknown engine"):
            replay(
                mix_by_name("Mix1"), SweepPoint(), 500, 0x7ACE,
                engine="turbo",
            )

    def test_resolved_tier_resolves_to_itself(self):
        """Job configs carry the resolved tier, and the trace-point
        tracer re-resolves it: resolution must be idempotent."""
        resolved = resolve_engine("auto")
        assert resolve_engine(resolved) == resolved
        assert resolve_engine("reference") == "reference"

    def test_loader_recovers_after_unmasking(self):
        """The fixture's teardown path, asserted explicitly: resetting
        the loader re-probes the environment rather than memoizing the
        masked verdict forever."""
        os.environ[DISABLE_ENV] = "1"
        try:
            reset_kernel_loader()
            assert not kernel_available()
            assert trace_rng_provenance() == "generator-fallback"
        finally:
            os.environ.pop(DISABLE_ENV, None)
        reset_kernel_loader()
        assert kernel_available() == ("compiled" in kernel_provenance())
        assert trace_rng_provenance() == (
            "compiled-pcg64" if materializer_available()
            else "generator-fallback"
        )

    def test_compiler_rejecting_fp_contract_leaves_tier_unavailable(
        self, monkeypatch, tmp_path
    ):
        """No kernel is built without ``-ffp-contract=off``: a compiler
        that rejects the flag gets the reference tier, never an FMA-prone
        build served under the ``compiled`` label."""
        from repro.perf._kernel import loader

        attempts = []

        def rejecting_compile(cc, flags, link_flags, out_path):
            attempts.append(list(flags))
            if "-ffp-contract=off" in flags:
                raise subprocess.CalledProcessError(1, [cc, *flags])
            raise AssertionError(f"kernel build without the flag: {flags}")

        monkeypatch.delenv(DISABLE_ENV, raising=False)
        monkeypatch.setenv(loader.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(loader, "_find_compiler", lambda: "cc")
        monkeypatch.setattr(loader, "_compile", rejecting_compile)
        reset_kernel_loader()
        try:
            assert not kernel_available()
            assert kernel_provenance() == "reference (kernel build failed with cc)"
        finally:
            monkeypatch.undo()
            reset_kernel_loader()
        assert attempts and all("-ffp-contract=off" in a for a in attempts)


_ARRAYS = ("line_addresses", "write_flags", "instruction_gaps", "core_offsets")

needs_materializer = pytest.mark.skipif(
    not materializer_available(),
    reason="C trace materializer unavailable: " + kernel_provenance(),
)


def _assert_same_arrays(batch, expected):
    assert batch is not expected, "compared a memoized batch with itself"
    for name in _ARRAYS:
        actual, wanted = getattr(batch, name), getattr(expected, name)
        assert actual.dtype == wanted.dtype, name
        assert np.array_equal(actual, wanted), name


@pytest.fixture
def fresh_materializer():
    """Forget memoized traces and the probe verdict, before and after."""
    clear_trace_memo()
    trace._probe.cache_clear()
    yield
    clear_trace_memo()
    trace._probe.cache_clear()


@needs_materializer
class TestMaterializerPaths:
    """The two draw paths of ``perf/trace.py``: the C materializer,
    trusted only after its per-process probe, and ``CoreTrace``."""

    MIXES = ("Mix1", "Mix7")

    def _compiled_reference(self):
        assert trace_rng_provenance() == "compiled-pcg64"
        return {
            name: materialize_mix(mix_by_name(name), 11, 30_000)
            for name in self.MIXES
        }

    def test_fallback_equals_compiled_array_for_array(
        self, fresh_materializer, monkeypatch
    ):
        expected = self._compiled_reference()
        monkeypatch.setenv(DISABLE_ENV, "1")
        reset_kernel_loader()
        try:
            clear_trace_memo()
            assert engine_provenance()["trace_rng"] == "generator-fallback"
            for name in self.MIXES:
                batch = materialize_mix(mix_by_name(name), 11, 30_000)
                _assert_same_arrays(batch, expected[name])
        finally:
            monkeypatch.delenv(DISABLE_ENV)
            reset_kernel_loader()

    def test_perturbed_materializer_fails_probe(
        self, fresh_materializer, monkeypatch
    ):
        """A C materializer that gets one access wrong is refused, and
        materialization falls back to ``CoreTrace`` with correct
        arrays."""
        expected = self._compiled_reference()
        clear_trace_memo()
        trace._probe.cache_clear()
        original = trace._draw_core_compiled
        calls = []

        def perturbed(lib, core_trace, instructions_per_core):
            addresses, writes, gaps = original(
                lib, core_trace, instructions_per_core
            )
            if not calls:
                addresses = addresses.copy()
                addresses[len(addresses) // 2] += 1
            calls.append(core_trace.core_id)
            return addresses, writes, gaps

        monkeypatch.setattr(trace, "_draw_core_compiled", perturbed)
        assert trace_rng_provenance() == "generator-fallback"
        assert calls, "the probe never ran the C materializer"
        calls_after_probe = len(calls)
        for name in self.MIXES:
            batch = materialize_mix(mix_by_name(name), 11, 30_000)
            _assert_same_arrays(batch, expected[name])
        assert len(calls) == calls_after_probe

    @pytest.mark.parametrize("chunk", [1, 7, 4096, None])
    def test_chunked_draws_equal_core_trace(
        self, fresh_materializer, monkeypatch, chunk
    ):
        """The C materializer resumes each core's stream across chunks:
        at any chunk size, the default included, its arrays equal the
        ``CoreTrace`` path's, also when a core's last access fills a
        chunk exactly."""
        if chunk is not None:
            monkeypatch.setattr(trace, "_CHUNK", chunk)
        cases = [("Mix1", 11, 3_000), ("Mix7", 3, 30_000), ("Mix9", 0, 60_000)]
        boundary = None
        if chunk is not None:
            boundary = ("Mix4", 5, _budget_ending_at("Mix4", 5, 2 * chunk))
            cases.append(boundary)
        lib = load_kernel()
        for name, seed, instructions in cases:
            args = (name, tuple(mix_by_name(name).profiles), seed, instructions)
            compiled = trace._build_batch(*args, lib)
            reference = trace._build_batch(*args, None)
            _assert_same_arrays(compiled, reference)
            if (name, seed, instructions) == boundary:
                assert reference.core_offsets[1] == 2 * chunk


def _budget_ending_at(name: str, seed: int, accesses: int) -> int:
    """An instruction budget that core 0 of ``name`` retires on exactly
    its ``accesses``-th access."""
    core = TraceGenerator(mix_by_name(name).profiles, seed=seed).core_traces()[0]
    return sum(next(core).instructions_since_last for _ in range(accesses))
