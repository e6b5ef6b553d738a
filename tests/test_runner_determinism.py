"""Determinism regression: jobs=1 and jobs=4 must be bit-identical.

Every job owns an explicit seed and the Monte-Carlo block partition is
fixed independently of the worker count, so fanning an experiment out
over a process pool must change nothing but wall-clock time. These tests
run the real figure pipelines both ways at reduced scale and compare
exact values — no tolerances.
"""

import collections
import dataclasses
import hashlib

import pytest

from repro.config import ARCC_MEMORY_CONFIG
from repro.experiments.fig3_1 import plan_fig3_1
from repro.experiments.fig6_1 import plan_fig6_1
from repro.experiments.fig7_1 import plan_fig7_1
from repro.experiments.fig7_2_7_3 import plan_fig7_2_7_3
from repro.experiments.fig7_4_7_5 import plan_fig7_4_7_5
from repro.experiments.fig7_6 import plan_fig7_6
from repro.experiments.sensitivity import plan_sweep_upgraded_fraction_measured
from repro.perf import trace
from repro.perf._kernel.loader import kernel_available, kernel_provenance
from repro.perf.engine import point_jobs, resolve_engine
from repro.reliability.analytical import ReliabilityParams
from repro.reliability.montecarlo import BLOCK_CHANNELS, plan_montecarlo
from repro.runner.cache import ResultCache
from repro.runner.executor import execute_plan, run_jobs
from repro.runner.job import Job, job_identity
from repro.workloads.spec import ALL_MIXES, mix_by_name


def _outcome_tuple(outcome):
    return (
        outcome.sdc_machines_arcc,
        outcome.sdc_machines_sccdcd,
        outcome.due_machines_sccdcd,
        outcome.due_machines_sparing,
    )


class TestMonteCarloParallelism:
    PARAMS = ReliabilityParams(rate_multiplier=50.0)

    def test_jobs_1_vs_4_identical_counts(self):
        """Same seed, multiple blocks: SDC/DUE counts must match exactly."""
        channels = 2 * BLOCK_CHANNELS + 17  # three blocks, one partial
        plan = plan_montecarlo(self.PARAMS, channels, 7.0, seed=0xD37)
        sequential = execute_plan(plan, max_workers=1)
        parallel = execute_plan(plan, max_workers=4)
        assert _outcome_tuple(sequential) == _outcome_tuple(parallel)
        assert sequential.channels == parallel.channels == channels
        assert sequential.due_machines_sccdcd > 0  # non-trivial population

    def test_block_partition_is_prefix_stable(self):
        """Growing the population extends, never reshuffles, the blocks."""
        small = plan_montecarlo(self.PARAMS, BLOCK_CHANNELS, 7.0, seed=0xD37)
        large = plan_montecarlo(self.PARAMS, 3 * BLOCK_CHANNELS, 7.0, seed=0xD37)
        assert large.jobs[0].config == small.jobs[0].config


class TestFigureParallelism:
    def test_fig3_1_series_identical(self):
        a = execute_plan(plan_fig3_1(years=3, channels=80), max_workers=1)
        b = execute_plan(plan_fig3_1(years=3, channels=80), max_workers=4)
        assert a.series == b.series

    def test_fig6_1_cells_and_monte_carlo_identical(self):
        kwargs = dict(
            lifespans=(7,),
            multipliers=(1.0, 4.0),
            monte_carlo_channels=2 * BLOCK_CHANNELS,
            monte_carlo_years=3.0,
        )
        a = execute_plan(plan_fig6_1(**kwargs), max_workers=1)
        b = execute_plan(plan_fig6_1(**kwargs), max_workers=4)
        assert a.cells == b.cells
        assert a.monte_carlo == b.monte_carlo

    def test_fig7_1_rows_identical(self):
        a = execute_plan(
            plan_fig7_1(mixes=ALL_MIXES[:4], instructions_per_core=4_000),
            max_workers=1,
        )
        b = execute_plan(
            plan_fig7_1(mixes=ALL_MIXES[:4], instructions_per_core=4_000),
            max_workers=4,
        )
        assert [vars(r) for r in a.rows] == [vars(r) for r in b.rows]

    def test_fig7_6_overheads_identical(self):
        a = execute_plan(plan_fig7_6(years=3, channels=60), max_workers=1)
        b = execute_plan(plan_fig7_6(years=3, channels=60), max_workers=4)
        assert a.overhead == b.overhead

    def test_fig7_2_7_3_ratios_identical(self):
        """Batched-engine per-(mix, point) jobs: jobs=1 == jobs=4."""
        kwargs = dict(mixes=ALL_MIXES[:3], instructions_per_core=4_000)
        a = execute_plan(plan_fig7_2_7_3(**kwargs), max_workers=1)
        b = execute_plan(plan_fig7_2_7_3(**kwargs), max_workers=4)
        assert a.ratios == b.ratios

    def test_fig7_4_7_5_series_identical(self):
        a = execute_plan(plan_fig7_4_7_5(years=3, channels=120), max_workers=1)
        b = execute_plan(plan_fig7_4_7_5(years=3, channels=120), max_workers=4)
        assert a.power_overhead == b.power_overhead
        assert a.performance_overhead == b.performance_overhead
        assert a.power_ci == b.power_ci

    def test_sensitivity_sweep_identical(self):
        kwargs = dict(
            mixes=ALL_MIXES[:3],
            fractions=(0.0, 0.25, 1.0),
            instructions_per_core=4_000,
        )
        a = execute_plan(
            plan_sweep_upgraded_fraction_measured(**kwargs),
            max_workers=1,
        )
        b = execute_plan(
            plan_sweep_upgraded_fraction_measured(**kwargs),
            max_workers=4,
        )
        assert a.ratios == b.ratios


def _note(x, seed=0, log=None):
    """Job that records its run order in ``log`` (inline runs only)."""
    log.append(x)
    return x + seed


#: sha256 of a fixed trace job's identity on each replay tier, pinned:
#: the grouping key is a scheduling hint, and were it part of the
#: identity, every cache entry would change.
POINT_JOB_IDENTITY_SHA256 = {
    "compiled": "274db7528cdc6b2ca99c43eba577dfd11917820f115f087063b2510d427f5d0f",
    "reference": "9c6b67514b647dcd06fa9f1f1592df76ecc5a9e97687b6d834ed7d692f46c47a",
}


#: (registry key, --quick) -> (job count, sha256 of the sorted job
#: identities on each replay tier) of every registry plan with trace
#: jobs, pinned: a planner refactor must keep each plan's jobs as a
#: multiset, or cache entries and in-batch sharing move.
PLAN_IDENTITY_SHA256 = {
    ("fig7.1", True): (
        8,
        {
            "compiled": "4e2d4299be4a64a50077facfada26abb2741a190f514ee90328e88d009216fad",
            "reference": "da97e86ff0e646f91149e838f76b33e02d796faf2b679b8f7421ffe6082a095b",
        },
    ),
    ("fig7.1", False): (
        24,
        {
            "compiled": "289cfec9c2fb23ef4e166b019fd041aa227a568154905fee2549f968062cd1fe",
            "reference": "91777452faf2db8d639b52c67a8d49c61e7e767fe541c0d9eb89c871cf9a07da",
        },
    ),
    ("fig7.2", True): (
        15,
        {
            "compiled": "5a6b5533eb53516a74c049ec16ad5395a1153d01722b2eaf8bbdf3bd29b4f420",
            "reference": "3e234bd3eb4e91070ac85be794113928d878cf90ef9e8ddf7d0cf45f7e8e65ab",
        },
    ),
    ("fig7.2", False): (
        60,
        {
            "compiled": "462bb6f62944ba1a7b08fe0cc16aab6c38b78caced94844ea64a37f1daaedada",
            "reference": "52eccd626744fbd6b917a7307823411c2d92cb8cdc59d97a8f1cde1988f88bff",
        },
    ),
    ("sensitivity", True): (
        12,
        {
            "compiled": "93bf88346332245931322e6225c64724b6a07a033708f41fe71435b662c39c5e",
            "reference": "0eaea30a91bb6fc94c4c7074e14ef3bc4372b5d8d15a7f4621dba6e4cfe976d7",
        },
    ),
    ("sensitivity", False): (
        84,
        {
            "compiled": "806f2d2f063dccea31b1209b72b13c1834f47734a950b08d88cd62ae5d5243d8",
            "reference": "710189e0e360ddc33c8b22be4960ec517f053ccc53f491f6e8ee9998c1bc74e8",
        },
    ),
    ("fleet-compare-measured", True): (
        264,
        {
            "compiled": "16669d59fee57f2efb22fa6714a2016f76db0771df2d64a5640efdb425095d32",
            "reference": "7badc2439a9350f88ec559fc46b852c0053c9db8785efd53665753a616262f13",
        },
    ),
    ("fleet-compare-measured", False): (
        264,
        {
            "compiled": "841386d866505d759ba4d6fcbeb0188f5e08c42e11f3e2c534154db21d083167",
            "reference": "d88648c9d616017a566bb49f53659d2eb2b4668f8cdeaf5c829b01c955ef59d2",
        },
    ),
    ("study", True): (
        44,
        {
            "compiled": "c1e661dc7095a47856b02cfd39448013de4bc6a5fd1731816de8fbdfdfdc2f67",
            "reference": "bb175b110d60d1c3a056e4c7f1e2cf0b97bf6946295a0857ebb427df32ae6774",
        },
    ),
    ("study", False): (
        44,
        {
            "compiled": "c1e661dc7095a47856b02cfd39448013de4bc6a5fd1731816de8fbdfdfdc2f67",
            "reference": "bb175b110d60d1c3a056e4c7f1e2cf0b97bf6946295a0857ebb427df32ae6774",
        },
    ),
}


@pytest.mark.parametrize(
    "key, quick", sorted(PLAN_IDENTITY_SHA256), ids=lambda v: str(v)
)
def test_registry_plan_identities_pinned(key, quick):
    from repro.runner.registry import FIGURES

    jobs = FIGURES[key].plan(quick=quick).jobs
    identities = "\n".join(sorted(job_identity(job) for job in jobs))
    count, digests = PLAN_IDENTITY_SHA256[(key, quick)]
    assert len(jobs) == count
    digest = hashlib.sha256(identities.encode()).hexdigest()
    assert digest == digests[resolve_engine("auto")]


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
def test_registry_plans_draw_nothing_per_block_or_case(monkeypatch, quick):
    """Building a registry plan samples no fuzz case and derives at most
    one seed per fleet population, none per block: block and fuzz jobs
    carry ``(seed, index)`` and derive their streams themselves, so a
    warm run, whose jobs all hit the cache, makes no draw."""
    import sys

    from repro.fleet.engine import block_job
    from repro.fuzz import oracles
    from repro.reliability.montecarlo import simulate_block
    from repro.runner.registry import FIGURES
    from repro.util import rng

    derived = []
    real = rng.derive_seed

    def counted(seed, index):
        derived.append((seed, index))
        return real(seed, index)

    # Every binding of the one derivation: ``derive_seeds`` calls it too.
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("repro"):
            if getattr(module, "derive_seed", None) is real:
                monkeypatch.setattr(module, "derive_seed", counted)
    sampled = []
    for key, pair in oracles.ORACLE_PAIRS.items():

        def sample(rng_, quick_, _real=pair.sample, _key=key):
            sampled.append(_key)
            return _real(rng_, quick_)

        monkeypatch.setitem(
            oracles.ORACLE_PAIRS, key, dataclasses.replace(pair, sample=sample)
        )

    for key, spec in FIGURES.items():
        derived.clear()
        jobs = spec.plan(quick=quick).jobs
        populations = {
            job.seed for job in jobs if job.fn in (block_job, simulate_block)
        }
        assert len(derived) <= len(populations), (key, derived)
    assert sampled == []


class TestGroupedTraceJobs:
    """Jobs sharing a ``group`` (the trace jobs of one trace) run one
    group after another, so the one-batch trace memo draws each trace
    once; results, values and identities do not move."""

    def test_groups_run_together_in_order_of_first_appearance(self):
        log = []
        groups = ["a", None, "b", "a", None, "b"]
        jobs = [
            Job.create(f"j{i}", _note, seed=0, group=group, x=i, log=log)
            for i, group in enumerate(groups)
        ]
        results = run_jobs(jobs, max_workers=1)
        assert log == [0, 3, 1, 2, 5, 4]
        assert [r.name for r in results] == [j.name for j in jobs]
        assert [r.value for r in results] == list(range(6))

    @staticmethod
    def _interleaved_jobs():
        """Figure 7.1's jobs followed by Figures 7.2/7.3's, same mixes."""
        kwargs = dict(mixes=ALL_MIXES[:3], instructions_per_core=3_000)
        return plan_fig7_1(**kwargs).jobs + plan_fig7_2_7_3(**kwargs).jobs

    @pytest.mark.skipif(
        not kernel_available(),
        reason=f"compiled replay kernel unavailable: {kernel_provenance()}",
    )
    def test_each_trace_is_drawn_once(self, monkeypatch):
        trace.trace_rng_provenance()  # the probe's batches are not counted
        calls = collections.Counter()
        original = trace._build_batch

        def counted(*args):
            calls[args[:4]] += 1
            return original(*args)

        monkeypatch.setattr(trace, "_build_batch", counted)
        trace.clear_trace_memo()
        jobs = self._interleaved_jobs()
        results = run_jobs(jobs, max_workers=1)
        trace.clear_trace_memo()
        assert [r.name for r in results] == [j.name for j in jobs]
        assert len(calls) == 3
        assert set(calls.values()) == {1}

    def test_values_identical_at_one_and_two_workers(self):
        jobs = self._interleaved_jobs()
        inline = run_jobs(jobs, max_workers=1)
        pooled = run_jobs(jobs, max_workers=2)
        assert [r.name for r in pooled] == [j.name for j in jobs]
        assert [r.value for r in inline] == [r.value for r in pooled]

    def test_group_is_not_part_of_the_identity(self):
        (job,) = point_jobs(
            "fig7.1",
            [mix_by_name("Mix1")],
            [("arcc", ARCC_MEMORY_CONFIG, 0.0)],
            instructions_per_core=2_000,
            seed=7,
        )
        assert job.name == "fig7.1[Mix1][arcc]"
        assert job.group == (
            "Mix1", tuple(mix_by_name("Mix1").profiles), 7, 2_000
        )
        digest = hashlib.sha256(job_identity(job).encode()).hexdigest()
        assert digest == POINT_JOB_IDENTITY_SHA256[resolve_engine("auto")]
        assert job == dataclasses.replace(job, group=None)


class TestCacheReproducibility:
    """A warm cache must replay exactly what the cold run computed."""

    def test_fig7_2_cache_hits_reproduce_cold_run(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        kwargs = dict(mixes=ALL_MIXES[:2], instructions_per_core=4_000)
        cold = execute_plan(
            plan_fig7_2_7_3(**kwargs),
            max_workers=1,
            cache=cache,
        )
        warm = execute_plan(
            plan_fig7_2_7_3(**kwargs),
            max_workers=4,
            cache=cache,
        )
        assert cold.ratios == warm.ratios

    def test_cache_shares_points_across_figures(self, tmp_path):
        """The fault-free ARCC point is one entry for fig7.1/7.2/sens."""
        from repro.experiments.fig7_1 import plan_fig7_1
        from repro.experiments.fig7_2_7_3 import plan_fig7_2_7_3
        from repro.experiments.sensitivity import (
            plan_sweep_upgraded_fraction_measured,
        )

        cache = ResultCache(str(tmp_path / "cache"))
        mixes = ALL_MIXES[:1]
        fig71 = plan_fig7_1(mixes=mixes, instructions_per_core=4_000)
        fig72 = plan_fig7_2_7_3(mixes=mixes, instructions_per_core=4_000)
        sens = plan_sweep_upgraded_fraction_measured(
            mixes=mixes, fractions=(0.0, 1.0), instructions_per_core=4_000
        )
        arcc_point = fig71.jobs[1]  # (Mix1, ARCC, 0.0)
        baseline_point = fig72.jobs[0]  # fig7.2's fault-free job
        zero_point = sens.jobs[0]  # sensitivity's 0.0 job
        assert cache.key(arcc_point) == cache.key(baseline_point)
        assert cache.key(arcc_point) == cache.key(zero_point)
        # And the baseline-organization / faulty points do NOT collide.
        assert cache.key(fig71.jobs[0]) != cache.key(arcc_point)
        assert cache.key(fig72.jobs[1]) != cache.key(baseline_point)


@pytest.mark.slow
class TestFigureParallelismHeavy:
    """Closer-to-paper-scale determinism sweep (kept out of quick loops)."""

    def test_fig3_1_default_multipliers_identical(self):
        a = execute_plan(plan_fig3_1(years=7, channels=300), max_workers=1)
        b = execute_plan(plan_fig3_1(years=7, channels=300), max_workers=4)
        assert a.series == b.series
