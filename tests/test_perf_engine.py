"""Behavioural and property tests for the trace-replay engine.

:func:`repro.perf.engine.replay` must be *bit-identical* to the oracle
``TraceSimulator.run`` — same per-core instruction and cycle counts,
same miss counts, same power totals — not merely close: every figure
runs on it, so any drift is a silent change to the reproduction. The
golden matrix of ``tests/test_kernel_equivalence.py`` holds that line
for the compiled tier across every mix, fraction and organization; the
tests here pin ``replay``'s own contract on both tiers (the compiled
one skips where the kernel cannot be built) — odd channel counts, the
LLC geometry it is handed, the upgrades-require-ARCC check (when a
point or a plan is built) and the runner-job payload — plus the trace
materialization, the page classifier and the route decode it runs on.
"""

import dataclasses

import numpy as np
import pytest
from test_custom_organizations import CUSTOM_ORGANIZATIONS

from repro.config import (
    ARCC_MEMORY_CONFIG,
    BASELINE_MEMORY_CONFIG,
    PROCESSOR_CONFIG,
)
from repro.dram.addressing import AddressMapping, decode_lines
from repro.experiments.fig7_1 import plan_fig7_1
from repro.experiments.fig7_2_7_3 import plan_fig7_2_7_3
from repro.experiments.fig7_4_7_5 import plan_fig7_4_7_5_measured
from repro.experiments.sensitivity import plan_sweep_upgraded_fraction_measured
from repro.fleet.measured import plan_measured_profiles
from repro.fleet.policies import plan_fleet_compare_measured
from repro.perf import engine as engine_module
from repro.perf import trace as trace_module
from repro.perf._kernel.driver import replay_compiled
from repro.perf._kernel.loader import kernel_available, kernel_provenance
from repro.perf.engine import (
    SweepPoint,
    arcc_capable,
    plan_trace_ratios,
    point_job,
    point_jobs,
    replay,
    simulate_point_job,
)
from repro.perf.simulator import (
    PAGE_HASH_MODULUS,
    PAGE_HASH_MULTIPLIER,
    TraceSimulator,
    page_is_upgraded,
)
from repro.perf.trace import materialize_mix
from repro.runner.executor import execute_plan
from repro.runner.job import job_identity
from repro.workloads.spec import ALL_MIXES, WorkloadMix, mix_by_name
from repro.workloads.trace import CoreTrace, TraceGenerator

#: Quick scale of the trace checks (the registry's --quick setting).
QUICK_INSTRUCTIONS = 20_000

#: The two concrete tiers ``replay`` dispatches to; the compiled one
#: skips, naming the loader's reason, where the kernel cannot be built.
TIERS = [
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not kernel_available(),
            reason=f"compiled replay kernel unavailable: {kernel_provenance()}",
        ),
    ),
    "reference",
]

ONE_CHANNEL = dataclasses.replace(
    ARCC_MEMORY_CONFIG, name="ARCC-1ch", channels=1
)

#: A 4-way LLC with 1 KB lines: 256 sets instead of the default 1024,
#: so a quick run of a memory-heavy mix already evicts.
SMALL_LLC_PROCESSOR = dataclasses.replace(
    PROCESSOR_CONFIG, l2_assoc=4, cacheline_bytes=1024
)


def result_fingerprint(result):
    """Everything a MixResult exposes, as an exactly-comparable tuple."""
    return (
        [(c.benchmark, c.instructions, c.cycles) for c in result.cores],
        result.power.total_w,
        result.power.background_w,
        result.power.dynamic_w,
        tuple(result.power.per_rank_w),
        result.llc_miss_rate,
        result.average_memory_latency_ns,
    )


class TestReplay:
    def test_upgrades_require_arcc(self):
        """Rejected when the point is built, on every tier; the oracle
        keeps its own copy of the check."""
        with pytest.raises(ValueError, match="'ARCC-1ch' has 1 channel"):
            SweepPoint(config=ONE_CHANNEL, upgraded_fraction=0.25)
        with pytest.raises(ValueError, match="'ARCC-1ch' has 1 channel"):
            TraceSimulator(ONE_CHANNEL, upgraded_fraction=0.5)
        # One channel is fine while nothing is upgraded.
        SweepPoint(config=ONE_CHANNEL)
        TraceSimulator(ONE_CHANNEL)

    @pytest.mark.parametrize(
        "config, fraction, accepted",
        [
            (ARCC_MEMORY_CONFIG, 0.5, True),
            (ARCC_MEMORY_CONFIG, 1.0, True),
            (BASELINE_MEMORY_CONFIG, 0.5, True),
            (
                dataclasses.replace(
                    ARCC_MEMORY_CONFIG, name="ARCC-3ch", channels=3
                ),
                0.5,
                True,
            ),
            (ONE_CHANNEL, 0.25, False),
            (ONE_CHANNEL, 1.0, False),
            (ONE_CHANNEL, 0.0, True),
        ],
        ids=[
            "arcc-upgraded",
            "arcc-all-upgraded",
            "baseline-upgraded",
            "three-channel-upgraded",
            "one-channel-upgraded",
            "one-channel-all-upgraded",
            "one-channel-clean",
        ],
    )
    def test_point_validation(self, config, fraction, accepted):
        """Which points can be built, as a point and as a runner job."""
        point = dict(config=config, upgraded_fraction=fraction)
        job = dict(
            point, mix=mix_by_name("Mix1"), instructions_per_core=2_000,
            seed=7,
        )
        if not accepted:
            with pytest.raises(ValueError, match="ARCC pairing"):
                SweepPoint(**point)
            with pytest.raises(ValueError, match="ARCC pairing"):
                point_job("p", **job)
            return
        assert SweepPoint(**point).config == config
        assert dict(point_job("p", **job).config)["config"] == config

    @pytest.mark.parametrize("engine", TIERS)
    def test_odd_channel_counts_simulate_like_the_oracle(self, engine):
        """Sub-lines share a channel iff channels == 1, not 'odd'.

        A three-channel organization interleaves siblings onto
        different channels (addr and addr^1 differ by one), so it must
        simulate — identically to the oracle — rather than be rejected.
        """
        config3 = dataclasses.replace(
            ARCC_MEMORY_CONFIG, name="ARCC-3ch", channels=3
        )
        mix = mix_by_name("Mix1")
        legacy = TraceSimulator(
            config3, upgraded_fraction=0.25, seed=0x7ACE
        ).run(mix, instructions_per_core=5_000)
        replayed = replay(
            mix, SweepPoint(config=config3, upgraded_fraction=0.25),
            5_000, 0x7ACE, engine=engine,
        )
        assert result_fingerprint(legacy) == result_fingerprint(replayed)

    @pytest.mark.parametrize("engine", TIERS)
    def test_processor_reaches_the_tier(self, engine):
        """``processor`` is the LLC geometry the tier replays with."""
        mix = mix_by_name("Mix10")
        point = SweepPoint(upgraded_fraction=0.25)
        small = replay(
            mix, point, QUICK_INSTRUCTIONS, 0x7ACE, engine=engine,
            processor=SMALL_LLC_PROCESSOR,
        )
        oracle = TraceSimulator(
            ARCC_MEMORY_CONFIG,
            SMALL_LLC_PROCESSOR,
            upgraded_fraction=0.25,
            seed=0x7ACE,
        ).run(mix, instructions_per_core=QUICK_INSTRUCTIONS)
        assert result_fingerprint(small) == result_fingerprint(oracle)
        default = replay(
            mix, point, QUICK_INSTRUCTIONS, 0x7ACE, engine=engine
        )
        assert small.llc_miss_rate > default.llc_miss_rate

    @pytest.mark.parametrize("engine", TIERS)
    @pytest.mark.parametrize(
        "processor",
        [
            # 5461 sets: odd, so sub-line pairs cannot sit in s, s ^ 1.
            dataclasses.replace(PROCESSOR_CONFIG, l2_assoc=3),
            # One set.
            dataclasses.replace(PROCESSOR_CONFIG, cacheline_bytes=65536),
        ],
        ids=["odd-sets", "one-set"],
    )
    def test_unpairable_llc_rejected_on_every_tier(self, engine, processor):
        """Both tiers refuse an LLC that cannot hold sub-line pairs,
        with the same error."""
        with pytest.raises(
            ValueError, match="need an even number of sets >= 2"
        ):
            replay(
                mix_by_name("Mix1"), SweepPoint(), 3_000, 3,
                engine=engine, processor=processor,
            )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            replay(mix_by_name("Mix1"), SweepPoint(), 1_000, 0, engine="python")

    @pytest.mark.skipif(
        not kernel_available(),
        reason=f"compiled replay kernel unavailable: {kernel_provenance()}",
    )
    def test_compiled_tier_replays_the_memoized_trace(self):
        """Points of one (mix, seed, budget) materialize its trace once,
        and the compiled tier is the driver over that memoized batch."""
        mix = mix_by_name("Mix4")
        seed, instructions = 0x5EED1, 3_000
        before = trace_module._materialize.cache_info()
        results = [
            replay(
                mix, SweepPoint(upgraded_fraction=f), instructions, seed,
                engine="compiled",
            )
            for f in (0.0, 0.5, 1.0)
        ]
        after = trace_module._materialize.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 2
        batch = materialize_mix(mix, seed, instructions)
        for f, result in zip((0.0, 0.5, 1.0), results):
            direct, _ = replay_compiled(
                batch, SweepPoint(upgraded_fraction=f), PROCESSOR_CONFIG
            )
            assert result_fingerprint(result) == result_fingerprint(direct)

    def test_point_job_returns_plain_floats(self):
        """The runner-job payload must be small and picklable, and it is
        ``replay``'s result at the job's point."""
        mix = mix_by_name("Mix1")
        payload = simulate_point_job(
            mix=mix,
            config=ARCC_MEMORY_CONFIG,
            upgraded_fraction=0.0625,
            instructions_per_core=5_000,
            seed=0x7ACE,
        )
        assert set(payload) == {
            "power_w",
            "background_w",
            "dynamic_w",
            "performance",
            "llc_miss_rate",
            "average_memory_latency_ns",
        }
        assert all(isinstance(v, float) for v in payload.values())
        result = replay(
            mix, SweepPoint(upgraded_fraction=0.0625), 5_000, 0x7ACE
        )
        assert payload["power_w"] == result.power.total_w
        assert payload["performance"] == result.performance

    @pytest.mark.parametrize("checksum", [False, True], ids=["plain", "lotecc"])
    @pytest.mark.parametrize("engine", TIERS)
    def test_point_job_is_replay_at_its_point(self, engine, checksum):
        """Every payload field is ``replay``'s, with the job's tier and
        LOT-ECC checksum flag passed through."""
        mix = mix_by_name("Mix2")
        payload = simulate_point_job(
            mix=mix,
            config=ARCC_MEMORY_CONFIG,
            upgraded_fraction=0.25,
            instructions_per_core=3_000,
            seed=0x7ACE,
            engine=engine,
            lotecc_checksum=checksum,
        )
        result = replay(
            mix,
            SweepPoint(upgraded_fraction=0.25, lotecc_checksum=checksum),
            3_000,
            0x7ACE,
            engine=engine,
        )
        assert payload == {
            "power_w": result.power.total_w,
            "background_w": result.power.background_w,
            "dynamic_w": result.power.dynamic_w,
            "performance": result.performance,
            "llc_miss_rate": result.llc_miss_rate,
            "average_memory_latency_ns": result.average_memory_latency_ns,
        }


class TestTraceMaterialization:
    def test_access_for_access_agreement_with_core_trace(self):
        """The arrays hold exactly what the iterators would have drawn."""
        mix = mix_by_name("Mix5")
        batch = materialize_mix(mix, seed=77, instructions_per_core=10_000)
        traces = TraceGenerator(mix.profiles, seed=77).core_traces()
        for core, trace in enumerate(traces):
            view = batch.core_slice(core)
            addresses = batch.line_addresses[view].tolist()
            writes = batch.write_flags[view].tolist()
            gaps = batch.instruction_gaps[view].tolist()
            total = 0
            for i in range(len(addresses)):
                access = next(trace)
                assert access.line_address == addresses[i]
                assert access.is_write == writes[i]
                assert access.instructions_since_last == gaps[i]
                total += access.instructions_since_last
            # The stopping rule is the legacy loop's: the core retires
            # its quota exactly at the last materialized access.
            assert total >= 10_000
            assert total - gaps[-1] < 10_000

    def test_memoized_by_value(self):
        a = materialize_mix(mix_by_name("Mix1"), 5, 2_000)
        b = materialize_mix(mix_by_name("Mix1"), 5, 2_000)
        c = materialize_mix(mix_by_name("Mix1"), 6, 2_000)
        assert a is b
        assert c is not a

    def test_gap_cycles_matches_scalar_division(self):
        batch = materialize_mix(mix_by_name("Mix4"), 9, 2_000)
        gap_cycles = batch.gap_cycles()
        for core, profile in enumerate(batch.profiles):
            view = batch.core_slice(core)
            for gap, cycles in zip(
                batch.instruction_gaps[view].tolist(),
                gap_cycles[view].tolist(),
            ):
                assert cycles == gap / profile.base_ipc


class TestInstructionBudget:
    """A budget below one instruction per core fails at every entry
    point, naming ``instructions_per_core``: the replay kernel reads a
    core's first access before it checks for the end of the stream, so
    an empty core crashed the interpreter."""

    @pytest.mark.parametrize("budget", [0, -3])
    def test_materialize_mix_rejects(self, budget):
        with pytest.raises(ValueError, match="instructions_per_core"):
            materialize_mix(mix_by_name("Mix1"), 3, budget)

    @pytest.mark.parametrize("engine", TIERS)
    @pytest.mark.parametrize("budget", [0, -3])
    def test_replay_rejects(self, engine, budget):
        with pytest.raises(ValueError, match="instructions_per_core"):
            replay(mix_by_name("Mix1"), SweepPoint(), budget, 3, engine=engine)

    @pytest.mark.parametrize(
        "build",
        [
            plan_fig7_1,
            plan_fig7_2_7_3,
            plan_sweep_upgraded_fraction_measured,
            plan_measured_profiles,
            plan_fleet_compare_measured,
            plan_fig7_4_7_5_measured,
        ],
    )
    @pytest.mark.parametrize("budget", [0, -3])
    def test_plan_builders_reject_at_build_time(self, build, budget):
        with pytest.raises(ValueError, match="instructions_per_core"):
            build(mixes=ALL_MIXES[:1], instructions_per_core=budget)

    @pytest.mark.skipif(
        not kernel_available(),
        reason=f"compiled replay kernel unavailable: {kernel_provenance()}",
    )
    def test_driver_refuses_an_empty_core(self):
        mix = mix_by_name("Mix1")
        batch = trace_module._build_batch(
            mix.name, tuple(mix.profiles), 3, 0, None
        )
        assert batch.accesses == 0
        with pytest.raises(ValueError, match="at least one access"):
            replay_compiled(batch, SweepPoint(), PROCESSOR_CONFIG)

    def test_kernel_buffers_refuse_one_empty_core(self):
        """The check runs once per batch, where its buffers are
        built, and names the first core without an access."""
        batch = materialize_mix(mix_by_name("Mix1"), 3, 2_000)
        offsets = batch.core_offsets.copy()
        offsets[2] = offsets[3]  # core 2's slice becomes empty
        bad = dataclasses.replace(batch, core_offsets=offsets)
        with pytest.raises(ValueError, match="no access on core 2"):
            bad.kernel_buffers
        assert batch.kernel_buffers.arrays[0].size == batch.accesses


class TestUnpairablePointsFailAtBuild:
    """An upgraded point on a one-channel organization fails when its
    plan is built, with :class:`SweepPoint`'s message, on every trace
    plan builder: no worker ever runs a paired access on one channel."""

    def test_measured_fraction_sweep(self):
        with pytest.raises(ValueError, match="'ARCC-1ch' has 1 channel"):
            plan_sweep_upgraded_fraction_measured(
                mixes=ALL_MIXES[:1], instructions_per_core=2_000,
                config=ONE_CHANNEL,
            )

    def test_measured_profiles(self):
        with pytest.raises(ValueError, match="'ARCC-1ch' has 1 channel"):
            plan_measured_profiles(
                organizations=(ONE_CHANNEL,), mixes=ALL_MIXES[:1],
                instructions_per_core=2_000,
            )

    def test_measured_fleet_comparison(self):
        from repro.fleet.scenarios import FleetScenario, SubPopulation

        scenario = FleetScenario(
            name="one-channel",
            description="a one-channel organization",
            populations=(
                SubPopulation(name="a", channels=64, config=ONE_CHANNEL),
            ),
        )
        with pytest.raises(ValueError, match="'ARCC-1ch' has 1 channel"):
            plan_fleet_compare_measured(
                scenario, mixes=ALL_MIXES[:1], instructions_per_core=2_000
            )


class TestTraceRatioPlan:
    """:func:`plan_trace_ratios`, the one normalization plan behind
    Figures 7.2/7.3, the measured fraction sweep and the measured
    policy weights."""

    @staticmethod
    def _plan(fractions, **kwargs):
        return plan_trace_ratios(
            "demo",
            ALL_MIXES[:2],
            fractions,
            ARCC_MEMORY_CONFIG,
            instructions_per_core=2_000,
            seed=7,
            **kwargs,
        )

    def test_zero_entry_is_the_baseline_not_a_second_job(self):
        plan = self._plan((0.0, 0.25, 1.0))
        assert len(plan.jobs) == 6
        fractions = [dict(job.config)["upgraded_fraction"] for job in plan.jobs]
        assert fractions == [0.0, 0.25, 1.0] * 2
        assert len(self._plan((0.25, 1.0)).jobs) == 6

    def test_duplicate_fractions_are_kept(self):
        plan = self._plan((1.0, 0.5, 1.0))
        assert len(plan.jobs) == 8
        identities = [job_identity(job) for job in plan.jobs]
        assert identities[1] == identities[3]
        assert len(set(identities)) == 6

    def test_lotecc_baseline_replays_in_checksum_mode(self):
        relaxed, checksum = (
            self._plan((0.25,), **kwargs).jobs
            for kwargs in ({}, {"lotecc_checksum": True})
        )
        assert all(dict(job.config)["lotecc_checksum"] for job in checksum)
        # Relaxed jobs leave the flag out: their identities stay those
        # of Figure 7.1's ARCC point and the Figure 7.2 baseline.
        assert all("lotecc_checksum" not in dict(job.config) for job in relaxed)
        fig71 = plan_fig7_1(mixes=ALL_MIXES[:1], instructions_per_core=2_000, seed=7)
        assert job_identity(relaxed[0]) == job_identity(fig71.jobs[1])
        assert job_identity(checksum[0]) != job_identity(relaxed[0])

    def test_ratio_at_zero_is_exactly_one(self):
        ratios = execute_plan(self._plan((0.0, 0.5)))
        assert list(ratios) == [
            (mix.name, fraction)
            for mix in ALL_MIXES[:2]
            for fraction in (0.0, 0.5)
        ]
        for mix in ALL_MIXES[:2]:
            assert ratios[(mix.name, 0.0)] == (1.0, 1.0)
            assert ratios[(mix.name, 0.5)] != (1.0, 1.0)

    def test_duplicate_mix_names_rejected_at_build(self):
        """Ratios are keyed by mix name: a second mix under a name
        already planned would be replayed and then dropped."""
        impostor = WorkloadMix("Mix1", ALL_MIXES[9].benchmark_names)
        with pytest.raises(ValueError, match="'Mix1' appears more than once"):
            plan_fig7_2_7_3(
                mixes=[ALL_MIXES[0], impostor], instructions_per_core=300
            )
        for build in (
            lambda mixes: plan_sweep_upgraded_fraction_measured(mixes=mixes),
            lambda mixes: plan_measured_profiles(mixes=mixes),
            lambda mixes: plan_trace_ratios(
                "demo", mixes, (0.5,), ARCC_MEMORY_CONFIG, 300, seed=7
            ),
        ):
            with pytest.raises(ValueError, match="appears more than once"):
                build([ALL_MIXES[1], ALL_MIXES[1]])

    def test_sweep_without_zero_still_raises(self):
        with pytest.raises(ValueError, match="0.0 point"):
            plan_sweep_upgraded_fraction_measured(
                mixes=ALL_MIXES[:2], fractions=(0.25, 1.0)
            )
        with pytest.raises(
            ValueError, match=r"^fractions\[1\]: must be <= 1, got 1\.5$"
        ):
            plan_sweep_upgraded_fraction_measured(
                mixes=ALL_MIXES[:2], fractions=(0.0, 1.5)
            )


class TestPointJobs:
    """:func:`point_jobs`, behind every trace plan, makes
    :func:`point_job`'s jobs and does the work that depends only on the
    plan once per plan."""

    #: Each trace planner at a small scale, over every mix.
    BUILDS = {
        "trace-ratios": lambda: plan_trace_ratios(
            "demo", None, (0.25, 0.5, 1.0), ARCC_MEMORY_CONFIG, 2_000, seed=7
        ),
        "fig7.1": lambda: plan_fig7_1(instructions_per_core=2_000),
        "fig7.2": lambda: plan_fig7_2_7_3(instructions_per_core=2_000),
    }

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        original = getattr(engine_module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine_module, name, counted)
        return calls

    @pytest.mark.parametrize("key", list(BUILDS))
    def test_one_tier_resolution_per_plan(self, monkeypatch, key):
        calls = self._count(monkeypatch, "resolve_engine")
        plan = self.BUILDS[key]()
        assert len(plan.jobs) >= 2 * len(ALL_MIXES)
        assert calls == [("auto",)]

    def test_each_pairing_checked_once(self, monkeypatch):
        """One point built per fraction of the grid, not per mix."""
        calls = self._count(monkeypatch, "SweepPoint")
        plan = self.BUILDS["trace-ratios"]()
        assert len(plan.jobs) == 4 * len(ALL_MIXES)
        assert calls == [
            (ARCC_MEMORY_CONFIG, fraction) for fraction in (0.0, 0.25, 0.5, 1.0)
        ]

    @pytest.mark.parametrize("extra", [{}, {"lotecc_checksum": True}])
    def test_jobs_are_point_jobs(self, extra):
        points = [
            ("clean", ARCC_MEMORY_CONFIG, 0.0),
            ("quarter", ARCC_MEMORY_CONFIG, 0.25),
            ("base", BASELINE_MEMORY_CONFIG, 0.5),
        ]
        jobs = point_jobs("demo", ALL_MIXES[:3], points, 2_000, 7, **extra)
        singles = [
            point_job(
                f"demo[{mix.name}][{label}]",
                mix=mix,
                config=config,
                upgraded_fraction=fraction,
                instructions_per_core=2_000,
                seed=7,
                **extra,
            )
            for mix in ALL_MIXES[:3]
            for label, config, fraction in points
        ]
        assert jobs == singles
        assert [(job.name, job.group, job_identity(job)) for job in jobs] == [
            (job.name, job.group, job_identity(job)) for job in singles
        ]

    def test_unpairable_point_rejected_without_mixes(self):
        one_channel = dataclasses.replace(
            ARCC_MEMORY_CONFIG, name="ARCC-1ch", channels=1
        )
        with pytest.raises(ValueError, match="ARCC pairing"):
            point_jobs("demo", [], [("x", one_channel, 0.5)], 2_000, 7)


class TestPageUpgradeProperties:
    """Satellite: property tests for the golden-ratio classifier."""

    def test_fraction_zero_upgrades_nothing(self):
        for page in range(0, 100_000, 97):
            assert not page_is_upgraded(page, 0.0)

    def test_fraction_one_upgrades_everything(self):
        for page in range(0, 100_000, 97):
            assert page_is_upgraded(page, 1.0)

    def test_upgraded_set_monotone_in_fraction(self):
        """A page upgraded at fraction f stays upgraded at every f' > f."""
        pages = range(50_000)
        fractions = (0.01, 0.03125, 0.0625, 0.125, 0.25, 0.5, 0.9)
        previous = {p for p in pages if page_is_upgraded(p, 0.0)}
        for fraction in fractions:
            current = {p for p in pages if page_is_upgraded(p, fraction)}
            assert previous <= current, fraction
            previous = current

    def test_empirical_density_matches_fraction(self):
        """The hash spreads the fraction uniformly over a big page range."""
        pages = range(200_000)
        for fraction in (0.03125, 0.0625, 0.25, 0.5, 0.75):
            upgraded = sum(page_is_upgraded(p, fraction) for p in pages)
            assert abs(upgraded / len(pages) - fraction) < 0.01, fraction

    def test_kernel_threshold_matches_scalar(self):
        """The compiled kernel's form of the rule: the low 32 bits of a
        wrapping 64-bit product, as a double, below ``fraction * 2**32``
        (``0.0`` when nothing is upgraded) — with no special case for
        fraction 0 or 1."""
        rng = np.random.default_rng(3)
        pages = rng.integers(0, 1 << 40, size=4_000, dtype=np.uint64)
        low_words = (
            (pages * np.uint64(PAGE_HASH_MULTIPLIER)) & np.uint64(0xFFFFFFFF)
        ).astype(np.float64)
        for fraction in (0.0, 1e-9, 0.03125, 0.5, 0.999999, 1.0):
            below = fraction * PAGE_HASH_MODULUS if fraction > 0.0 else 0.0
            scalar = [page_is_upgraded(int(p), fraction) for p in pages]
            assert (low_words < below).tolist() == scalar, fraction

    def test_deterministic_across_calls(self):
        pages = range(5_000)
        a = [page_is_upgraded(p, 0.3) for p in pages]
        b = [page_is_upgraded(p, 0.3) for p in pages]
        assert a == b


class TestDecodeLines:
    @pytest.mark.parametrize(
        "config", (ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG),
        ids=lambda c: c.name,
    )
    def test_matches_scalar_decoder(self, config):
        mapping = AddressMapping(config)
        rng = np.random.default_rng(11)
        addresses = rng.integers(0, 1 << 24, size=2_000)
        channel, rank, bank = decode_lines(addresses, config)
        for i, address in enumerate(addresses.tolist()):
            decoded = mapping.decode(address)
            assert channel[i] == decoded.channel
            assert rank[i] == decoded.rank
            assert bank[i] == decoded.bank

    @pytest.mark.parametrize(
        "config",
        (ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG) + CUSTOM_ORGANIZATIONS,
        ids=lambda c: c.name,
    )
    def test_coordinates_depend_only_on_residue(self, config):
        """The compiled tier routes through a table of ``M = channels x
        banks x ranks`` entries indexed by ``addr mod M``."""
        m = (
            config.channels
            * config.banks_per_device
            * config.ranks_per_channel
        )
        rng = np.random.default_rng(5)
        addresses = rng.integers(0, 1 << 40, size=2_000)
        full = decode_lines(addresses, config)
        table = decode_lines(np.arange(m), config)
        for coordinate, row in zip(full, table):
            assert (coordinate == row[addresses % m]).all()

    def test_sibling_lands_on_other_channel(self):
        """The property the paired fetch depends on (Figure 4.1)."""
        addresses = np.arange(4_096)
        channel, _, _ = decode_lines(addresses, ARCC_MEMORY_CONFIG)
        sibling_channel, _, _ = decode_lines(
            addresses ^ 1, ARCC_MEMORY_CONFIG
        )
        assert (channel != sibling_channel).all()

    @pytest.mark.parametrize(
        "config",
        (BASELINE_MEMORY_CONFIG,) + CUSTOM_ORGANIZATIONS + (ONE_CHANNEL,),
        ids=lambda c: c.name,
    )
    def test_sibling_channel_split_iff_multichannel(self, config):
        """Sub-lines ``addr`` and ``addr ^ 1`` sit on different channels
        exactly when the organization has more than one — the rule
        ``arcc_capable`` screens organizations with."""
        addresses = np.arange(4_096)
        channel, _, _ = decode_lines(addresses, config)
        sibling_channel, _, _ = decode_lines(addresses ^ 1, config)
        split = channel != sibling_channel
        assert split.all() if arcc_capable(config) else not split.any()


class TestUpgradedPagesSeeTraffic:
    def test_upgraded_fraction_changes_power(self):
        """Sanity: the replayed points actually differ (not vacuous tests)."""
        mix = mix_by_name("Mix1")
        clean, faulty = (
            replay(
                mix, SweepPoint(upgraded_fraction=f), QUICK_INSTRUCTIONS,
                0x7ACE,
            )
            for f in (0.0, 1.0)
        )
        assert faulty.power.total_w > clean.power.total_w

    def test_lines_per_page_matches_trace_constant(self):
        """The classifier pages on CoreTrace.LINES_PER_PAGE (64 lines)."""
        assert CoreTrace.LINES_PER_PAGE == 64
        # Any two lines of one page share an upgrade decision.
        for fraction in (0.25, 0.5):
            base = 1234 * CoreTrace.LINES_PER_PAGE
            decisions = {
                page_is_upgraded(
                    (base + offset) // CoreTrace.LINES_PER_PAGE, fraction
                )
                for offset in range(CoreTrace.LINES_PER_PAGE)
            }
            assert len(decisions) == 1
