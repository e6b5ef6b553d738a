"""Behavioural and property tests for the trace-replay engine.

:func:`repro.perf.engine.replay` must be *bit-identical* to the oracle
``TraceSimulator.run`` — same per-core instruction and cycle counts,
same miss counts, same power totals — not merely close: every figure
runs on it, so any drift is a silent change to the reproduction. The
golden matrix of ``tests/test_kernel_equivalence.py`` holds that line
for the compiled tier across every mix, fraction and organization; the
tests here pin ``replay``'s own contract on both tiers (the compiled
one skips where the kernel cannot be built) — odd channel counts, the
single-channel error, the LLC geometry it is handed, the
upgrades-require-ARCC check and the runner-job payload — plus the trace
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
from repro.dram.addressing import AddressMapping, MappingPolicy
from repro.perf import trace as trace_module
from repro.perf._kernel import (
    kernel_available,
    kernel_provenance,
    replay_compiled,
)
from repro.perf.engine import (
    SweepPoint,
    arcc_capable,
    decode_lines,
    replay,
    simulate_point_job,
    upgraded_page_flags,
)
from repro.perf.simulator import TraceSimulator, page_is_upgraded
from repro.perf.trace import materialize_mix
from repro.workloads.spec import mix_by_name
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
        with pytest.raises(ValueError, match="ARCC-capable"):
            SweepPoint(upgraded_fraction=0.5, arcc_enabled=False)
        single = dataclasses.replace(
            ARCC_MEMORY_CONFIG, name="ARCC-1ch", channels=1
        )
        with pytest.raises(ValueError, match="ARCC-capable"):
            SweepPoint(config=single, upgraded_fraction=0.25)
        with pytest.raises(ValueError, match="ARCC-capable"):
            TraceSimulator(upgraded_fraction=0.5, arcc_enabled=False)
        # Pairing off is fine while nothing is upgraded.
        assert not SweepPoint(arcc_enabled=False).resolved_arcc()

    @pytest.mark.parametrize(
        "config, fraction, arcc_enabled, accepted, paired",
        [
            (ARCC_MEMORY_CONFIG, 0.5, None, True, True),
            (ARCC_MEMORY_CONFIG, 0.5, False, False, None),
            (ARCC_MEMORY_CONFIG, 0.0, False, True, False),
            (BASELINE_MEMORY_CONFIG, 0.5, None, True, True),
            (ONE_CHANNEL, 0.25, None, False, None),
            (ONE_CHANNEL, 0.0, None, True, False),
            # Explicit pairing on one channel is built; the replay
            # raises later (test_single_channel_paired_access_...).
            (ONE_CHANNEL, 1.0, True, True, True),
        ],
        ids=[
            "arcc-upgraded",
            "arcc-unpaired-upgraded",
            "arcc-unpaired-clean",
            "baseline-upgraded",
            "one-channel-upgraded",
            "one-channel-clean",
            "one-channel-forced-pairing",
        ],
    )
    def test_point_validation(
        self, config, fraction, arcc_enabled, accepted, paired
    ):
        """Which points can be built, and the pairing they resolve to."""
        kwargs = dict(
            config=config,
            upgraded_fraction=fraction,
            arcc_enabled=arcc_enabled,
        )
        if not accepted:
            with pytest.raises(ValueError, match="ARCC-capable"):
                SweepPoint(**kwargs)
            return
        assert SweepPoint(**kwargs).resolved_arcc() is paired

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
    def test_single_channel_paired_access_raises_like_the_oracle(
        self, engine
    ):
        """One channel cannot serve both sub-lines: RuntimeError, lazily."""
        mix = mix_by_name("Mix1")
        legacy = TraceSimulator(
            ONE_CHANNEL, upgraded_fraction=1.0, arcc_enabled=True
        )
        point = SweepPoint(
            config=ONE_CHANNEL, upgraded_fraction=1.0, arcc_enabled=True
        )
        with pytest.raises(RuntimeError):
            legacy.run(mix, instructions_per_core=2_000)
        with pytest.raises(RuntimeError):
            replay(mix, point, 2_000, 0x7ACE, engine=engine)

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


class TestPageUpgradeProperties:
    """Satellite: property tests for the golden-ratio classifier."""

    def test_fraction_zero_upgrades_nothing(self):
        for page in range(0, 100_000, 97):
            assert not page_is_upgraded(page, 0.0)
        assert not upgraded_page_flags(np.arange(10_000), 0.0).any()

    def test_fraction_one_upgrades_everything(self):
        for page in range(0, 100_000, 97):
            assert page_is_upgraded(page, 1.0)
        assert upgraded_page_flags(np.arange(10_000), 1.0).all()

    def test_upgraded_set_monotone_in_fraction(self):
        """A page upgraded at fraction f stays upgraded at every f' > f."""
        pages = np.arange(200_000)
        fractions = (0.01, 0.03125, 0.0625, 0.125, 0.25, 0.5, 0.9)
        previous = upgraded_page_flags(pages, 0.0)
        for fraction in fractions:
            current = upgraded_page_flags(pages, fraction)
            assert not (previous & ~current).any(), fraction
            assert current.sum() >= previous.sum()
            previous = current

    def test_empirical_density_matches_fraction(self):
        """The hash spreads the fraction uniformly over a big page range."""
        pages = np.arange(400_000)
        for fraction in (0.03125, 0.0625, 0.25, 0.5, 0.75):
            density = upgraded_page_flags(pages, fraction).mean()
            assert abs(density - fraction) < 0.01, fraction

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        pages = rng.integers(0, 1 << 24, size=4_000)
        for fraction in (0.0, 1e-9, 0.03125, 0.5, 0.999999, 1.0):
            flags = upgraded_page_flags(pages, fraction)
            scalar = [page_is_upgraded(int(p), fraction) for p in pages]
            assert flags.tolist() == scalar, fraction

    def test_deterministic_across_calls(self):
        pages = np.arange(5_000)
        a = upgraded_page_flags(pages, 0.3)
        b = upgraded_page_flags(pages, 0.3)
        assert (a == b).all()


class TestDecodeLines:
    @pytest.mark.parametrize(
        "config", (ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG),
        ids=lambda c: c.name,
    )
    def test_matches_scalar_decoder(self, config):
        mapping = AddressMapping(config, MappingPolicy.HIPERF)
        rng = np.random.default_rng(11)
        addresses = rng.integers(0, 1 << 24, size=2_000)
        channel, rank, bank = decode_lines(addresses, config)
        for i, address in enumerate(addresses.tolist()):
            decoded = mapping.decode(address)
            assert channel[i] == decoded.channel
            assert rank[i] == decoded.rank
            assert bank[i] == decoded.bank

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
