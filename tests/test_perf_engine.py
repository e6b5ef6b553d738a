"""Golden-equivalence and property tests for the batched trace engine.

The batched engine (:mod:`repro.perf.engine`) must be *bit-identical*
to the oracle ``TraceSimulator.run`` — same per-core instruction
and cycle counts, same miss counts, same power totals — not merely
close: every figure now runs on it, so any drift is a silent change to
the reproduction. The tests here hold that line for all 12 Table 7.3
mixes at quick scale, for both Table 7.1 organizations, across the
Table 7.4 fault fractions, and at a deeper scale where LLC sets
saturate and the eviction/writeback machinery is exercised.
"""

import numpy as np
import pytest

from repro.config import (
    ARCC_MEMORY_CONFIG,
    BASELINE_MEMORY_CONFIG,
    PROCESSOR_CONFIG,
)
from repro.dram.addressing import AddressMapping, MappingPolicy
from repro.faults.models import TABLE_7_4_TYPES, upgraded_page_fraction
from repro.perf.engine import (
    BatchedTraceSimulator,
    SweepPoint,
    decode_lines,
    replay_resolved,
    simulate_point_job,
    sweep,
    upgraded_page_flags,
)
from repro.perf.simulator import TraceSimulator, page_is_upgraded
from repro.perf.trace import materialize_mix
from repro.workloads.spec import ALL_MIXES, mix_by_name
from repro.workloads.trace import CoreTrace, TraceGenerator

#: Quick scale of the golden sweep (the registry's --quick setting).
QUICK_INSTRUCTIONS = 20_000

#: The Figure 7.2/7.3 sweep points: fault-free plus every Table 7.4 type.
SWEEP_FRACTIONS = [0.0] + [
    upgraded_page_fraction(ft) for ft in TABLE_7_4_TYPES
]


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


class TestGoldenEquivalence:
    @pytest.mark.parametrize("mix", ALL_MIXES, ids=lambda m: m.name)
    def test_all_mixes_all_fractions_bit_identical(self, mix):
        """The acceptance criterion: every (mix, fraction) at quick scale."""
        for fraction in SWEEP_FRACTIONS:
            legacy = TraceSimulator(
                ARCC_MEMORY_CONFIG, upgraded_fraction=fraction
            ).run(mix, instructions_per_core=QUICK_INSTRUCTIONS)
            batched = BatchedTraceSimulator(
                ARCC_MEMORY_CONFIG, upgraded_fraction=fraction
            ).run(mix, instructions_per_core=QUICK_INSTRUCTIONS)
            assert result_fingerprint(legacy) == result_fingerprint(
                batched
            ), (mix.name, fraction)

    @pytest.mark.parametrize("mix", ALL_MIXES[:4], ids=lambda m: m.name)
    def test_baseline_organization_bit_identical(self, mix):
        legacy = TraceSimulator(BASELINE_MEMORY_CONFIG).run(
            mix, instructions_per_core=QUICK_INSTRUCTIONS
        )
        batched = BatchedTraceSimulator(BASELINE_MEMORY_CONFIG).run(
            mix, instructions_per_core=QUICK_INSTRUCTIONS
        )
        assert result_fingerprint(legacy) == result_fingerprint(batched)

    def test_eviction_heavy_scale_bit_identical(self):
        """Deep run: LLC sets saturate, evictions and writebacks flow.

        Mix10 is the most memory-intensive mix; at 300k instructions its
        working set overfills many LLC sets, so this exercises victim
        selection, paired evictions and writeback traffic — the paths a
        quick-scale run barely touches.
        """
        mix = mix_by_name("Mix10")
        for fraction in (0.0, 1.0):
            legacy = TraceSimulator(
                ARCC_MEMORY_CONFIG, upgraded_fraction=fraction
            ).run(mix, instructions_per_core=300_000)
            batched = BatchedTraceSimulator(
                ARCC_MEMORY_CONFIG, upgraded_fraction=fraction
            ).run(mix, instructions_per_core=300_000)
            assert result_fingerprint(legacy) == result_fingerprint(
                batched
            ), fraction

    def test_nondefault_seed_bit_identical(self):
        mix = mix_by_name("Mix3")
        legacy = TraceSimulator(
            ARCC_MEMORY_CONFIG, upgraded_fraction=0.5, seed=1234
        ).run(mix, instructions_per_core=QUICK_INSTRUCTIONS)
        batched = BatchedTraceSimulator(
            ARCC_MEMORY_CONFIG, upgraded_fraction=0.5, seed=1234
        ).run(mix, instructions_per_core=QUICK_INSTRUCTIONS)
        assert result_fingerprint(legacy) == result_fingerprint(batched)

    def test_sweep_matches_individual_replays(self):
        """A sweep over one batch equals the reference tier point by
        point, which rebuilds the mix from the batch and draws its own
        traces."""
        mix = mix_by_name("Mix2")
        batch = materialize_mix(mix, 0x7ACE, QUICK_INSTRUCTIONS)
        points = [
            SweepPoint(upgraded_fraction=f, lotecc_checksum=checksum)
            for f in (0.0, 0.5, 1.0)
            for checksum in (False, True)
        ] + [SweepPoint(config=BASELINE_MEMORY_CONFIG)]
        swept = sweep(batch, points)
        for point, result in zip(points, swept):
            assert result_fingerprint(result) == result_fingerprint(
                replay_resolved(batch, point, PROCESSOR_CONFIG, "reference")
            )

    def test_upgrades_require_arcc(self):
        with pytest.raises(ValueError):
            BatchedTraceSimulator(
                ARCC_MEMORY_CONFIG, upgraded_fraction=0.5, arcc_enabled=False
            )
        batch = materialize_mix(mix_by_name("Mix1"), 0x7ACE, 1_000)
        point = SweepPoint(upgraded_fraction=0.5, arcc_enabled=False)
        for engine in ("auto", "reference"):
            with pytest.raises(ValueError):
                sweep(batch, [point], engine=engine)

    def test_odd_channel_counts_simulate_like_the_oracle(self):
        """Sub-lines share a channel iff channels == 1, not 'odd'.

        A three-channel organization interleaves siblings onto
        different channels (addr and addr^1 differ by one), so it must
        simulate — identically to the oracle — rather than be rejected.
        """
        import dataclasses

        config3 = dataclasses.replace(
            ARCC_MEMORY_CONFIG, name="ARCC-3ch", channels=3
        )
        mix = mix_by_name("Mix1")
        legacy = TraceSimulator(config3, upgraded_fraction=0.25).run(
            mix, instructions_per_core=5_000
        )
        batched = BatchedTraceSimulator(config3, upgraded_fraction=0.25).run(
            mix, instructions_per_core=5_000
        )
        assert result_fingerprint(legacy) == result_fingerprint(batched)

    def test_single_channel_paired_access_raises_like_the_oracle(self):
        """One channel cannot serve both sub-lines: RuntimeError, lazily."""
        import dataclasses

        config1 = dataclasses.replace(
            ARCC_MEMORY_CONFIG, name="ARCC-1ch", channels=1
        )
        mix = mix_by_name("Mix1")
        legacy = TraceSimulator(
            config1, upgraded_fraction=1.0, arcc_enabled=True
        )
        batched = BatchedTraceSimulator(
            config1, upgraded_fraction=1.0, arcc_enabled=True
        )
        with pytest.raises(RuntimeError):
            legacy.run(mix, instructions_per_core=2_000)
        with pytest.raises(RuntimeError):
            batched.run(mix, instructions_per_core=2_000)

    def test_point_job_returns_plain_floats(self):
        """The runner-job payload must be small and picklable."""
        payload = simulate_point_job(
            mix=mix_by_name("Mix1"),
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
    @pytest.mark.parametrize("policy", list(MappingPolicy))
    @pytest.mark.parametrize(
        "config", (ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG),
        ids=lambda c: c.name,
    )
    def test_matches_scalar_decoder(self, policy, config):
        mapping = AddressMapping(config, policy)
        rng = np.random.default_rng(11)
        addresses = rng.integers(0, 1 << 24, size=2_000)
        channel, rank, bank = decode_lines(addresses, config, policy)
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


class TestUpgradedPagesSeeTraffic:
    def test_upgraded_fraction_changes_power(self):
        """Sanity: the sweep points actually differ (not vacuous tests)."""
        mix = mix_by_name("Mix1")
        batch = materialize_mix(mix, 0x7ACE, QUICK_INSTRUCTIONS)
        clean, faulty = sweep(
            batch,
            [SweepPoint(upgraded_fraction=0.0), SweepPoint(upgraded_fraction=1.0)],
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
