"""Golden matrix for the compiled replay kernel.

The compiled tier (``repro.perf._kernel``) must be bit-identical to the
per-access ``TraceSimulator.run`` oracle, field for field, across every
axis the sweep registry exercises: all 12 mixes x 5 upgraded fractions,
the custom organizations of ``test_custom_organizations.py`` and the
Table 7.1 baseline, non-default seeds, deep eviction-heavy runs (on the
default LLC too), and LOT-ECC checksum
points (``SweepPoint.lotecc_checksum`` against
``TraceSimulator(lotecc_checksum=True)``). When no C compiler is
present the module *skips with the loader's reason string* — a visible
skip, never a silent pass (the CI fallback leg exercises exactly that
path).
"""

import dataclasses

import pytest
from test_custom_organizations import (
    CUSTOM_ORGANIZATIONS,
    result_fingerprint,
)

from repro.config import (
    ARCC_MEMORY_CONFIG,
    BASELINE_MEMORY_CONFIG,
    PROCESSOR_CONFIG,
)
from repro.faults.models import TABLE_7_4_TYPES, upgraded_page_fraction
from repro.faults.types import FaultType
from repro.perf._kernel import (
    kernel_available,
    kernel_provenance,
    replay_compiled,
)
from repro.perf.engine import SweepPoint
from repro.perf.simulator import TraceSimulator
from repro.perf.trace import materialize_mix
from repro.workloads.spec import ALL_MIXES, mix_by_name

pytestmark = pytest.mark.skipif(
    not kernel_available(),
    reason=f"compiled replay kernel unavailable: {kernel_provenance()}",
)

#: The five fractions the full-scale sweeps visit most: fault-free, the
#: column/bank/device Table 7.4 points, and the lane worst case.
FRACTIONS = (0.0, 0.0625, 0.25, 0.5, 1.0)

INSTRUCTIONS = 3_000
DEEP_INSTRUCTIONS = 300_000

#: A 1k-line, 4-way LLC (the replay reads only ``l2_sets``/``l2_assoc``
#: from the processor table): every set overflows within the warmup, so
#: the deep runs spend most of their accesses in the eviction and
#: paired-evict paths rather than warming an oversized cache.
EVICTION_HEAVY_PROCESSOR = dataclasses.replace(
    PROCESSOR_CONFIG, l2_assoc=4, cacheline_bytes=1024
)


def reference(batch, point, processor=PROCESSOR_CONFIG):
    """``TraceSimulator.run`` on the mix, seed and budget of ``batch``."""
    return TraceSimulator(
        point.config,
        processor,
        upgraded_fraction=point.upgraded_fraction,
        seed=batch.seed,
        lotecc_checksum=point.lotecc_checksum,
    ).run(
        mix_by_name(batch.mix_name),
        instructions_per_core=batch.instructions_per_core,
    )


def two_way(batch, point, processor=PROCESSOR_CONFIG):
    """Assert compiled == reference on one cell; return the fingerprint."""
    compiled = result_fingerprint(
        replay_compiled(batch, point, processor)[0]
    )
    oracle = result_fingerprint(reference(batch, point, processor))
    assert compiled == oracle, (
        batch.mix_name,
        point.config.name,
        point.upgraded_fraction,
        point.lotecc_checksum,
        batch.seed,
    )
    return compiled


def golden_cell(mix, config, fraction, seed=0x7ACE):
    two_way(
        materialize_mix(mix, seed, INSTRUCTIONS),
        SweepPoint(config=config, upgraded_fraction=fraction),
    )


class TestGoldenMatrix:
    @pytest.mark.parametrize("mix", ALL_MIXES, ids=lambda m: m.name)
    def test_all_mixes_all_fractions(self, mix):
        """12 mixes x 5 fractions (60 cells)."""
        for fraction in FRACTIONS:
            golden_cell(mix, ARCC_MEMORY_CONFIG, fraction)

    @pytest.mark.parametrize(
        "config",
        CUSTOM_ORGANIZATIONS + (BASELINE_MEMORY_CONFIG,),
        ids=lambda c: c.name,
    )
    def test_custom_organizations(self, config):
        """The scenario-file organizations and the x4 Table 7.1
        baseline, at their own Table 7.4 device fraction (odd
        channel/rank/bank counts bend the route decode and the
        per-organization fraction alike)."""
        for fraction in (0.0, upgraded_page_fraction(FaultType.DEVICE, config)):
            golden_cell(mix_by_name("Mix3"), config, fraction)

    @pytest.mark.parametrize("seed", [1, 0xBEEF, 987654321])
    def test_non_default_seeds(self, seed):
        """Different seeds change every address/gap stream; identity
        must not depend on the default 0x7ACE materialization."""
        golden_cell(mix_by_name("Mix5"), ARCC_MEMORY_CONFIG, 0.37, seed=seed)


class TestDeepEvictionHeavyRuns:
    """300k-instruction runs on a 4-way LLC: sustained eviction load.

    Two mixes run deep, chosen for opposite locality (Mix1 dense, Mix12
    sparse).
    """

    @pytest.mark.parametrize("mix_name", ["Mix1", "Mix12"])
    @pytest.mark.parametrize("fraction", [0.0, 0.37])
    def test_deep_runs(self, mix_name, fraction):
        batch = materialize_mix(
            mix_by_name(mix_name), 0x7ACE, DEEP_INSTRUCTIONS
        )
        point = SweepPoint(
            config=ARCC_MEMORY_CONFIG, upgraded_fraction=fraction
        )
        compiled, stats = replay_compiled(
            batch, point, EVICTION_HEAVY_PROCESSOR
        )
        oracle = reference(batch, point, EVICTION_HEAVY_PROCESSOR)
        assert result_fingerprint(compiled) == result_fingerprint(oracle)
        # The deep runs really are eviction-heavy: the kernel's
        # high-water mark sits at (or, with pair evictions dropping two
        # lines at once, a whisker under) capacity, never above it.
        cap = (
            EVICTION_HEAVY_PROCESSOR.l2_sets
            * EVICTION_HEAVY_PROCESSOR.l2_assoc
        )
        assert 0.9 * cap <= stats.max_occupancy <= cap
        assert stats.misses > cap
        assert stats.mirror_violations == 0

    @pytest.mark.parametrize(
        "mix_name, fraction", [("Mix1", 0.37), ("Mix10", 1.0)]
    )
    def test_deep_run_against_oracle(self, mix_name, fraction):
        """Deep cells on the default LLC geometry. Mix10 is the most
        memory-intensive mix: fully upgraded, its working set overfills
        many sets, so victim selection, paired evictions and writebacks
        all run."""
        two_way(
            materialize_mix(
                mix_by_name(mix_name), 0x7ACE, DEEP_INSTRUCTIONS
            ),
            SweepPoint(
                config=ARCC_MEMORY_CONFIG, upgraded_fraction=fraction
            ),
        )


#: Every odd axis at once: 3 channels x 3 ranks x 5 banks, so the
#: kernel's route table has M = 45 entries — not a power of two, and
#: coprime to neither the set count nor the page size.
ODD_EVERYTHING_X8 = dataclasses.replace(
    ARCC_MEMORY_CONFIG,
    name="odd-everything-x8",
    channels=3,
    ranks_per_channel=3,
    banks_per_device=5,
)


class TestRouteTable:
    """Fills, siblings and both kinds of writeback route through the
    ``addr mod M`` table; an odd ``M`` on the eviction-heavy LLC
    exercises all four."""

    @pytest.mark.parametrize("lotecc_checksum", [False, True])
    @pytest.mark.parametrize("fraction", [0.25, 1.0])
    def test_odd_organization_eviction_heavy(self, fraction, lotecc_checksum):
        batch = materialize_mix(mix_by_name("Mix10"), 0x7ACE, 60_000)
        point = SweepPoint(
            config=ODD_EVERYTHING_X8,
            upgraded_fraction=fraction,
            lotecc_checksum=lotecc_checksum,
        )
        two_way(batch, point, EVICTION_HEAVY_PROCESSOR)
        stats = replay_compiled(batch, point, EVICTION_HEAVY_PROCESSOR)[1]
        assert stats.misses > (
            EVICTION_HEAVY_PROCESSOR.l2_sets
            * EVICTION_HEAVY_PROCESSOR.l2_assoc
        )


#: An even set count that is no power of two (170 sets of 6 ways): the
#: kernel finds sets by division here, while the ARCC route table
#: (16 entries) is still reduced by a mask.
ODD_SETS_PROCESSOR = dataclasses.replace(
    PROCESSOR_CONFIG, l2_assoc=6, cacheline_bytes=1024
)


class TestSetIndex:
    """The kernel reduces a line address to its set, route entry and
    page with a mask or shift for power-of-two divisors and a division
    otherwise; both must give the oracle's replay."""

    @pytest.mark.parametrize("fraction", [0.0, 0.25, 1.0])
    def test_non_power_of_two_set_count(self, fraction):
        assert ODD_SETS_PROCESSOR.l2_sets == 170
        batch = materialize_mix(mix_by_name("Mix10"), 0x7ACE, 60_000)
        point = SweepPoint(
            config=ARCC_MEMORY_CONFIG, upgraded_fraction=fraction
        )
        two_way(batch, point, ODD_SETS_PROCESSOR)
        stats = replay_compiled(batch, point, ODD_SETS_PROCESSOR)[1]
        assert stats.misses > 170 * 6

    def test_negative_line_address_rejected(self):
        batch = materialize_mix(mix_by_name("Mix1"), 0x7ACE, 2_000)
        addresses = batch.line_addresses.copy()
        addresses[3] = -5
        bad = dataclasses.replace(batch, line_addresses=addresses)
        with pytest.raises(ValueError, match="negative line address"):
            bad.kernel_buffers


#: Fault-free, every Table 7.4 class fraction, and fully upgraded.
CHECKSUM_FRACTIONS = (0.0,) + tuple(
    upgraded_page_fraction(ft) for ft in TABLE_7_4_TYPES
) + (1.0,)


class TestChecksumPoints:
    """LOT-ECC checksum accounting: the kernel's extra reads on upgraded
    fills and doubled writebacks match the reference bit for bit."""

    @pytest.mark.parametrize("mix", ALL_MIXES, ids=lambda m: m.name)
    def test_all_mixes_class_fractions(self, mix):
        batch = materialize_mix(mix, 0x7ACE, INSTRUCTIONS)
        for fraction in CHECKSUM_FRACTIONS:
            two_way(
                batch,
                SweepPoint(
                    config=ARCC_MEMORY_CONFIG,
                    upgraded_fraction=fraction,
                    lotecc_checksum=True,
                ),
            )

    @pytest.mark.parametrize(
        "config", CUSTOM_ORGANIZATIONS, ids=lambda c: c.name
    )
    def test_custom_organizations(self, config):
        batch = materialize_mix(mix_by_name("Mix3"), 0x7ACE, INSTRUCTIONS)
        for fault_type in (None,) + TABLE_7_4_TYPES:
            fraction = (
                0.0
                if fault_type is None
                else upgraded_page_fraction(fault_type, config)
            )
            two_way(
                batch,
                SweepPoint(
                    config=config,
                    upgraded_fraction=fraction,
                    lotecc_checksum=True,
                ),
            )

    @pytest.mark.parametrize("mix_name", ["Mix1", "Mix12"])
    @pytest.mark.parametrize("fraction", [0.0, 0.37, 1.0])
    def test_eviction_heavy_runs(self, mix_name, fraction):
        """Deep runs on the 4-way LLC, where dirty evictions — and so
        checksum writebacks, paired ones included — really occur."""
        batch = materialize_mix(
            mix_by_name(mix_name), 0x7ACE, DEEP_INSTRUCTIONS
        )
        checked = two_way(
            batch,
            SweepPoint(
                config=ARCC_MEMORY_CONFIG,
                upgraded_fraction=fraction,
                lotecc_checksum=True,
            ),
            EVICTION_HEAVY_PROCESSOR,
        )
        plain = result_fingerprint(
            replay_compiled(
                batch,
                SweepPoint(
                    config=ARCC_MEMORY_CONFIG, upgraded_fraction=fraction
                ),
                EVICTION_HEAVY_PROCESSOR,
            )[0]
        )
        # At fraction 0 the checksum writes are the only difference, so
        # this also proves writebacks happened.
        assert checked != plain
