"""Golden-equivalence tests for non-Table-7.1 memory organizations.

Scenario files can now define arbitrary ``[organizations.<name>]``
tables, and the measured-overhead bridge replays trace points against
them — so ``replay``'s bit-identity with the
``TraceSimulator.run`` oracle must hold beyond the two organizations
the paper evaluates. Three custom builds cover the axes the schema
opens: odd channel counts, odd rank counts, odd bank counts, and x4
next to x8 devices. ``decode_lines`` is checked against the scalar
HIPERF ``AddressMapping`` (the mapping the memory system replays
under) on the same tables.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG
from repro.dram.addressing import AddressMapping
from repro.faults.models import upgraded_page_fraction
from repro.faults.types import FaultType
from repro.perf.engine import (
    SweepPoint,
    arcc_capable,
    decode_lines,
    replay,
)
from repro.perf.simulator import TraceSimulator
from repro.workloads.spec import mix_by_name

#: Three organizations outside Table 7.1, each bending one assumption:
#: an odd channel count, an odd rank count (on x4 devices), and an odd
#: bank count.
TRI_CHANNEL_X8 = dataclasses.replace(
    ARCC_MEMORY_CONFIG, name="tri-channel-x8", channels=3
)
TRI_RANK_X4 = dataclasses.replace(
    BASELINE_MEMORY_CONFIG, name="tri-rank-x4", ranks_per_channel=3
)
ODD_BANK_X8 = dataclasses.replace(
    ARCC_MEMORY_CONFIG, name="odd-bank-x8", banks_per_device=5
)

CUSTOM_ORGANIZATIONS = (TRI_CHANNEL_X8, TRI_RANK_X4, ODD_BANK_X8)

INSTRUCTIONS = 5_000


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


class TestGoldenEquivalenceCustomOrganizations:
    @pytest.mark.parametrize(
        "config", CUSTOM_ORGANIZATIONS, ids=lambda c: c.name
    )
    @pytest.mark.parametrize("fraction_of", [None, FaultType.DEVICE, FaultType.LANE])
    def test_bit_identical_to_oracle(self, config, fraction_of):
        """Fault-free and per-class fractions, against the slow oracle.

        The fractions are the organization's *own* Table 7.4 values —
        e.g. a device fault on the tri-rank build upgrades 1/3 of
        pages, not the default 1/2 — which is exactly what the measured
        bridge replays.
        """
        fraction = (
            0.0
            if fraction_of is None
            else upgraded_page_fraction(fraction_of, config)
        )
        mix = mix_by_name("Mix3")
        legacy = TraceSimulator(
            config, upgraded_fraction=fraction, seed=0x7ACE
        ).run(mix, instructions_per_core=INSTRUCTIONS)
        replayed = replay(
            mix,
            SweepPoint(config=config, upgraded_fraction=fraction),
            INSTRUCTIONS,
            0x7ACE,
        )
        assert result_fingerprint(legacy) == result_fingerprint(replayed)

    def test_custom_fractions_differ_from_table_7_1(self):
        """Sanity: the sweep really exercises organization-dependent
        fractions (not the default config's)."""
        assert upgraded_page_fraction(
            FaultType.DEVICE, TRI_RANK_X4
        ) == pytest.approx(1.0 / 3.0)
        assert upgraded_page_fraction(
            FaultType.BANK, ODD_BANK_X8
        ) == pytest.approx(1.0 / 10.0)

    def test_all_customs_are_arcc_capable(self):
        for config in CUSTOM_ORGANIZATIONS:
            assert arcc_capable(config)
        single = dataclasses.replace(
            ARCC_MEMORY_CONFIG, name="one-channel", channels=1
        )
        assert not arcc_capable(single)


class TestDecodeCustomOrganizations:
    @pytest.mark.parametrize(
        "config", CUSTOM_ORGANIZATIONS, ids=lambda c: c.name
    )
    def test_decode_lines_matches_scalar_mapping(self, config):
        mapping = AddressMapping(config)
        rng = np.random.default_rng(23)
        addresses = rng.integers(0, 1 << 24, size=2_000)
        channel, rank, bank = decode_lines(addresses, config)
        for i, address in enumerate(addresses.tolist()):
            decoded = mapping.decode(address)
            assert channel[i] == decoded.channel, address
            assert rank[i] == decoded.rank, address
            assert bank[i] == decoded.bank, address

    @pytest.mark.parametrize(
        "config", CUSTOM_ORGANIZATIONS, ids=lambda c: c.name
    )
    def test_sibling_never_shares_a_channel(self, config):
        """addr and addr^1 differ by exactly one, so their channels
        (bottom-of-address modulus) differ for any channel count >= 2 —
        including odd counts, where the pair straddles a non-power-of-two
        modulus."""
        addresses = np.arange(4_096)
        channel, _, _ = decode_lines(addresses, config)
        sibling, _, _ = decode_lines(addresses ^ 1, config)
        assert (channel != sibling).all()
