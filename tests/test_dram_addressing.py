"""Tests for the physical-address map (HIPERF)."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG
from repro.dram.addressing import AddressMapping


#: The one map on Table 7.1's two organizations, and on one that bends
#: the radices: three channels (adjacent lines still alternate) and an
#: odd bank count.
ORGANIZATIONS = (
    ARCC_MEMORY_CONFIG,
    BASELINE_MEMORY_CONFIG,
    dataclasses.replace(
        ARCC_MEMORY_CONFIG, name="tri-channel-odd-bank", channels=3,
        banks_per_device=5,
    ),
)


@pytest.fixture(params=ORGANIZATIONS, ids=lambda c: c.name)
def mapping(request):
    return AddressMapping(request.param)


class TestDecode:
    def test_negative_rejected(self, mapping):
        with pytest.raises(ValueError):
            mapping.decode(-1)

    def test_fields_in_range(self, mapping):
        cfg = mapping.config
        for addr in range(0, 4096, 17):
            d = mapping.decode(addr)
            assert 0 <= d.channel < cfg.channels
            assert 0 <= d.rank < cfg.ranks_per_channel
            assert 0 <= d.bank < cfg.banks_per_device
            assert 0 <= d.column < mapping.lines_per_row

    def test_adjacent_lines_alternate_channels(self, mapping):
        """The property Figure 4.1 depends on: sub-lines of an upgraded
        line live on different channels."""
        for addr in range(0, 512, 2):
            assert (
                mapping.decode(addr).channel
                != mapping.decode(addr + 1).channel
            )

    @pytest.mark.parametrize("config", ORGANIZATIONS, ids=lambda c: c.name)
    @given(addr=st.integers(min_value=0, max_value=1 << 20))
    def test_encode_decode_roundtrip(self, config, addr):
        mapping = AddressMapping(config)
        assert mapping.encode(mapping.decode(addr)) == addr

    def test_hiperf_interleaves_banks_first(self, mapping):
        """Consecutive same-channel lines hit different banks."""
        a = mapping.decode(0)
        # The next line on the same channel.
        b = mapping.decode(mapping.config.channels)
        assert a.channel == b.channel
        assert a.bank != b.bank

    def test_rows_come_from_the_organization(self):
        config = dataclasses.replace(ARCC_MEMORY_CONFIG, rows_per_bank=4)
        mapping = AddressMapping(config)
        rows = {mapping.decode(addr).row for addr in range(0, 1 << 22, 997)}
        assert rows == set(range(4))

    def test_distinct_addresses_distinct_locations(self, mapping):
        seen = set()
        for addr in range(2048):
            d = mapping.decode(addr)
            key = (d.channel, d.rank, d.bank, d.row, d.column)
            assert key not in seen, f"collision at {addr}"
            seen.add(key)


class TestSiblings:
    def test_sibling_is_involution(self, mapping):
        for addr in (0, 1, 17, 1000):
            assert mapping.sibling_line(mapping.sibling_line(addr)) == addr

    def test_sibling_pairs_even_odd(self, mapping):
        assert mapping.sibling_line(4) == 5
        assert mapping.sibling_line(5) == 4

    def test_sibling_same_page(self, mapping):
        """Both sub-lines of an upgraded line are in the same 4 KB page,
        so one page-table mode bit covers both."""
        for addr in range(0, 256):
            assert mapping.page_of(addr) == mapping.page_of(
                mapping.sibling_line(addr)
            )


class TestPages:
    def test_page_of(self, mapping):
        assert mapping.page_of(0) == 0
        assert mapping.page_of(63) == 0
        assert mapping.page_of(64) == 1

    def test_baseline_mapping_works_too(self):
        mapping = AddressMapping(BASELINE_MEMORY_CONFIG)
        d = mapping.decode(12345)
        assert 0 <= d.channel < BASELINE_MEMORY_CONFIG.channels
        assert mapping.encode(d) == 12345
