"""Unit tests for repro.util.bitops."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitops import bit_count, parity


class TestBitCount:
    def test_zero(self):
        assert bit_count(0) == 0

    def test_powers_of_two(self):
        for i in range(64):
            assert bit_count(1 << i) == 1

    def test_all_ones(self):
        assert bit_count(0xFF) == 8
        assert bit_count((1 << 64) - 1) == 64

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_count(-1)

    @given(st.integers(min_value=0, max_value=1 << 128))
    def test_matches_bin_count(self, value):
        assert bit_count(value) == bin(value).count("1")


class TestParity:
    def test_even(self):
        assert parity(0b11) == 0

    def test_odd(self):
        assert parity(0b111) == 1

    @given(st.integers(min_value=0, max_value=1 << 64))
    def test_parity_is_bit_count_mod_2(self, value):
        assert parity(value) == bit_count(value) % 2

