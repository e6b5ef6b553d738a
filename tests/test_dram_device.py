"""Tests for the bit-accurate DRAM device and its fault overlays."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dram.device import DRAMDevice, FaultOverlay


@pytest.fixture
def device():
    return DRAMDevice(width=8, banks=4, rows=16, columns=32)


class TestStorage:
    def test_unwritten_reads_zero(self, device):
        assert device.read(0, 0, 0) == 0

    def test_write_read_roundtrip(self, device):
        device.write(1, 2, 3, 0xAB)
        assert device.read(1, 2, 3) == 0xAB

    def test_width_masking(self):
        dev = DRAMDevice(width=4)
        dev.write(0, 0, 0, 0xFF)
        assert dev.read(0, 0, 0) == 0x0F

    def test_unsupported_width(self):
        with pytest.raises(ValueError):
            DRAMDevice(width=3)

    def test_out_of_range_addresses(self, device):
        with pytest.raises(ValueError):
            device.read(4, 0, 0)
        with pytest.raises(ValueError):
            device.read(0, 16, 0)
        with pytest.raises(ValueError):
            device.write(0, 0, 32, 1)

    def test_sparse_storage(self, device):
        device.write(0, 0, 0, 1)
        assert "cells=1" in repr(device)

    @given(
        st.integers(0, 3),
        st.integers(0, 15),
        st.integers(0, 31),
        st.integers(0, 255),
    )
    def test_roundtrip_property(self, bank, row, col, value):
        dev = DRAMDevice(width=8, banks=4, rows=16, columns=32)
        dev.write(bank, row, col, value)
        assert dev.read(bank, row, col) == value
        assert dev.read_true(bank, row, col) == value


class TestFaultOverlays:
    def test_device_fault_hits_everything(self, device):
        device.write(0, 0, 0, 0x12)
        device.write(3, 15, 31, 0x34)
        device.inject_device_fault(stuck_value=0xFF)
        assert device.read(0, 0, 0) == 0xFF
        assert device.read(3, 15, 31) == 0xFF
        assert device.is_faulty

    def test_true_value_preserved_under_fault(self, device):
        device.write(0, 0, 0, 0x12)
        device.inject_device_fault(stuck_value=0x00)
        assert device.read(0, 0, 0) == 0x00
        assert device.read_true(0, 0, 0) == 0x12

    def test_bank_fault_scoped(self, device):
        device.write(1, 0, 0, 0x11)
        device.write(2, 0, 0, 0x22)
        device.inject_bank_fault(1, stuck_value=0xEE)
        assert device.read(1, 0, 0) == 0xEE
        assert device.read(2, 0, 0) == 0x22

    def test_row_fault_scoped(self, device):
        device.write(0, 5, 0, 0x11)
        device.write(0, 6, 0, 0x22)
        device.inject_row_fault(0, 5, stuck_value=0x00)
        assert device.read(0, 5, 0) == 0x00
        assert device.read(0, 6, 0) == 0x22

    def test_column_fault_scoped(self, device):
        device.write(0, 0, 7, 0x11)
        device.write(0, 0, 8, 0x22)
        device.inject_column_fault(0, 7, stuck_value=0xFF)
        assert device.read(0, 0, 7) == 0xFF
        assert device.read(0, 0, 8) == 0x22

    def test_bit_fault_single_bit(self, device):
        device.write(0, 0, 0, 0b0000_0000)
        device.inject_bit_fault(0, 0, 0, bit=3, stuck_to=1)
        assert device.read(0, 0, 0) == 0b0000_1000
        device.write(0, 0, 0, 0xFF)
        assert device.read(0, 0, 0) == 0xFF  # stuck-at-1 invisible under 1s

    def test_bit_fault_out_of_range(self, device):
        with pytest.raises(ValueError):
            device.inject_bit_fault(0, 0, 0, bit=8, stuck_to=1)

    def test_stuck_at_partial_mask(self):
        overlay = FaultOverlay.stuck_at(
            "test", lambda b, r, c: True, stuck_mask=0x0F,
            stuck_value=0x05, width=8,
        )
        assert overlay.corrupt(0xA0) == 0xA5
        assert overlay.corrupt(0xAF) == 0xA5

    def test_multiple_overlays_compose(self, device):
        device.write(0, 0, 0, 0x00)
        device.inject_bit_fault(0, 0, 0, bit=0, stuck_to=1)
        device.inject_bit_fault(0, 0, 0, bit=7, stuck_to=1)
        assert device.read(0, 0, 0) == 0x81

    def test_stuck_at_idempotent(self, device):
        """Reading twice returns the same corrupted value (persistence)."""
        device.write(0, 0, 0, 0x42)
        device.inject_device_fault(stuck_value=0x99)
        assert device.read(0, 0, 0) == device.read(0, 0, 0) == 0x99
