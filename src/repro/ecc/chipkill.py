"""Chipkill codeword <-> device layout mapping (Figure 2.1 / Figure 4.1).

A *rank* is the group of devices that serves one memory request. Commercial
chipkill correct stores each symbol of a codeword in a different device, so
a whole-device failure corrupts at most one symbol per codeword.

:class:`ChipkillCodec` binds a Reed-Solomon code to a device layout:

* ``make_relaxed_codec()`` — ARCC relaxed mode: 18 x8 devices, RS(18,16),
  four codewords per 64B line (Figure 4.1 top).
* ``make_upgraded_codec()`` — ARCC upgraded mode: 36 devices across two
  lockstep channels, RS(36,32), four codewords per 128B upgraded line
  (Figure 4.1 bottom; the "same symbol size" design).
* ``make_sccdcd_codec()`` — the commercial baseline: 36 x4 devices, each
  contributing 16 bits (two 8-bit symbols) per 64B line, RS(36,32), two
  codewords per line, and the conservative correct-1/detect-2 policy.
* ``make_double_upgraded_codec()`` — the Chapter 5 mode with eight check
  symbols per codeword across four channels, RS(72,64).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.ecc.base import CodecError, DecodeResult
from repro.ecc.reed_solomon import ReedSolomonCode
from repro.gf.field import GF, GF256


class ChipkillCodec:
    """Encode/decode whole cachelines across a chipkill device layout.

    Symbol position ``i`` of every codeword lives in device ``i`` of the
    rank, so erasure positions double as device indices.
    """

    def __init__(
        self,
        devices: int,
        data_devices: int,
        line_bytes: int,
        symbol_bits: int = 8,
        correct_limit: Optional[int] = 1,
        field: GF = GF256,
    ):
        if symbol_bits != field.m:
            raise CodecError(
                f"symbol width {symbol_bits} does not match GF(2^{field.m})"
            )
        data_bits = line_bytes * 8
        if data_bits % (data_devices * symbol_bits):
            raise CodecError(
                f"{line_bytes}B line does not stripe evenly over "
                f"{data_devices} devices with {symbol_bits}-bit symbols"
            )
        self.devices = devices
        self.data_devices = data_devices
        self.line_bytes = line_bytes
        self.symbol_bits = symbol_bits
        self.correct_limit = correct_limit
        self.codewords_per_line = data_bits // (data_devices * symbol_bits)
        self.code = ReedSolomonCode(devices, data_devices, field=field)

    # -- layout ------------------------------------------------------------

    @property
    def check_devices(self) -> int:
        """Redundant devices in the rank."""
        return self.devices - self.data_devices

    @property
    def storage_overhead(self) -> float:
        """check/data device ratio (12.5% for all paper configurations)."""
        return self.check_devices / self.data_devices

    def _split_data(self, data: bytes) -> List[List[int]]:
        """Stripe line bytes into per-codeword message symbol lists.

        Byte ``c * data_devices + d`` of the line becomes data symbol ``d``
        of codeword ``c`` — consecutive bytes land on consecutive devices,
        matching the striped layout of Figure 2.1.
        """
        if len(data) != self.line_bytes:
            raise CodecError(
                f"line has {len(data)} bytes, codec expects {self.line_bytes}"
            )
        messages = []
        for c in range(self.codewords_per_line):
            start = c * self.data_devices
            messages.append(list(data[start : start + self.data_devices]))
        return messages

    # -- encode / decode ------------------------------------------------------

    def encode_line(self, data: bytes) -> List[List[int]]:
        """Encode a line into ``codewords_per_line`` codewords of n symbols."""
        return [self.code.encode(msg) for msg in self._split_data(data)]

    def decode_line(
        self,
        codewords: Sequence[Sequence[int]],
        erasures: Sequence[int] = (),
    ) -> DecodeResult:
        """Decode all codewords of a line; line status is the worst codeword.

        ``erasures`` are device indices known to be bad (identical for every
        codeword, because a device failure hits the same symbol position in
        each).
        """
        if len(codewords) != self.codewords_per_line:
            raise CodecError(
                f"line has {len(codewords)} codewords, expected "
                f"{self.codewords_per_line}"
            )
        merged: Optional[DecodeResult] = None
        for cw in codewords:
            result = self.code.decode(
                cw, erasures=erasures, correct_limit=self.correct_limit
            )
            merged = result if merged is None else merged.merge(result)
        assert merged is not None
        return merged

    # -- device-major views (used by the fault injector) -----------------------

    def corrupt_device(
        self,
        codewords: Sequence[Sequence[int]],
        device: int,
        pattern: int = 0xFF,
    ) -> List[List[int]]:
        """Return codewords with every symbol of ``device`` XOR-corrupted."""
        if not 0 <= device < self.devices:
            raise CodecError(f"device {device} out of range")
        out = [list(cw) for cw in codewords]
        mask = (1 << self.symbol_bits) - 1
        for cw in out:
            cw[device] ^= pattern & mask
        return out

    def __repr__(self) -> str:
        return (
            f"ChipkillCodec(devices={self.devices}, data={self.data_devices}, "
            f"line={self.line_bytes}B, cw/line={self.codewords_per_line})"
        )


def make_relaxed_codec() -> ChipkillCodec:
    """ARCC relaxed mode: RS(18,16) over x8 devices, 64B lines.

    Distance 3: corrects one unknown bad symbol; a second simultaneous bad
    symbol is beyond the code (Chapter 6's SDC exposure window).
    """
    return ChipkillCodec(devices=18, data_devices=16, line_bytes=64)


def make_upgraded_codec() -> ChipkillCodec:
    """ARCC upgraded mode: RS(36,32) over two lockstep channels, 128B lines.

    Uses the correct-1/detect-2 policy of commercial SCCDCD (the remaining
    distance is detection margin, not correction).
    """
    return ChipkillCodec(devices=36, data_devices=32, line_bytes=128)


def make_sccdcd_codec() -> ChipkillCodec:
    """Commercial SCCDCD baseline: 36 x4 devices, 64B lines.

    Each x4 device contributes 16 bits per line; pairs of 4-bit beats are
    grouped into one 8-bit symbol per codeword so that a device failure
    still corrupts at most one symbol per codeword (the standard b-adjacent
    grouping used by real controllers).
    """
    return ChipkillCodec(devices=36, data_devices=32, line_bytes=64)


def make_double_upgraded_codec() -> ChipkillCodec:
    """Chapter 5 double-upgraded mode: RS(72,64) across four channels.

    Eight check symbols per codeword; we grant correction of two unknown
    bad symbols and keep the rest as detection margin.
    """
    return ChipkillCodec(
        devices=72, data_devices=64, line_bytes=256, correct_limit=2
    )
