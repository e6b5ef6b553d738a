"""LOT-ECC in its 9-device and 18-device configurations (Chapters 2, 5.2).

LOT-ECC replaces symbol codes with two *tiers*:

* **Tier 1 (detection + localization)** — a one's-complement checksum of
  each device's slice of the line. A mismatching checksum names the bad
  device directly; no Chien search needed. The guarantee is weaker than a
  symbol code: a corrupted slice whose checksum happens to still match
  aliases silently (the paper's row/column-decoder example).
* **Tier 2 (correction)** — the XOR of all device slices. Once tier 1 has
  localized the bad device, its slice is rebuilt from the XOR.

The 9-device configuration (8 data + 1 checksum device) matches the
original paper's commodity-DIMM design: single chipkill correct, extra
write traffic (~80% of writes need a second write to update tier 2).

The 18-device configuration (16 data + parity device + spare device) is the
extension Section 5.2 derives to provide *double chip sparing*: checksums
move to a different line in the same row (costing an extra read per read),
and the spare device absorbs the first detected failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.ecc.base import CodecError, DecodeResult, DecodeStatus
from repro.ecc.checksum import (
    ones_complement_checksum,
    reconstruct_segment,
    verify_checksum,
    xor_parity,
)


@dataclass
class LotEccLine:
    """One encoded line: per-device data slices + tier-1/tier-2 redundancy."""

    segments: List[bytes]  # one slice per data device
    checksums: List[int]  # tier 1, one per data device
    parity: bytes  # tier 2 XOR across segments


class _LotEccBase:
    """Shared encode/decode engine for both LOT-ECC configurations."""

    data_devices: int
    line_bytes: int
    checksum_width: int = 8

    def __init__(self) -> None:
        if self.line_bytes % self.data_devices:
            raise CodecError("line does not slice evenly across devices")
        self.segment_bytes = self.line_bytes // self.data_devices

    def encode_line(self, data: bytes) -> LotEccLine:
        """Slice a line across the data devices and attach both tiers."""
        if len(data) != self.line_bytes:
            raise CodecError(
                f"line has {len(data)} bytes, expected {self.line_bytes}"
            )
        segments = [
            data[i : i + self.segment_bytes]
            for i in range(0, self.line_bytes, self.segment_bytes)
        ]
        checksums = [
            ones_complement_checksum(seg, self.checksum_width)
            for seg in segments
        ]
        return LotEccLine(
            segments=segments,
            checksums=checksums,
            parity=xor_parity(segments),
        )

    def _localize(self, line: LotEccLine) -> List[int]:
        """Indices of devices whose tier-1 checksum mismatches."""
        return [
            i
            for i, seg in enumerate(line.segments)
            if not verify_checksum(seg, line.checksums[i], self.checksum_width)
        ]

    def decode_line(self, line: LotEccLine) -> DecodeResult:
        """Tier-1 localize, tier-2 reconstruct.

        Note the honest aliasing behaviour: if a corrupted slice still
        matches its checksum, the error is invisible here and surfaces as
        SDC in oracle-checked simulations.
        """
        bad = self._localize(line)
        if not bad:
            return DecodeResult(
                status=DecodeStatus.NO_ERROR, data=b"".join(line.segments)
            )
        if len(bad) > 1:
            return DecodeResult(
                status=DecodeStatus.DETECTED_UE,
                detail=f"{len(bad)} devices mismatch tier-1 checksums",
            )
        device = bad[0]
        rebuilt = reconstruct_segment(line.segments, line.parity, device)
        if not verify_checksum(
            rebuilt, line.checksums[device], self.checksum_width
        ):
            # Parity or checksum itself is damaged beyond reconstruction.
            return DecodeResult(
                status=DecodeStatus.DETECTED_UE,
                detail="reconstructed segment fails its checksum",
            )
        segments = list(line.segments)
        segments[device] = rebuilt
        return DecodeResult(
            status=DecodeStatus.CORRECTED,
            data=b"".join(segments),
            error_positions=(device,),
            corrected_symbols=1,
        )


class LotEcc9(_LotEccBase):
    """Nine-device LOT-ECC: 8 data devices + 1 redundancy device.

    Access-cost model (used by the power/performance simulator):

    * a read touches 9 devices once;
    * a write touches 9 devices and, with probability ~0.8 (the paper's
      figure for tier-2 update misses), issues one additional write.
    """

    data_devices = 8
    line_bytes = 64

    devices = 9
    reads_per_read = 1
    writes_per_write = 2
    extra_write_fraction = 0.8


class LotEcc18(_LotEccBase):
    """18-device LOT-ECC providing double chip sparing (Section 5.2).

    16 data devices + device 16 (XOR parity) + device 17 (spare). Tier-1
    checksums live in a *different line of the same row*, so every read
    needs a second read and every write a second write.
    """

    data_devices = 16
    line_bytes = 64

    devices = 18
    parity_device = 16
    spare_device = 17
    reads_per_read = 2
    writes_per_write = 2
    extra_write_fraction = 1.0

    def __init__(self) -> None:
        super().__init__()
        self.spared_device: Optional[int] = None

    def remap(self, device: int, line: LotEccLine) -> LotEccLine:
        """Remap a detected-bad data device onto the spare.

        Modeled logically: after remapping, faults on ``device`` no longer
        reach the decoder (the controller reads the spare instead), so a
        *second* device failure becomes correctable — double chip sparing.
        """
        if not 0 <= device < self.data_devices:
            raise CodecError(f"cannot remap device {device}")
        if self.spared_device is not None and self.spared_device != device:
            raise CodecError("spare already consumed")
        self.spared_device = device
        result = self.decode_line(line)
        if not result.ok or result.data is None:
            raise CodecError("cannot remap an uncorrectable line")
        return self.encode_line(result.data)


#: Worst-case cost of an upgraded access relative to a relaxed one (every
#: access a read, no spatial locality): twice the devices, twice the reads.
WORST_CASE_UPGRADE_FACTOR = (LotEcc18.devices * LotEcc18.reads_per_read) / (
    LotEcc9.devices * LotEcc9.reads_per_read
)
