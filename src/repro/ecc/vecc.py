"""VECC — Virtualized ECC (Yoon & Erez, ASPLOS'10), as described in Ch. 2.

VECC shrinks the chipkill rank from 36 to 18 devices by splitting the
redundancy in two tiers:

* two *detection* check symbols stored in the rank's two redundant devices
  (accessed on every request), and
* the remaining *correction* check symbols mapped — via the page table —
  to data devices of a *different* rank, fetched only when an error is
  detected on a read, or updated on writes (36 device-accesses unless the
  correction symbols hit in the LLC).

The implementation uses a shortened RS(20,16): symbols 0..15 are data,
16..17 the in-rank detection checks, 18..19 the virtualized correction
checks. Reading only the first 18 symbols and treating the last two as
erasures reproduces VECC's detect-only fast path exactly, because erasing
two of four checks leaves distance 5 - 2 = 3: double-symbol *detection*,
no blind correction.

The geometry is a parameter: ARCC's relaxed VECC page (Section 5.2) is
``Vecc(data_devices=8, detect_checks=1)``, a nine-device rank of RS(11,8)
whose fast path detects one bad symbol and whose slow path corrects it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.ecc.base import CodecError, DecodeResult, DecodeStatus
from repro.ecc.reed_solomon import ReedSolomonCode
from repro.gf.field import GF, GF256


class Vecc:
    """VECC codec over a rank of ``data_devices + detect_checks`` devices
    with two virtualized correction symbols per codeword."""

    CORRECT_CHECKS = 2

    def __init__(
        self,
        data_devices: int = 16,
        detect_checks: int = 2,
        line_bytes: int = 64,
        field: GF = GF256,
    ):
        self.data_devices = data_devices
        self.rank_devices = data_devices + detect_checks
        self.line_bytes = line_bytes
        self.field = field
        n = self.rank_devices + self.CORRECT_CHECKS
        self.code = ReedSolomonCode(n, data_devices, field=field)
        self.correct_limit = (n - data_devices) // 2
        data_bits = line_bytes * 8
        if data_bits % (data_devices * field.m):
            raise CodecError("line does not stripe evenly")
        self.codewords_per_line = data_bits // (data_devices * field.m)
        #: Devices touched by an error-free read (the whole rank).
        self.devices_per_clean_read = self.rank_devices
        #: Devices touched when correction symbols must be fetched/updated.
        self.devices_per_corrected_access = 2 * self.rank_devices

    # -- encode --------------------------------------------------------------

    def encode_line(
        self, data: bytes
    ) -> Tuple[List[List[int]], List[List[int]]]:
        """Encode a line.

        Returns ``(rank_codewords, correction_symbols)`` where each rank
        codeword holds the in-rank symbols and ``correction_symbols[c]``
        the two virtualized checks of codeword ``c`` (stored in another
        rank).
        """
        if len(data) != self.line_bytes:
            raise CodecError(
                f"line has {len(data)} bytes, expected {self.line_bytes}"
            )
        rank_codewords = []
        corrections = []
        for c in range(self.codewords_per_line):
            start = c * self.data_devices
            full = self.code.encode(list(data[start : start + self.data_devices]))
            rank_codewords.append(full[: self.rank_devices])
            corrections.append(full[self.rank_devices :])
        return rank_codewords, corrections

    # -- decode --------------------------------------------------------------

    def detect_line(
        self, rank_codewords: Sequence[Sequence[int]]
    ) -> DecodeResult:
        """Fast path: one rank read, detection only.

        The two virtualized check positions are treated as erasures, which
        leaves ``detect_checks`` symbols of pure detection: any non-zero
        residual syndrome reports DETECTED_UE (triggering the slow path);
        clean syndromes return the data.
        """
        merged: Optional[DecodeResult] = None
        erased = [self.code.n - 2, self.code.n - 1]
        for cw in rank_codewords:
            if len(cw) != self.rank_devices:
                raise CodecError("rank codeword has wrong symbol count")
            padded = list(cw) + [0, 0]
            result = self.code.decode(
                padded, erasures=erased, correct_limit=0
            )
            if result.status == DecodeStatus.CORRECTED:
                # Erasure-only "correction" just filled in the virtual
                # symbols; the data itself was clean.
                result = DecodeResult(
                    status=DecodeStatus.NO_ERROR,
                    data=result.data,
                )
            merged = result if merged is None else merged.merge(result)
        assert merged is not None
        return merged

    def correct_line(
        self,
        rank_codewords: Sequence[Sequence[int]],
        corrections: Sequence[Sequence[int]],
        erasures: Sequence[int] = (),
    ) -> DecodeResult:
        """Slow path: full decode with the fetched checks.

        ``erasures`` are in-rank device indices already known bad.
        """
        if len(corrections) != len(rank_codewords):
            raise CodecError("corrections do not match codewords")
        merged: Optional[DecodeResult] = None
        for cw, corr in zip(rank_codewords, corrections):
            full = list(cw) + list(corr)
            if len(full) != self.code.n:
                raise CodecError("assembled codeword has wrong length")
            result = self.code.decode(
                full, erasures=erasures, correct_limit=self.correct_limit
            )
            merged = result if merged is None else merged.merge(result)
        assert merged is not None
        return merged

    def decode_line(
        self,
        rank_codewords: Sequence[Sequence[int]],
        corrections: Sequence[Sequence[int]],
    ) -> Tuple[DecodeResult, int]:
        """Full VECC access: detect first, fetch corrections on demand.

        Returns ``(result, device_accesses)`` so callers can account for
        the second rank access the slow path costs.
        """
        fast = self.detect_line(rank_codewords)
        if fast.status == DecodeStatus.NO_ERROR:
            return fast, self.devices_per_clean_read
        slow = self.correct_line(rank_codewords, corrections)
        return slow, self.devices_per_corrected_access
