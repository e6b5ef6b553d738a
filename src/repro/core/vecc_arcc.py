"""ARCC applied to VECC (Section 5.2).

Plain VECC already halves the chipkill rank to 18 devices. ARCC halves it
again for fault-free pages: a relaxed page uses a *nine-device* rank —
eight data devices plus one redundant device holding the single detection
check symbol — with the correction check symbols virtualized into another
rank exactly as VECC does. A faulty page upgrades back to the 18-device
VECC organization.

Codes:

* relaxed fast path — shortened RS(9,8): distance 2, detects one bad
  symbol, corrects nothing blind;
* relaxed slow path — the stored correction symbols extend the codeword
  to RS(11,8): distance 4, corrects the localized/unknown bad symbol;
* upgraded — the full :class:`repro.ecc.vecc.Vecc` RS(20,16) machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ecc.base import CodecError, DecodeResult, DecodeStatus
from repro.ecc.reed_solomon import ReedSolomonCode
from repro.ecc.vecc import Vecc


class VeccPageMode(enum.Enum):
    """Protection mode of a page under ARCC+VECC."""

    RELAXED_9 = "vecc-9"
    UPGRADED_18 = "vecc-18"


@dataclass
class VeccStats:
    """Device-access accounting (the power proxy)."""

    reads: int = 0
    writes: int = 0
    device_accesses: int = 0
    slow_path_reads: int = 0
    corrected: int = 0
    due: int = 0
    pages_upgraded: int = 0


class _RelaxedVecc9:
    """The nine-device relaxed codec with virtualized correction symbols."""

    DATA = 8
    RANK = 9  # 8 data + 1 detection check
    FULL = 11  # + 2 virtualized correction checks

    def __init__(self) -> None:
        self.code = ReedSolomonCode(self.FULL, self.DATA)
        self.codewords_per_line = 64 // self.DATA  # 8 codewords per 64B

    def encode_line(
        self, data: bytes
    ) -> Tuple[List[List[int]], List[List[int]]]:
        """Returns (rank codewords of 9 symbols, correction symbol pairs)."""
        if len(data) != 64:
            raise CodecError("relaxed VECC lines are 64B")
        rank_words, corrections = [], []
        for c in range(self.codewords_per_line):
            msg = list(data[c * self.DATA : (c + 1) * self.DATA])
            full = self.code.encode(msg)
            rank_words.append(full[: self.RANK])
            corrections.append(full[self.RANK :])
        return rank_words, corrections

    def detect_line(self, rank_words: Sequence[Sequence[int]]) -> DecodeResult:
        """Fast path: 9 devices, detection only."""
        merged: Optional[DecodeResult] = None
        erased = [self.FULL - 2, self.FULL - 1]
        for cw in rank_words:
            padded = list(cw) + [0, 0]
            result = self.code.decode(padded, erasures=erased, correct_limit=0)
            if result.status == DecodeStatus.CORRECTED:
                result = DecodeResult(
                    status=DecodeStatus.NO_ERROR, data=result.data
                )
            merged = result if merged is None else merged.merge(result)
        assert merged is not None
        return merged

    def correct_line(
        self,
        rank_words: Sequence[Sequence[int]],
        corrections: Sequence[Sequence[int]],
    ) -> DecodeResult:
        """Slow path: full RS(11,8) decode with the fetched checks."""
        merged: Optional[DecodeResult] = None
        for cw, corr in zip(rank_words, corrections):
            result = self.code.decode(
                list(cw) + list(corr), correct_limit=1
            )
            merged = result if merged is None else merged.merge(result)
        assert merged is not None
        return merged


class ArccVecc:
    """Functional ARCC+VECC memory at line granularity."""

    def __init__(self, pages: int = 16, lines_per_page: int = 64):
        self.pages = pages
        self.lines_per_page = lines_per_page
        self.relaxed = _RelaxedVecc9()
        self.upgraded = Vecc()
        self._modes: Dict[int, VeccPageMode] = {}
        self._store: Dict[int, Tuple[list, list]] = {}
        self._faulty_devices: Dict[int, List[int]] = {}
        self.stats = VeccStats()

    # -- modes ---------------------------------------------------------------

    def mode_of(self, page: int) -> VeccPageMode:
        """Current page mode (relaxed by default)."""
        self._check_page(page)
        return self._modes.get(page, VeccPageMode.RELAXED_9)

    def fraction_upgraded(self) -> float:
        """Fraction of pages in the 18-device mode."""
        upgraded = sum(
            1 for m in self._modes.values() if m == VeccPageMode.UPGRADED_18
        )
        return upgraded / self.pages

    def devices_per_access(self, page: int) -> int:
        """Clean-read device count in the page's mode (9 vs 18)."""
        if self.mode_of(page) == VeccPageMode.RELAXED_9:
            return _RelaxedVecc9.RANK
        return Vecc.RANK_DEVICES

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.pages:
            raise ValueError(f"page {page} out of range")

    def _page_of(self, line: int) -> int:
        return line // self.lines_per_page

    # -- data path --------------------------------------------------------------

    def write_line(self, line: int, data: bytes) -> None:
        """Encode a 64B line under the page's current mode."""
        mode = self.mode_of(self._page_of(line))
        if mode == VeccPageMode.RELAXED_9:
            self._store[line] = self.relaxed.encode_line(data)
            # Write touches the rank plus the virtualized check location.
            self.stats.device_accesses += 2 * _RelaxedVecc9.RANK
        else:
            self._store[line] = self.upgraded.encode_line(data)
            self.stats.device_accesses += (
                self.upgraded.devices_per_corrected_access
            )
        self._apply_faults(line)
        self.stats.writes += 1

    def read_line(self, line: int) -> Tuple[bytes, DecodeResult]:
        """Detect-first read with on-demand correction fetch."""
        mode = self.mode_of(self._page_of(line))
        stored = self._store.get(line)
        if stored is None:
            self.write_line(line, bytes(64))
            stored = self._store[line]
        rank_words, corrections = stored
        if mode == VeccPageMode.RELAXED_9:
            result = self.relaxed.detect_line(rank_words)
            self.stats.device_accesses += _RelaxedVecc9.RANK
            if result.status != DecodeStatus.NO_ERROR:
                self.stats.slow_path_reads += 1
                self.stats.device_accesses += _RelaxedVecc9.RANK
                result = self.relaxed.correct_line(rank_words, corrections)
        else:
            result, accesses = self.upgraded.decode_line(
                rank_words, corrections
            )
            self.stats.device_accesses += accesses
            if accesses > self.upgraded.devices_per_clean_read:
                self.stats.slow_path_reads += 1
        if result.status == DecodeStatus.CORRECTED:
            self.stats.corrected += 1
        elif result.status == DecodeStatus.DETECTED_UE:
            self.stats.due += 1
        self.stats.reads += 1
        data = result.data if result.data is not None else bytes(64)
        return data, result

    # -- faults & scrubbing ----------------------------------------------------------

    def inject_device_fault(self, page: int, device: int) -> None:
        """Corrupt one in-rank device across a page's stored lines.

        ``device`` indexes the upgraded 18-device rank; a relaxed
        page's nine-device rank is its first nine.
        """
        self._check_page(page)
        if not 0 <= device < Vecc.RANK_DEVICES:
            raise ValueError(f"device {device} out of range")
        faulty = self._faulty_devices.setdefault(page, [])
        if device in faulty:
            return
        faulty.append(device)
        base = page * self.lines_per_page
        for line in range(base, base + self.lines_per_page):
            self._apply_faults(line, [device])

    def _apply_faults(
        self, line: int, devices: Optional[List[int]] = None
    ) -> None:
        """XOR-corrupt ``devices`` (default: every faulty device of the
        line's page, as after a fresh write) in the stored line."""
        page = self._page_of(line)
        if devices is None:
            devices = self._faulty_devices.get(page)
        stored = self._store.get(line)
        if not devices or stored is None:
            return
        rank_words, _ = stored
        for device in devices:
            for cw in rank_words:
                if device < len(cw):
                    cw[device] ^= 0x5A

    def scrub(self) -> List[int]:
        """Upgrade pages whose fast path reports errors."""
        upgraded = []
        for page in range(self.pages):
            if self.mode_of(page) != VeccPageMode.RELAXED_9:
                continue
            base = page * self.lines_per_page
            faulty = False
            for line in range(base, base + self.lines_per_page):
                stored = self._store.get(line)
                if stored is None:
                    continue
                if self.relaxed.detect_line(stored[0]).status != (
                    DecodeStatus.NO_ERROR
                ):
                    faulty = True
                    break
            if faulty:
                self._upgrade_page(page)
                upgraded.append(page)
        return upgraded

    def _upgrade_page(self, page: int) -> None:
        base = page * self.lines_per_page
        for line in range(base, base + self.lines_per_page):
            stored = self._store.get(line)
            if stored is None:
                continue
            result = self.relaxed.correct_line(stored[0], stored[1])
            payload = (
                result.data
                if result.ok and result.data is not None
                else bytes(64)
            )
            self._store[line] = self.upgraded.encode_line(payload)
        self._modes[page] = VeccPageMode.UPGRADED_18
        self.stats.pages_upgraded += 1
