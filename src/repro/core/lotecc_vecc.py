"""ARCC applied to LOT-ECC and VECC (Sections 5.2 and 7.2.1).

ARCC is an optimization over an existing chipkill code, and Section 5.2
applies the same policy to both recently proposed ones: a page starts in a
relaxed nine-device code, and a scrub that finds a fault in it upgrades
the page to the 18-device code. :class:`ArccPages` is that page machine
over a (relaxed, upgraded) codec pair; the two schemes differ only in the
pair:

* :class:`ArccLotEcc` — nine-device LOT-ECC (single chipkill correct)
  upgrading to the 18-device form with *double chip sparing*. An upgraded
  access touches twice the devices, and the 18-device form keeps its
  tier-1 checksums in another line of the same row, so every read costs a
  second read: :data:`~repro.ecc.lotecc.WORST_CASE_UPGRADE_FACTOR`, the
  factor behind Figure 7.6.
* :class:`ArccVecc` — a nine-device rank of RS(11,8) whose fast path only
  detects, with the two correction symbols virtualized into another rank
  and fetched on a detected error, upgrading to 18-device VECC, RS(20,16).

Faults are injected per (page, device) and corrupt that device's symbols
in every stored line of the page, including lines written later.

>>> memory = ArccLotEcc(pages=1)
>>> memory.write_line(0, bytes(range(64)))
>>> memory.inject_device_fault(page=0, device=1)
>>> memory.scrub()
[0]
>>> data, result = memory.read_line(0)
>>> result.status.name, result.error_positions, data == bytes(range(64))
('CORRECTED', (1,), True)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

from repro.ecc.base import DecodeResult, DecodeStatus
from repro.ecc.lotecc import LotEcc9, LotEcc18, LotEccLine
from repro.ecc.vecc import Vecc

LINE_BYTES = 64


class PageMode(enum.Enum):
    """Protection mode of a page: the relaxed or the upgraded code."""

    RELAXED_9 = "relaxed-9"
    UPGRADED_18 = "upgraded-18"


@dataclass
class PageAccessStats:
    """Access accounting for the power model."""

    reads: int = 0
    writes: int = 0
    device_accesses: int = 0
    memory_operations: int = 0  # rank-wide line commands issued
    slow_path_reads: int = 0  # reads that cost more than a clean read
    corrected: int = 0
    due: int = 0
    pages_upgraded: int = 0


class _LotEccCode:
    """A LOT-ECC configuration as one page mode: a line is its device slices."""

    def __init__(self, codec: LotEcc9 | LotEcc18):
        self.devices = codec.devices
        self.reads_per_read = codec.reads_per_read
        self.writes_per_write = codec.writes_per_write
        self.encode = codec.encode_line
        # Tier 1 localizes and tier 2 rebuilds in one decode, which is
        # also the scrub's verdict and the upgrade's payload.
        self.detect = self.recover = codec.decode_line

    def read(self, stored: LotEccLine) -> Tuple[DecodeResult, int]:
        return self.detect(stored), self.reads_per_read

    @staticmethod
    def corrupt(stored: LotEccLine, device: int) -> None:
        if device < len(stored.segments):
            stored.segments[device] = bytes(b ^ 0xFF for b in stored.segments[device])


class _VeccCode:
    """A VECC geometry as one page mode: a line is its rank codewords and
    their virtualized correction symbols."""

    reads_per_read = 1  # the slow path adds a read of the other rank
    writes_per_write = 2  # the rank plus the virtualized check location

    def __init__(self, codec: Vecc):
        self.codec = codec
        self.devices = codec.rank_devices
        self.encode = codec.encode_line

    def read(self, stored: Tuple[list, list]) -> Tuple[DecodeResult, int]:
        result, accesses = self.codec.decode_line(*stored)
        return result, accesses // self.devices

    def detect(self, stored: Tuple[list, list]) -> DecodeResult:
        return self.codec.detect_line(stored[0])

    def recover(self, stored: Tuple[list, list]) -> DecodeResult:
        return self.codec.correct_line(*stored)

    @staticmethod
    def corrupt(stored: Tuple[list, list], device: int) -> None:
        for cw in stored[0]:
            if device < len(cw):
                cw[device] ^= 0x5A


class ArccPages:
    """Functional ARCC memory at line granularity over a codec pair.

    Each code of the pair supplies its rank width ``devices``, the rank
    accesses of a clean read and of a write (``reads_per_read``,
    ``writes_per_write``), and five operations on a stored line:
    ``encode``, ``read`` (the result and the rank accesses it took),
    ``detect`` (the scrub's verdict), ``recover`` (the upgrade's
    payload) and ``corrupt`` (one faulty device). ``fault_devices`` is
    how many devices a fault may hit, indexed as in the upgraded code; a
    relaxed page's devices are the first ones.
    """

    def __init__(
        self,
        relaxed: Any,
        upgraded: Any,
        fault_devices: int,
        pages: int,
        lines_per_page: int,
    ):
        self.pages = pages
        self.lines_per_page = lines_per_page
        self.fault_devices = fault_devices
        self.relaxed = relaxed
        self.upgraded = upgraded
        self._upgraded_pages: Set[int] = set()
        self._store: Dict[int, Any] = {}
        self._faulty_devices: Dict[int, List[int]] = {}  # page -> devices
        self.stats = PageAccessStats()

    # -- modes -----------------------------------------------------------------

    def mode_of(self, page: int) -> PageMode:
        """Current mode of a page (relaxed by default)."""
        if not 0 <= page < self.pages:
            raise ValueError(f"page {page} out of range")
        return PageMode.UPGRADED_18 if page in self._upgraded_pages else PageMode.RELAXED_9

    def fraction_upgraded(self) -> float:
        """Fraction of pages in the 18-device mode."""
        return len(self._upgraded_pages) / self.pages

    def devices_per_access(self, page: int) -> int:
        """Devices one rank access touches in the page's mode (9 vs 18)."""
        return self._code(page).devices

    def _code(self, page: int) -> Any:
        return self.upgraded if self.mode_of(page) == PageMode.UPGRADED_18 else self.relaxed

    def _page_of(self, line: int) -> int:
        if not 0 <= line < self.pages * self.lines_per_page:
            raise ValueError(f"line {line} out of range")
        return line // self.lines_per_page

    def _lines(self, page: int) -> range:
        return range(page * self.lines_per_page, (page + 1) * self.lines_per_page)

    # -- data path ---------------------------------------------------------------

    def write_line(self, line: int, data: bytes) -> None:
        """Encode and store one 64B line under its page's current mode."""
        code = self._store_line(line, data)
        self.stats.writes += 1
        self.stats.memory_operations += code.writes_per_write
        self.stats.device_accesses += code.writes_per_write * code.devices

    def _store_line(self, line: int, data: bytes) -> Any:
        """Encode ``data`` in the line's page mode, store it with every
        faulty device of the page applied, and return the page's code."""
        page = self._page_of(line)
        code = self._code(page)
        stored = code.encode(data)
        for device in self._faulty_devices.get(page, ()):
            code.corrupt(stored, device)
        self._store[line] = stored
        return code

    def read_line(self, line: int) -> Tuple[bytes, DecodeResult]:
        """Read one line; returns (data, decode result). Unwritten
        memory decodes as a zero line and stays unwritten."""
        code = self._code(self._page_of(line))
        stored = self._store.get(line)
        if stored is None:
            stored = code.encode(bytes(LINE_BYTES))
        result, operations = code.read(stored)
        self.stats.reads += 1
        self.stats.memory_operations += operations
        self.stats.device_accesses += operations * code.devices
        self.stats.slow_path_reads += operations > code.reads_per_read
        if result.status == DecodeStatus.CORRECTED:
            self.stats.corrected += 1
        elif result.status == DecodeStatus.DETECTED_UE:
            self.stats.due += 1
        data = result.data if result.data is not None else bytes(LINE_BYTES)
        return data, result

    # -- faults & scrubbing ----------------------------------------------------------

    def inject_device_fault(self, page: int, device: int) -> None:
        """Corrupt one device's symbols across a page; re-injecting a
        faulty device changes nothing."""
        code = self._code(page)
        if not 0 <= device < self.fault_devices:
            raise ValueError(f"device {device} out of range")
        faulty = self._faulty_devices.setdefault(page, [])
        if device in faulty:
            return
        faulty.append(device)
        for line in self._lines(page):
            if line in self._store:
                code.corrupt(self._store[line], device)

    def scrub(self) -> List[int]:
        """Upgrade every relaxed page whose relaxed detection reports an
        error on a stored line; returns the pages upgraded this pass."""
        upgraded = [
            page
            for page in range(self.pages)
            if page not in self._upgraded_pages
            and any(
                self.relaxed.detect(self._store[line]).status != DecodeStatus.NO_ERROR
                for line in self._lines(page)
                if line in self._store
            )
        ]
        for page in upgraded:
            self._upgrade_page(page)
        return upgraded

    def _upgrade_page(self, page: int) -> None:
        """Re-encode every stored line of the page in the upgraded code
        from its relaxed recovery; the page's faults stay applied."""
        self._upgraded_pages.add(page)
        for line in self._lines(page):
            if line in self._store:
                result = self.relaxed.recover(self._store[line])
                ok = result.ok and result.data is not None
                self._store_line(line, result.data if ok else bytes(LINE_BYTES))
        self.stats.pages_upgraded += 1


class ArccLotEcc(ArccPages):
    """ARCC+LOT-ECC: faults hit one of LotEcc18's 16 data devices."""

    def __init__(self, pages: int = 16, lines_per_page: int = 64):
        super().__init__(
            _LotEccCode(LotEcc9()),
            _LotEccCode(LotEcc18()),
            LotEcc18.data_devices,
            pages,
            lines_per_page,
        )


class ArccVecc(ArccPages):
    """ARCC+VECC: faults hit one of the upgraded rank's 18 devices."""

    def __init__(self, pages: int = 16, lines_per_page: int = 64):
        upgraded = Vecc()
        super().__init__(
            _VeccCode(Vecc(data_devices=8, detect_checks=1)),
            _VeccCode(upgraded),
            upgraded.rank_devices,
            pages,
            lines_per_page,
        )
