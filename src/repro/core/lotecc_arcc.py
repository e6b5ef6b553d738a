"""ARCC applied to LOT-ECC (Sections 5.2 and 7.2.1).

Relaxed pages use nine-device LOT-ECC (single chipkill correct); when the
scrubber finds a fault in a page, the page converts to the 18-device
LOT-ECC configuration, which provides *double chip sparing*. The costs are
steeper than for commercial chipkill (Chapter 7.2.1):

* an upgraded access touches twice the devices, and
* the 18-device form keeps its tier-1 checksums in a different line of the
  same row, adding one extra read per read (on top of LOT-ECC's extra
  write per write);

so in the worst case (100% reads, no spatial locality) one upgraded access
costs 4x a relaxed access — the factor behind Figure 7.6.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ecc.base import DecodeResult, DecodeStatus
from repro.ecc.lotecc import LotEcc9, LotEcc18, LotEccLine
from repro.faults.types import DEFAULT_FIT_RATES
from repro.fleet.engine import faulty_fractions_at, sample_fleet
from repro.util.units import HOURS_PER_YEAR

#: Worst-case cost of an upgraded access relative to a relaxed one
#: (2x devices x 2x accesses).
WORST_CASE_UPGRADE_FACTOR = 4.0


class LotPageMode(enum.Enum):
    """Protection mode of a page under ARCC+LOT-ECC."""

    RELAXED_9 = "lotecc-9"
    UPGRADED_18 = "lotecc-18"


@dataclass
class LotStats:
    """Access accounting for the power model."""

    reads: int = 0
    writes: int = 0
    device_accesses: int = 0
    memory_operations: int = 0  # line-granularity commands issued
    corrected: int = 0
    due: int = 0
    pages_upgraded: int = 0


class ArccLotEcc:
    """Functional ARCC+LOT-ECC memory at line granularity.

    Lines are stored as encoded :class:`LotEccLine` objects; faults are
    injected per (page, device) and corrupt the stored segments of every
    line in the page, which is how a device-level fault presents at this
    abstraction level.
    """

    def __init__(self, pages: int = 16, lines_per_page: int = 64):
        self.pages = pages
        self.lines_per_page = lines_per_page
        self.codec9 = LotEcc9()
        self.codec18 = LotEcc18()
        self._modes: Dict[int, LotPageMode] = {}
        self._store: Dict[int, LotEccLine] = {}
        self._encoded_with: Dict[int, LotPageMode] = {}
        self._faulty_devices: Dict[int, List[int]] = {}  # page -> devices
        self.stats = LotStats()

    # -- modes -------------------------------------------------------------

    def mode_of(self, page: int) -> LotPageMode:
        """Current mode of a page (relaxed by default)."""
        self._check_page(page)
        return self._modes.get(page, LotPageMode.RELAXED_9)

    def fraction_upgraded(self) -> float:
        """Fraction of pages running 18-device LOT-ECC."""
        upgraded = sum(
            1 for m in self._modes.values() if m == LotPageMode.UPGRADED_18
        )
        return upgraded / self.pages

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.pages:
            raise ValueError(f"page {page} out of range")

    def _check_line(self, line: int) -> int:
        if not 0 <= line < self.pages * self.lines_per_page:
            raise ValueError(f"line {line} out of range")
        return line

    def _page_of(self, line: int) -> int:
        return line // self.lines_per_page

    def _codec(self, mode: LotPageMode):
        return (
            self.codec9 if mode == LotPageMode.RELAXED_9 else self.codec18
        )

    # -- access costs (the Chapter 7.2.1 arithmetic) -------------------------

    def _account(self, mode: LotPageMode, is_write: bool) -> None:
        codec = self._codec(mode)
        ops = codec.writes_per_write if is_write else codec.reads_per_read
        self.stats.memory_operations += ops
        self.stats.device_accesses += ops * codec.devices
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1

    # -- data path ------------------------------------------------------------

    def write_line(self, line: int, data: bytes) -> None:
        """Encode and store one 64B line under its page's current mode."""
        self._check_line(line)
        mode = self.mode_of(self._page_of(line))
        encoded = self._codec(mode).encode_line(data)
        self._store[line] = encoded
        self._encoded_with[line] = mode
        self._apply_faults(line)
        self._account(mode, is_write=True)

    def read_line(self, line: int) -> Tuple[bytes, DecodeResult]:
        """Read one line; returns (data, decode result)."""
        self._check_line(line)
        mode = self.mode_of(self._page_of(line))
        stored = self._store.get(line)
        if stored is None:
            # Unwritten memory: decode a zero line.
            stored = self._codec(mode).encode_line(
                bytes(self._codec(mode).line_bytes)
            )
        result = self._codec(mode).decode_line(stored)
        if result.status == DecodeStatus.CORRECTED:
            self.stats.corrected += 1
        elif result.status == DecodeStatus.DETECTED_UE:
            self.stats.due += 1
        self._account(mode, is_write=False)
        data = result.data if result.data is not None else bytes(64)
        return data, result

    # -- faults & scrubbing -------------------------------------------------------

    def inject_device_fault(self, page: int, device: int) -> None:
        """Corrupt one data device's segments across a page."""
        self._check_page(page)
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
        for device in devices:
            if device < len(stored.segments):
                stored.segments[device] = bytes(
                    b ^ 0xFF for b in stored.segments[device]
                )

    def scrub(self) -> List[int]:
        """Detect faulty pages and upgrade them to 18-device LOT-ECC.

        Returns the pages upgraded this pass. Upgrading re-encodes every
        line of the page from its corrected contents.
        """
        upgraded = []
        for page in range(self.pages):
            if self.mode_of(page) != LotPageMode.RELAXED_9:
                continue
            base = page * self.lines_per_page
            faulty = False
            for line in range(base, base + self.lines_per_page):
                stored = self._store.get(line)
                if stored is None:
                    continue
                if self.codec9.decode_line(stored).status != (
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
            result = self.codec9.decode_line(stored)
            payload = (
                result.data if result.ok and result.data is not None
                else bytes(64)
            )
            self._store[line] = self.codec18.encode_line(payload)
            self._encoded_with[line] = LotPageMode.UPGRADED_18
        self._modes[page] = LotPageMode.UPGRADED_18
        self.stats.pages_upgraded += 1


# -- lifetime overhead model (Figure 7.6) -------------------------------------


def lotecc_lifetime_overhead(
    years: int = 7,
    channels: int = 2000,
    rate_multiplier: float = 1.0,
    seed: int = 0x107ECC,
    upgrade_factor: float = WORST_CASE_UPGRADE_FACTOR,
) -> List[float]:
    """Average worst-case overhead of ARCC+LOT-ECC vs nine-device LOT-ECC.

    Entry ``y`` is the overhead averaged from deployment to the end of
    year ``y+1``: each fault upgrades its Table 7.4 page fraction, and an
    upgraded access costs ``upgrade_factor``x a relaxed one, so the
    instantaneous overhead is ``(factor - 1) * fraction_upgraded(t)``,
    sampled at 12 mid-step times per year.
    """
    batch = sample_fleet(
        channels,
        float(years),
        rates=DEFAULT_FIT_RATES.scaled(rate_multiplier),
        seed=seed,
    )
    steps_per_year = 12
    steps = np.arange(years * steps_per_year)
    hours = (steps + 0.5) / steps_per_year * HOURS_PER_YEAR
    per_step = faulty_fractions_at(batch, hours).mean(axis=1)
    running_mean = np.cumsum(per_step) / (steps + 1)
    year_ends = running_mean[steps_per_year - 1 :: steps_per_year]
    return [float(v) for v in (upgrade_factor - 1.0) * year_ends]
