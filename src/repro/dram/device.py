"""Bit-accurate DRAM device with sparse storage and fault overlays.

The functional ARCC path (store/load/scrub/upgrade with real codewords)
needs device *contents*, but simulating gigabytes densely is pointless:
only locations the workload or the scrubber touches matter. Storage is a
dict keyed by (bank, row, column); unwritten locations read as zero, which
is what a freshly initialized device returns anyway.

Device-level faults are *overlays*: a fault object owns a region predicate
(whole device, one bank, one row, one column, one bit lane...) and a
corruption function applied on every read of a matching location. Stuck-at
faults are therefore persistent and — crucially for the enhanced scrubber
of Section 4.2.2 — visible to write-0/write-1 probing, while the stored
"true" value underneath is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

Location = Tuple[int, int, int]  # (bank, row, column)


@dataclass
class FaultOverlay:
    """A persistent device fault.

    ``matches(bank, row, col)`` decides whether a location is under the
    faulty circuitry; ``corrupt(value)`` maps the stored value to what the
    device actually drives onto the bus.
    """

    name: str
    matches: Callable[[int, int, int], bool]
    corrupt: Callable[[int], int]

    @staticmethod
    def stuck_at(
        name: str,
        matches: Callable[[int, int, int], bool],
        stuck_mask: int,
        stuck_value: int,
        width: int,
    ) -> "FaultOverlay":
        """Stuck bits: output = (value & ~mask) | (stuck_value & mask)."""
        full = (1 << width) - 1
        mask = stuck_mask & full
        forced = stuck_value & mask

        def corrupt(value: int) -> int:
            return (value & ~mask & full) | forced

        return FaultOverlay(name=name, matches=matches, corrupt=corrupt)


class DRAMDevice:
    """One DRAM device: ``width``-bit locations addressed (bank, row, col)."""

    def __init__(
        self,
        width: int,
        banks: int = 8,
        rows: int = 16384,
        columns: int = 2048,
    ):
        if width not in (4, 8, 16):
            raise ValueError(f"unsupported device width x{width}")
        self.width = width
        self.banks = banks
        self.rows = rows
        self.columns = columns
        self._mask = (1 << width) - 1
        self._cells: Dict[Location, int] = {}
        self.faults: List[FaultOverlay] = []

    # -- addressing -----------------------------------------------------------

    def _check(self, bank: int, row: int, col: int) -> Location:
        if not 0 <= bank < self.banks:
            raise ValueError(f"bank {bank} out of range")
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range")
        if not 0 <= col < self.columns:
            raise ValueError(f"column {col} out of range")
        return (bank, row, col)

    # -- data path --------------------------------------------------------------

    def write(self, bank: int, row: int, col: int, value: int) -> None:
        """Store ``value`` (masked to the device width)."""
        loc = self._check(bank, row, col)
        self._cells[loc] = value & self._mask

    def read(self, bank: int, row: int, col: int) -> int:
        """Read with fault overlays applied (the bus-visible value)."""
        loc = self._check(bank, row, col)
        value = self._cells.get(loc, 0)
        for fault in self.faults:
            if fault.matches(*loc):
                value = fault.corrupt(value) & self._mask
        return value

    def read_true(self, bank: int, row: int, col: int) -> int:
        """Oracle read of the stored value, bypassing faults (tests/SDC)."""
        return self._cells.get(self._check(bank, row, col), 0)

    @property
    def is_faulty(self) -> bool:
        """True when any overlay is installed."""
        return bool(self.faults)

    # -- fault injection helpers -------------------------------------------------

    def inject_device_fault(self, stuck_value: int = 0) -> FaultOverlay:
        """Whole-device failure: every location stuck."""
        fault = FaultOverlay.stuck_at(
            "device",
            lambda b, r, c: True,
            stuck_mask=self._mask,
            stuck_value=stuck_value,
            width=self.width,
        )
        self.faults.append(fault)
        return fault

    def inject_bank_fault(self, bank: int, stuck_value: int = 0) -> FaultOverlay:
        """One bank stuck."""
        fault = FaultOverlay.stuck_at(
            f"bank{bank}",
            lambda b, r, c, _bank=bank: b == _bank,
            stuck_mask=self._mask,
            stuck_value=stuck_value,
            width=self.width,
        )
        self.faults.append(fault)
        return fault

    def inject_row_fault(
        self, bank: int, row: int, stuck_value: int = 0
    ) -> FaultOverlay:
        """One row within a bank stuck."""
        fault = FaultOverlay.stuck_at(
            f"row{bank}.{row}",
            lambda b, r, c, _b=bank, _r=row: b == _b and r == _r,
            stuck_mask=self._mask,
            stuck_value=stuck_value,
            width=self.width,
        )
        self.faults.append(fault)
        return fault

    def inject_column_fault(
        self, bank: int, col: int, stuck_value: int = 0
    ) -> FaultOverlay:
        """One column within a bank stuck."""
        fault = FaultOverlay.stuck_at(
            f"col{bank}.{col}",
            lambda b, r, c, _b=bank, _c=col: b == _b and c == _c,
            stuck_mask=self._mask,
            stuck_value=stuck_value,
            width=self.width,
        )
        self.faults.append(fault)
        return fault

    def inject_bit_fault(
        self, bank: int, row: int, col: int, bit: int, stuck_to: int
    ) -> FaultOverlay:
        """A single stuck bit at one location."""
        if not 0 <= bit < self.width:
            raise ValueError(f"bit {bit} out of range for x{self.width}")
        fault = FaultOverlay.stuck_at(
            f"bit{bank}.{row}.{col}.{bit}",
            lambda b, r, c, _b=bank, _r=row, _c=col: (b, r, c)
            == (_b, _r, _c),
            stuck_mask=1 << bit,
            stuck_value=(stuck_to & 1) << bit,
            width=self.width,
        )
        self.faults.append(fault)
        return fault

    def __repr__(self) -> str:
        return (
            f"DRAMDevice(x{self.width}, banks={self.banks}, "
            f"faults={len(self.faults)}, cells={len(self._cells)})"
        )
