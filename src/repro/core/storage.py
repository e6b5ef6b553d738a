"""Functional symbol storage: codewords <-> DRAM device cells.

This is the layer that makes ARCC *functional* rather than statistical:
every codeword symbol has a physical home in a :class:`DRAMDevice` cell,
chosen by the address mapping, and fault overlays corrupt reads exactly
where the faulty circuitry sits.

Layout (Figure 4.1): a logical line in mode ``m`` spans ``m.span``
consecutive 64B sub-lines, which the channel-interleaved address map puts
on alternating channels. Data symbol ``i`` of a codeword lives on device
``i % 16`` of sub-line ``i // 16``'s rank; check symbol ``j`` lives on
redundant device ``16 + j % 2`` of sub-line ``j // 2``. Every device
stores exactly ``codewords_per_line`` symbols per sub-line in all modes —
the storage overhead never changes, which is the paper's key constraint.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.config import MemoryConfig
from repro.core.modes import ProtectionMode
from repro.dram.addressing import AddressMapping
from repro.dram.device import DRAMDevice
from repro.ecc.chipkill import (
    ChipkillCodec,
    make_double_upgraded_codec,
    make_relaxed_codec,
    make_upgraded_codec,
)

#: Data devices per sub-line rank (16 x8 data devices in the ARCC config).
DATA_DEVICES_PER_SUBLINE = 16
#: Check devices per sub-line rank.
CHECK_DEVICES_PER_SUBLINE = 2
DEVICES_PER_SUBLINE = DATA_DEVICES_PER_SUBLINE + CHECK_DEVICES_PER_SUBLINE


def codec_for_mode(mode: ProtectionMode) -> ChipkillCodec:
    """The chipkill codec of one protection mode."""
    if mode == ProtectionMode.RELAXED:
        return make_relaxed_codec()
    if mode == ProtectionMode.UPGRADED:
        return make_upgraded_codec()
    return make_double_upgraded_codec()


def symbol_home(mode: ProtectionMode, symbol_index: int) -> Tuple[int, int]:
    """(sub-line, device-in-rank) hosting one codeword symbol position."""
    geometry = mode.geometry
    if symbol_index < 0 or symbol_index >= geometry.total_symbols:
        raise ValueError(f"symbol {symbol_index} out of range for {mode}")
    if symbol_index < geometry.data_symbols:
        return (
            symbol_index // DATA_DEVICES_PER_SUBLINE,
            symbol_index % DATA_DEVICES_PER_SUBLINE,
        )
    check = symbol_index - geometry.data_symbols
    return (
        check // CHECK_DEVICES_PER_SUBLINE,
        DATA_DEVICES_PER_SUBLINE + check % CHECK_DEVICES_PER_SUBLINE,
    )


class ArccStorage:
    """Devices of one ARCC memory system plus the symbol placement logic."""

    def __init__(self, config: MemoryConfig, pages: int):
        if config.devices_per_rank != DEVICES_PER_SUBLINE:
            raise ValueError(
                "functional storage models the 18-device ARCC rank"
            )
        self.config = config
        self.pages = pages
        self.mapping = AddressMapping(config)
        self.total_lines = pages * config.lines_per_page

        lines_per_bank_row = self.mapping.lines_per_row
        slots = (
            config.channels
            * config.ranks_per_channel
            * config.banks_per_device
            * lines_per_bank_row
        )
        rows_needed = max((self.total_lines + slots - 1) // slots, 1)
        codewords_per_subline = 4  # 64B over 16 x8 devices, 8-bit symbols
        # Size the devices to the *used* footprint so injected faults
        # (which pick coordinates uniformly over the device) always land
        # on live circuitry — matching the paper's worst-case assumption
        # that a fault corrupts everything under the faulty structure.
        per_bank = self.total_lines // (
            config.channels
            * config.ranks_per_channel
            * config.banks_per_device
        )
        columns_used = min(lines_per_bank_row, max(per_bank, 1))
        columns_needed = columns_used * codewords_per_subline
        #: devices[channel][rank][device]
        self.devices: List[List[List[DRAMDevice]]] = [
            [
                [
                    DRAMDevice(
                        width=8,
                        banks=config.banks_per_device,
                        rows=rows_needed,
                        columns=columns_needed,
                    )
                    for _ in range(config.devices_per_rank)
                ]
                for _ in range(config.ranks_per_channel)
            ]
            for _ in range(config.channels)
        ]
        self.codewords_per_subline = codewords_per_subline
        self.device_reads = 0
        self.device_writes = 0

    # -- addressing ------------------------------------------------------------

    def check_line(self, line_address: int) -> int:
        """Validate a line address against the configured capacity."""
        if not 0 <= line_address < self.total_lines:
            raise ValueError(
                f"line {line_address} outside the {self.total_lines}-line "
                "memory"
            )
        return line_address

    def base_line(self, line_address: int, mode: ProtectionMode) -> int:
        """First sub-line of the logical line containing ``line_address``."""
        return line_address & ~(mode.span - 1)

    def _sub_location(self, sub_address: int, codeword: int):
        decoded = self.mapping.decode(sub_address)
        col = decoded.column * self.codewords_per_subline + codeword
        return decoded, col

    # -- codeword I/O ---------------------------------------------------------

    def write_codewords(
        self,
        base_address: int,
        mode: ProtectionMode,
        codewords: Sequence[Sequence[int]],
    ) -> None:
        """Store a logical line's codewords at their device cells."""
        self.check_line(base_address)
        if base_address % mode.span:
            raise ValueError("base address not aligned to the mode's span")
        geometry = mode.geometry
        for c, codeword in enumerate(codewords):
            if len(codeword) != geometry.total_symbols:
                raise ValueError("codeword length does not match mode")
            for s, symbol in enumerate(codeword):
                sub, dev = symbol_home(mode, s)
                decoded, col = self._sub_location(base_address + sub, c)
                device = self.devices[decoded.channel][decoded.rank][dev]
                device.write(decoded.bank, decoded.row, col, symbol)
                self.device_writes += 1

    def read_codewords(
        self, base_address: int, mode: ProtectionMode
    ) -> List[List[int]]:
        """Read a logical line's codewords (fault overlays applied)."""
        self.check_line(base_address)
        if base_address % mode.span:
            raise ValueError("base address not aligned to the mode's span")
        geometry = mode.geometry
        codewords = []
        for c in range(self.codewords_per_subline):
            symbols = []
            for s in range(geometry.total_symbols):
                sub, dev = symbol_home(mode, s)
                decoded, col = self._sub_location(base_address + sub, c)
                device = self.devices[decoded.channel][decoded.rank][dev]
                symbols.append(device.read(decoded.bank, decoded.row, col))
                self.device_reads += 1
            codewords.append(symbols)
        return codewords

    # -- raw sub-line I/O (the scrubber's pattern probes) -------------------------

    def fill_subline(self, sub_address: int, pattern: int) -> None:
        """Write ``pattern`` into every cell of one 64B sub-line."""
        self.check_line(sub_address)
        for c in range(self.codewords_per_subline):
            decoded, col = self._sub_location(sub_address, c)
            for device in self.devices[decoded.channel][decoded.rank]:
                device.write(decoded.bank, decoded.row, col, pattern)
                self.device_writes += 1

    def read_subline_raw(self, sub_address: int) -> List[List[int]]:
        """Raw per-codeword symbols of one sub-line (all 18 devices)."""
        self.check_line(sub_address)
        out = []
        for c in range(self.codewords_per_subline):
            decoded, col = self._sub_location(sub_address, c)
            out.append(
                [
                    device.read(decoded.bank, decoded.row, col)
                    for device in self.devices[decoded.channel][decoded.rank]
                ]
            )
            self.device_reads += len(
                self.devices[decoded.channel][decoded.rank]
            )
        return out

    # -- fault-injection plumbing ---------------------------------------------------

    def ranks_of_channel(self, channel: int) -> List[List[DRAMDevice]]:
        """Rank/device structure of one channel (for the injector)."""
        return self.devices[channel]
