"""The physical-address map: DRAMsim's high-performance ``sdram_hiperf_map``.

The mapping decides which channel, rank, bank, row and column serve a line
address. The property ARCC depends on (Section 4.1) is that conventional
multi-controller mappings put *adjacent 64B lines on alternate channels*,
so the two sub-lines of an upgraded 128B line always live on different
channels and can be fetched in parallel. The evaluation's map interleaves
channel first, then bank, then rank, then column, then row (lowest-order
field first) — maximizing parallelism for streams under the closed-page
policy. It is the one map the memory system uses: :class:`AddressMapping`
decodes one address, :func:`decode_lines` an array of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.config import MemoryConfig


@dataclass(frozen=True)
class DecodedAddress:
    """Where a line address landed."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int


def _take(value: int, count: int) -> tuple:
    """Pop ``count`` values from the bottom of ``value`` (mixed radix)."""
    return value % count, value // count


class AddressMapping:
    """Line-address decoder for one memory geometry.

    Addresses are *line indices* (byte address / line size), decoded
    channel : bank : rank : column : row from the bottom, so adjacent
    lines alternate channels, as the paper's Figure 4.1 requires.
    """

    def __init__(self, config: MemoryConfig):
        self.config = config
        self.rows = config.rows_per_bank
        line_bits = config.cacheline_bytes
        row_bytes = config.page_bytes * config.pages_per_row
        self.lines_per_row = row_bytes // line_bits

    def decode(self, line_address: int) -> DecodedAddress:
        """Map a line index to (channel, rank, bank, row, column)."""
        if line_address < 0:
            raise ValueError("line address must be non-negative")
        cfg = self.config
        channel, rest = _take(line_address, cfg.channels)
        bank, rest = _take(rest, cfg.banks_per_device)
        rank, rest = _take(rest, cfg.ranks_per_channel)
        column, rest = _take(rest, self.lines_per_row)
        row = rest % self.rows
        return DecodedAddress(
            channel=channel, rank=rank, bank=bank, row=row, column=column
        )

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (used by tests and the scrubber)."""
        cfg = self.config
        value = decoded.row
        value = value * self.lines_per_row + decoded.column
        value = value * cfg.ranks_per_channel + decoded.rank
        value = value * cfg.banks_per_device + decoded.bank
        value = value * cfg.channels + decoded.channel
        return value

    def sibling_line(self, line_address: int) -> int:
        """The other sub-line of the upgraded 128B line containing this one.

        Adjacent even/odd line addresses pair up; they always decode to
        different channels because channel bits sit at the bottom.
        """
        return line_address ^ 1

    def page_of(self, line_address: int) -> int:
        """Physical 4 KB page index containing the line."""
        lines_per_page = self.config.lines_per_page
        return line_address // lines_per_page


def decode_lines(
    line_addresses: np.ndarray, config: MemoryConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized HIPERF ``AddressMapping.decode`` to (channel, rank, bank).

    Row and column are irrelevant to the closed-page timing model, so
    only the three scheduling coordinates are produced. Matches the
    scalar decoder exactly (integer mixed-radix arithmetic either way);
    HIPERF is the one mapping the memory system replays under.

    >>> from repro.config import ARCC_MEMORY_CONFIG
    >>> channel, rank, bank = decode_lines(np.arange(0, 64, 9), ARCC_MEMORY_CONFIG)
    >>> channel.tolist(), rank.tolist(), bank.tolist()
    ([0, 1, 0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 0, 0, 1, 1], [0, 4, 1, 5, 2, 6, 3, 7])
    """
    a = np.asarray(line_addresses, dtype=np.int64)
    channel, rest = a % config.channels, a // config.channels
    bank, rest = (
        rest % config.banks_per_device,
        rest // config.banks_per_device,
    )
    rank = rest % config.ranks_per_channel
    return channel, rank, bank
