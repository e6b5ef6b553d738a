"""Canonical experiment configurations (Tables 7.1, 7.2 and the page/line
geometry of Chapter 4).

The paper evaluates two memory organizations with the same total device
count and the same 12.5% ECC storage overhead:

* **Baseline (commercial SCCDCD)** — one logical channel of two physical
  channels in lockstep, one rank pair, 36 x4 DDR2 devices per access
  (32 data + 4 check symbols per codeword).
* **ARCC** — two independent channels, two ranks per channel, 18 x8 DDR2
  devices per access (16 data + 2 check symbols per codeword) in relaxed
  mode; an upgraded page accesses both channels (36 devices) per request.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, Tuple

from repro.util.bitops import is_power_of_two
from repro.util.fields import FieldError, check_range
from repro.util.units import GB, KB

#: Device I/O widths with datasheet parameters (``repro.dram.timing``).
SUPPORTED_IO_WIDTHS = (4, 8)


@dataclass(frozen=True)
class MemoryConfig:
    """One memory organization (a row of Table 7.1 plus geometry).

    Attributes mirror the table: DRAM technology, device I/O width,
    number of channels, ranks per channel and devices per rank. The
    derived properties capture the codeword geometry Chapter 4 assumes.

    Construction checks every value: the technology is named, counts
    and sizes are >= 1, line and page sizes are powers of two (they feed
    set indexing and page striping), the I/O width has datasheet
    parameters, a page holds whole lines and a channel whole pages, and
    a rank keeps at least one check device.
    """

    name: str
    technology: str  # e.g. "DDR2-667"
    io_width: int  # device I/O width in bits (x4 -> 4, x8 -> 8)
    channels: int
    ranks_per_channel: int
    devices_per_rank: int
    data_devices_per_rank: int
    cacheline_bytes: int = 64
    page_bytes: int = 4 * KB
    capacity_per_channel_bytes: int = 4 * GB
    banks_per_device: int = 8
    pages_per_row: int = 2  # Section 7.1: two 4 KB pages per DRAM row
    # Sub-bank array geometry for exact spatial fault coordinates; the
    # defaults match ReliabilityParams so fleet batches and the exact
    # Monte-Carlo footprint model agree on the coordinate space.
    rows_per_bank: int = 16384
    columns_per_row: int = 2048

    def __post_init__(self) -> None:
        if not self.technology:
            raise FieldError("technology", "must not be empty")
        for item in fields(self)[2:]:  # every field after the two names
            check_range(item.name, getattr(self, item.name), at_least=1)
        for name in ("cacheline_bytes", "page_bytes"):
            if not is_power_of_two(getattr(self, name)):
                raise FieldError(
                    name, f"must be a power of two, got {getattr(self, name)}"
                )
        if self.io_width not in SUPPORTED_IO_WIDTHS:
            raise FieldError(
                "io_width",
                f"no datasheet parameters for x{self.io_width} devices; "
                f"supported: {', '.join(map(str, SUPPORTED_IO_WIDTHS))}",
            )
        if self.page_bytes % self.cacheline_bytes:
            raise FieldError(
                "page_bytes",
                "must be a multiple of cacheline_bytes "
                f"({self.cacheline_bytes}), got {self.page_bytes}",
            )
        if self.capacity_per_channel_bytes % self.page_bytes:
            raise FieldError(
                "capacity_per_channel_bytes",
                f"must be a multiple of page_bytes ({self.page_bytes}), "
                f"got {self.capacity_per_channel_bytes}",
            )
        if self.data_devices_per_rank >= self.devices_per_rank:
            raise ValueError("need at least one redundant device per rank")

    @property
    def check_devices_per_rank(self) -> int:
        """Redundant devices per rank (one check symbol each)."""
        return self.devices_per_rank - self.data_devices_per_rank

    @property
    def storage_overhead(self) -> float:
        """ECC storage overhead (check / data), 12.5% for both configs."""
        return self.check_devices_per_rank / self.data_devices_per_rank

    @property
    def lines_per_page(self) -> int:
        """64B cachelines in one physical page (64 for 4 KB pages)."""
        return self.page_bytes // self.cacheline_bytes

    @property
    def devices_per_access(self) -> int:
        """Devices touched by one (relaxed-mode) memory request."""
        return self.devices_per_rank

    @property
    def total_devices(self) -> int:
        """Devices across all channels and ranks."""
        return self.channels * self.ranks_per_channel * self.devices_per_rank

    @property
    def pages_per_channel(self) -> int:
        """Physical 4 KB pages mapped to one channel."""
        return self.capacity_per_channel_bytes // self.page_bytes


def distinct_organizations(
    configs: Iterable[MemoryConfig], field: str = "organizations"
) -> Tuple[MemoryConfig, ...]:
    """Distinct organizations in first-appearance order, keyed by name.

    The one name-collision check: an organization's name is its key in
    measurement plans and reports, so two *different* organizations may
    not share one (:class:`FieldError` at ``field[i]``).
    """
    seen: Dict[str, MemoryConfig] = {}
    for i, config in enumerate(configs):
        if seen.setdefault(config.name, config) != config:
            raise FieldError(
                f"{field}[{i}]",
                "two different memory organizations share the name "
                f"{config.name!r}",
            )
    return tuple(seen.values())


#: Table 7.1, row "Baseline": DDR2 x4, two logical channels (each a
#: lockstep pair of physical channels), one rank of 36 devices per channel
#: (32 data + 4 check).
BASELINE_MEMORY_CONFIG = MemoryConfig(
    name="Baseline-SCCDCD",
    technology="DDR2-667",
    io_width=4,
    channels=2,
    ranks_per_channel=1,
    devices_per_rank=36,
    data_devices_per_rank=32,
    capacity_per_channel_bytes=4 * GB,
)

#: Table 7.1, row "ARCC": DDR2 x8, two independent channels with 18-device
#: ranks (16 data + 2 check). Same total device count as the baseline.
ARCC_MEMORY_CONFIG = MemoryConfig(
    name="ARCC",
    technology="DDR2-667",
    io_width=8,
    channels=2,
    ranks_per_channel=2,
    devices_per_rank=18,
    data_devices_per_rank=16,
    capacity_per_channel_bytes=4 * GB,
)


@dataclass(frozen=True)
class ProcessorConfig:
    """Table 7.2 — the simulated quad-core processor microarchitecture."""

    cores: int = 4
    superscalar_width: int = 2
    iq_size: int = 16
    phys_regs_fp: int = 72
    phys_regs_int: int = 72
    lq_size: int = 32
    sq_size: int = 32
    l1d_kb: int = 32
    l1i_kb: int = 32
    l1_assoc: int = 2
    l1_latency_cycles: int = 1
    l2_mb: int = 1
    l2_assoc: int = 16
    l2_latency_cycles: int = 10
    cacheline_bytes: int = 64
    l2_mshrs: int = 240
    clock_ghz: float = 2.0

    @property
    def l2_bytes(self) -> int:
        """LLC capacity in bytes."""
        return self.l2_mb * 1024 * 1024

    @property
    def l2_sets(self) -> int:
        """Number of LLC sets for 64B lines."""
        return self.l2_bytes // (self.cacheline_bytes * self.l2_assoc)


PROCESSOR_CONFIG = ProcessorConfig()


@dataclass(frozen=True)
class ScrubConfig:
    """Memory scrubbing parameters (Sections 4.2.2 and 6.2).

    The field study the paper draws rates from scrubs every four hours;
    ARCC's enhanced scrubber performs six passes over memory (read,
    write-0, read, write-1, read, write-back) instead of two.
    """

    interval_hours: float = 4.0
    arcc_pass_multiplier: int = 6
    conventional_pass_multiplier: int = 2


SCRUB_CONFIG = ScrubConfig()


@dataclass(frozen=True)
class CodewordGeometry:
    """Symbol layout of one codeword in a given protection mode."""

    data_symbols: int
    check_symbols: int
    symbol_bits: int = 8

    @property
    def total_symbols(self) -> int:
        """Data + check symbols."""
        return self.data_symbols + self.check_symbols

    @property
    def storage_overhead(self) -> float:
        """check/data ratio; 12.5% for both ARCC modes."""
        return self.check_symbols / self.data_symbols


#: Relaxed mode: 16 data + 2 check symbols -> 18 devices per access.
RELAXED_GEOMETRY = CodewordGeometry(data_symbols=16, check_symbols=2)

#: Upgraded mode: 32 data + 4 check symbols -> 36 devices per access
#: (two channels in lockstep).
UPGRADED_GEOMETRY = CodewordGeometry(data_symbols=32, check_symbols=4)

#: Chapter 5 "even stronger" mode: 64 data + 8 check symbols across four
#: channels.
DOUBLE_UPGRADED_GEOMETRY = CodewordGeometry(data_symbols=64, check_symbols=8)


@dataclass(frozen=True)
class RunnerConfig:
    """Defaults of the parallel experiment runner (:mod:`repro.runner`).

    ``mc_block_channels`` is the unit of work of a Monte-Carlo sweep:
    each block's RNG stream derives only from the experiment seed and
    the block index, so results never depend on how many workers execute
    the blocks. Large enough to amortize process dispatch, small enough
    that a 10k-channel population still spreads across a pool.
    """

    cache_dir: str = ".repro-cache"
    mc_block_channels: int = 1024
    #: Channels per fleet-lifetime sampling block (:mod:`repro.fleet`).
    #: Larger than ``mc_block_channels`` because fleet blocks are pure
    #: array work — a block is a handful of NumPy calls, so the only
    #: cost of small blocks is per-job dispatch.
    fleet_block_channels: int = 4096


RUNNER_CONFIG = RunnerConfig()


@dataclass(frozen=True)
class MeasurementConfig:
    """Defaults of the measured-overhead bridge (:mod:`repro.fleet.measured`).

    The bridge replays per-(policy, mix, fault-class) trace points to
    measure locality-aware upgraded-access costs; these knobs pick the
    trace scale and the RNG seed those points share with Figures
    7.1-7.3 (identical seeds keep the simulation points cache-shared
    across figures).
    """

    instructions_per_core: int = 40_000
    seed: int = 0x7ACE


MEASUREMENT_CONFIG = MeasurementConfig()
