"""The quad-core trace-driven simulator behind Figures 7.1-7.5.

The performance model is interval-style, matching what the evaluation
needs from M5:

* each core retires instructions at its benchmark's ``base_ipc`` between
  LLC accesses (the trace generator supplies the instruction gaps);
* an LLC miss exposes ``memory_latency / mlp`` stall cycles (overlapping
  misses hide latency up to the benchmark's memory-level parallelism);
* writebacks go to memory without stalling the core;
* an access to an *upgraded* page occupies both channels and fills both
  sub-lines into the LLC — useful prefetch for high-locality benchmarks,
  wasted bandwidth for low-locality ones (the two sides of Figure 7.3).
  Pairing follows the organization: any organization with two or more
  channels pairs, and a one-channel one cannot take upgraded pages.

Power comes from the IDD-based model accumulated by the channel timing
state. "Performance of a mixed workload is reported as the sum of the
IPCs of all the benchmarks in the workload" (Section 7.2) — we do the
same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cache.llc import LastLevelCache
from repro.config import (
    ARCC_MEMORY_CONFIG,
    PROCESSOR_CONFIG,
    MemoryConfig,
    ProcessorConfig,
)
from repro.dram.system import MemorySystem, PowerReport
from repro.util.stats import sequential_sum
from repro.workloads.spec import WorkloadMix
from repro.workloads.trace import CoreTrace, TraceGenerator

#: Golden-ratio hash for deterministic, uniform page-mode assignment.
PAGE_HASH_MULTIPLIER = 2654435761
PAGE_HASH_MODULUS = 1 << 32


def page_is_upgraded(page: int, fraction: float) -> bool:
    """Deterministic pseudo-uniform assignment of upgraded pages.

    The Figure 7.2/7.3 methodology sets a *fraction* of memory upgraded
    (Table 7.4); hashing the page number spreads that fraction uniformly
    over every working set without an RNG (so baseline and ARCC runs see
    identical traces).
    """
    if fraction <= 0.0:
        return False
    if fraction >= 1.0:
        return True
    return (page * PAGE_HASH_MULTIPLIER) % PAGE_HASH_MODULUS < fraction * PAGE_HASH_MODULUS


@dataclass
class CoreResult:
    """Per-core outcome of one simulation."""

    benchmark: str
    instructions: int
    cycles: float

    @property
    def ipc(self) -> float:
        """Instructions per cycle (0 when idle)."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles


@dataclass
class MixResult:
    """Outcome of one mix on one memory organization."""

    mix_name: str
    cores: List[CoreResult]
    power: PowerReport
    llc_miss_rate: float
    average_memory_latency_ns: float

    @property
    def performance(self) -> float:
        """Sum of per-benchmark IPCs (the paper's metric)."""
        return sequential_sum(core.ipc for core in self.cores)


class TraceSimulator:
    """Runs workload mixes against one memory organization.

    ``lotecc_checksum`` turns on LOT-ECC operation accounting in the
    memory controller (see :meth:`~repro.dram.controller.
    MemoryController.access`), mirroring ``SweepPoint.lotecc_checksum``
    so checksum points keep this exact oracle too.
    """

    def __init__(
        self,
        config: MemoryConfig = ARCC_MEMORY_CONFIG,
        processor: ProcessorConfig = PROCESSOR_CONFIG,
        upgraded_fraction: float = 0.0,
        seed: int = 0x7ACE,
        lotecc_checksum: bool = False,
    ):
        # The oracle's own copy of SweepPoint's check: the two sub-lines
        # of an upgraded line need two channels.
        if upgraded_fraction and config.channels < 2:
            raise ValueError(
                f"organization {config.name!r} has {config.channels} "
                "channel(s); upgraded pages need the >= 2 channels ARCC "
                "pairing requires"
            )
        self.config = config
        self.processor = processor
        self.upgraded_fraction = upgraded_fraction
        self.seed = seed
        self.lotecc_checksum = lotecc_checksum

    # -- helpers ----------------------------------------------------------------

    def _is_upgraded(self, line_address: int) -> bool:
        page = line_address // CoreTrace.LINES_PER_PAGE
        return page_is_upgraded(page, self.upgraded_fraction)

    # -- main loop -----------------------------------------------------------------

    def run(
        self,
        mix: WorkloadMix,
        instructions_per_core: int = 200_000,
    ) -> MixResult:
        """Simulate one mix until every core retires its instructions."""
        memory = MemorySystem(
            self.config, lotecc_checksum=self.lotecc_checksum
        )
        llc = LastLevelCache(
            sets=self.processor.l2_sets, ways=self.processor.l2_assoc
        )
        traces = TraceGenerator(mix.profiles, seed=self.seed).core_traces()
        ns_per_cycle = 1.0 / self.processor.clock_ghz

        instructions = [0] * len(traces)
        cycles = [0.0] * len(traces)
        done = [False] * len(traces)
        total_latency = 0.0
        misses = 0

        while not all(done):
            core = min(
                (i for i in range(len(traces)) if not done[i]),
                key=lambda i: cycles[i],
            )
            trace = traces[core]
            profile = trace.profile
            access = next(trace)
            instructions[core] += access.instructions_since_last
            cycles[core] += access.instructions_since_last / profile.base_ipc
            now_ns = cycles[core] * ns_per_cycle

            upgraded = self._is_upgraded(access.line_address)
            outcome = llc.access(
                access.line_address, access.is_write, upgraded=upgraded
            )
            if not outcome.hit:
                completion = memory.access(
                    access.line_address,
                    is_write=False,  # fills are reads; dirtiness stays in LLC
                    now_ns=now_ns,
                    upgraded=upgraded,
                )
                latency = max(completion - now_ns, 0.0)
                total_latency += latency
                misses += 1
                stall_cycles = (
                    latency / ns_per_cycle / profile.mlp
                )
                cycles[core] += stall_cycles
            for wb in outcome.writebacks:
                memory.access(
                    wb.line_address,
                    is_write=True,
                    now_ns=now_ns,
                    upgraded=wb.upgraded,
                )
            if instructions[core] >= instructions_per_core:
                done[core] = True

        end_ns = max(cycles) * ns_per_cycle
        power = memory.power_report(end_ns)
        return MixResult(
            mix_name=mix.name,
            cores=[
                CoreResult(
                    benchmark=profile.name,
                    instructions=instructions[i],
                    cycles=cycles[i],
                )
                for i, profile in enumerate(mix.profiles)
            ],
            power=power,
            llc_miss_rate=llc.stats.miss_rate,
            average_memory_latency_ns=(
                total_latency / misses if misses else 0.0
            ),
        )


# -- the "worst case est." curves of Figures 7.2-7.5 ---------------------------


def worst_case_power_ratio(upgraded_fraction: float) -> float:
    """Power with faults / fault-free power when no access reuses the
    second sub-line: every upgraded access costs twice a relaxed one, so
    power grows by exactly the upgraded fraction (Section 7.2)."""
    if not 0.0 <= upgraded_fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    return 1.0 + upgraded_fraction


def worst_case_performance_ratio(upgraded_fraction: float) -> float:
    """Performance with faults / fault-free performance when bandwidth is
    the bottleneck and there is no spatial locality: upgraded accesses
    halve effective bandwidth, so a lane fault (fraction 1) costs 50%."""
    if not 0.0 <= upgraded_fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    return 1.0 / (1.0 + upgraded_fraction)
