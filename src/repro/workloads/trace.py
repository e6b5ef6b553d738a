"""Synthetic LLC-miss trace generation from benchmark profiles.

Each core's stream is a renewal process: after every memory access the
core retires ``1000 / llc_mpki`` instructions (exponentially jittered),
then issues the next access. Addresses follow a run-based model: with
probability ``spatial_locality`` the access continues the current
sequential run (next 64B line); otherwise it jumps to a random line of the
core's working set. Cores get disjoint address regions, as separate
processes would.

The generator produces *LLC accesses*; hits and misses are decided by the
cache model downstream, so locality shows up the same way it would with a
real trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.util.rng import split_rng
from repro.workloads.spec import BenchmarkProfile


@dataclass(frozen=True)
class TraceAccess:
    """One memory access of one core."""

    line_address: int
    is_write: bool
    instructions_since_last: int


class CoreTrace:
    """Reproducible access stream for one core running one benchmark."""

    LINES_PER_PAGE = 64

    def __init__(
        self,
        profile: BenchmarkProfile,
        core_id: int,
        rng: np.random.Generator,
        region_lines: int = 1 << 22,
    ):
        self.profile = profile
        self.core_id = core_id
        self.rng = rng
        self.footprint_lines = profile.footprint_pages * self.LINES_PER_PAGE
        if self.footprint_lines > region_lines:
            raise ValueError("working set exceeds the core's address region")
        self.region_base = core_id * region_lines
        self._current = self.region_base + int(
            rng.integers(self.footprint_lines)
        )
        self._gap_instructions = max(1000.0 / profile.llc_mpki, 1.0)

    def __iter__(self) -> Iterator[TraceAccess]:
        return self

    def __next__(self) -> TraceAccess:
        profile = self.profile
        if self.rng.random() < profile.spatial_locality:
            line = self._current + 1
            if line >= self.region_base + self.footprint_lines:
                line = self.region_base
        else:
            line = self.region_base + int(
                self.rng.integers(self.footprint_lines)
            )
        self._current = line
        gap = 1 + int(self.rng.exponential(self._gap_instructions))
        return TraceAccess(
            line_address=line,
            is_write=self.rng.random() >= profile.read_fraction,
            instructions_since_last=gap,
        )


class TraceGenerator:
    """Builds the four per-core traces of one workload mix."""

    def __init__(self, profiles, seed: int = 0x7ACE):
        self.profiles = list(profiles)
        self._rngs = split_rng(seed, len(self.profiles))

    def core_traces(self) -> Tuple[CoreTrace, ...]:
        """One independent trace per core."""
        return tuple(
            CoreTrace(profile, core_id, rng)
            for core_id, (profile, rng) in enumerate(
                zip(self.profiles, self._rngs)
            )
        )
