"""Channel timing model: banks, ranks, data bus, closed-page policy.

This is deliberately at DRAMsim's "transaction" altitude rather than
cycle-by-cycle command replay: each access is an ACT + RD/WR-with-
autoprecharge pair whose scheduling is constrained by

* the target bank's row-cycle occupancy (busy for tRC),
* the channel data bus (busy for one burst per access), and
* in-order issue within a channel (head-of-line blocking, which is what
  makes added rank-level parallelism show up as performance — the paper's
  +5.9% for ARCC's four ranks vs the baseline's two).

Power events are recorded per rank; idle ranks fall into precharge
power-down after a short hysteresis, as DDR2 controllers do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.dram.power import PowerCounters
from repro.dram.timing import DeviceTimings

#: Idle time after which a controller drops CKE (enter precharge
#: power-down). DDR2 exit cost (tXP) is two clocks, so controllers use a
#: short hysteresis; 20 ns is typical of the aggressive settings DRAMsim
#: models.
POWERDOWN_HYSTERESIS_NS = 20.0


@dataclass
class _RankState:
    """Mutable scheduling state for one rank."""

    bank_busy_until: List[float]
    last_activity_ns: float = 0.0
    counters: PowerCounters = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.counters is None:
            self.counters = PowerCounters()


class Channel:
    """One memory channel: ranks x banks plus a shared data bus."""

    def __init__(
        self,
        timings: DeviceTimings,
        ranks: int,
        banks_per_rank: int = 8,
    ):
        self.timings = timings
        self.ranks = ranks
        self.banks_per_rank = banks_per_rank
        self._rank_state = [
            _RankState(bank_busy_until=[0.0] * banks_per_rank)
            for _ in range(ranks)
        ]
        self._bus_busy_until = 0.0
        self._last_issue_ns = 0.0
        self.accesses = 0

    # -- scheduling -------------------------------------------------------------

    def service(
        self, now_ns: float, rank: int, bank: int, is_write: bool
    ) -> Tuple[float, float]:
        """Schedule one closed-page access; returns (start, completion).

        ``completion`` is when the last data beat transfers. The bank is
        then busy until ``start + tRC`` (autoprecharge).
        """
        if not 0 <= rank < self.ranks:
            raise ValueError(f"rank {rank} out of range")
        if not 0 <= bank < self.banks_per_rank:
            raise ValueError(f"bank {bank} out of range")
        t = self.timings
        state = self._rank_state[rank]

        start = max(now_ns, state.bank_busy_until[bank], self._last_issue_ns)
        # The burst must win the data bus tRCD+CL after the activate.
        data_offset = t.trcd_ns + t.cas_ns
        bus_at = max(start + data_offset, self._bus_busy_until)
        start = bus_at - data_offset
        completion = bus_at + t.burst_ns

        # Account power-down time for the idle gap that just ended.
        idle = start - state.last_activity_ns
        if idle > POWERDOWN_HYSTERESIS_NS:
            state.counters.powerdown_ns += idle - POWERDOWN_HYSTERESIS_NS

        state.bank_busy_until[bank] = start + t.trc_ns
        state.last_activity_ns = start + t.trc_ns
        self._bus_busy_until = bus_at + t.burst_ns
        self._last_issue_ns = start
        self.accesses += 1

        c = state.counters
        c.activates += 1
        if is_write:
            c.write_bursts += 1
        else:
            c.read_bursts += 1
        c.active_ns += t.tras_ns
        return start, completion

    # -- power rollup --------------------------------------------------------------

    def finalize(self, end_ns: float) -> List[PowerCounters]:
        """Close the measurement window and return per-rank counters."""
        out = []
        for state in self._rank_state:
            trailing = end_ns - state.last_activity_ns
            if trailing > POWERDOWN_HYSTERESIS_NS:
                state.counters.powerdown_ns += (
                    trailing - POWERDOWN_HYSTERESIS_NS
                )
            state.counters.elapsed_ns = end_ns
            out.append(state.counters)
        return out
