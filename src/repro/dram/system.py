"""Memory-system facade: geometry + controller + power rollup.

`MemorySystem` is what the performance simulator talks to: line-address
accesses in, completion times out, average watts at the end. It builds the
channel/rank structure from a :class:`repro.config.MemoryConfig`, so the
baseline (one lockstep 36-device logical channel) and ARCC (two independent
18-device channels) differ only in their config row — exactly the Table 7.1
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.config import MemoryConfig
from repro.dram.addressing import AddressMapping
from repro.dram.channel import Channel
from repro.dram.command import MemoryRequest
from repro.dram.controller import ControllerStats, MemoryController
from repro.dram.power import PowerCounters, RankPowerModel
from repro.dram.timing import power_params_for_width, timings_for_width
from repro.util.stats import sequential_sum


@dataclass
class PowerReport:
    """Average power over a simulation window."""

    total_w: float
    background_w: float
    dynamic_w: float
    per_rank_w: List[float]


def power_report_from_counters(
    model: RankPowerModel,
    rank_counters: Sequence[PowerCounters],
    end_ns: float,
) -> PowerReport:
    """Roll finalized per-rank counters up into a :class:`PowerReport`.

    Shared by :meth:`MemorySystem.power_report` and the compiled replay
    driver (:mod:`repro.perf._kernel.driver`), which reconstructs the
    same counters from flat accumulators — one arithmetic path, so both
    report identical floats for identical counters. ``rank_counters``
    must already be finalized (trailing power-down accounted,
    ``elapsed_ns`` set) and ordered channel-major, rank-minor.
    """
    if end_ns <= 0:
        raise ValueError("measurement window must be positive")
    dm = model.device_model
    per_rank = []
    background = 0.0
    dynamic = 0.0
    for counters in rank_counters:
        rank_w = model.average_power_w(counters)
        per_rank.append(rank_w)
        bg_nj = (
            counters.active_ns * dm.active_standby_w
            + counters.standby_ns * dm.precharge_standby_w
            + counters.powerdown_ns * dm.powerdown_w
        )
        background += bg_nj / end_ns * model.devices
        dynamic += rank_w - bg_nj / end_ns * model.devices
    return PowerReport(
        total_w=sequential_sum(per_rank),
        background_w=background,
        dynamic_w=dynamic,
        per_rank_w=per_rank,
    )


class MemorySystem:
    """Timing/power model of one Table 7.1 memory organization."""

    def __init__(
        self,
        config: MemoryConfig,
        lotecc_checksum: bool = False,
    ):
        self.config = config
        self.timings = timings_for_width(config.io_width)
        self.power_params = power_params_for_width(config.io_width)
        self.mapping = AddressMapping(config)
        self.channels = [
            Channel(self.timings, config.ranks_per_channel)
            for _ in range(config.channels)
        ]
        self.controller = MemoryController(
            self.mapping, self.channels, lotecc_checksum
        )
        self.rank_power_model = RankPowerModel(
            config.devices_per_rank, self.power_params, self.timings
        )

    # -- access path ---------------------------------------------------------

    def access(
        self,
        line_address: int,
        is_write: bool,
        now_ns: float,
        upgraded: bool = False,
    ) -> float:
        """Issue one line access; returns completion time in ns."""
        request = MemoryRequest(
            line_address=line_address, is_write=is_write, arrival_ns=now_ns
        )
        return self.controller.access(request, upgraded=upgraded)

    @property
    def stats(self) -> ControllerStats:
        """Controller-level latency statistics."""
        return self.controller.stats

    # -- reporting --------------------------------------------------------------

    def power_report(self, end_ns: float) -> PowerReport:
        """Average power over [0, end_ns], split background vs dynamic."""
        if end_ns <= 0:
            raise ValueError("measurement window must be positive")
        rank_counters = [
            counters
            for channel in self.channels
            for counters in channel.finalize(end_ns)
        ]
        return power_report_from_counters(
            self.rank_power_model, rank_counters, end_ns
        )
