"""Memory controller: per-channel queues and upgraded sub-line pairing.

Section 4.2.4 requires the two 64B sub-lines of an upgraded 128B line to be
read from / written to both channels *at the same time* so all four check
symbols of each codeword are available together. The controller here
implements the paper's first design: a logical partition of each memory
queue into sub-line and regular traffic, with sub-line pairs issued in
lockstep (both channels synchronize on the later of their ready times).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dram.addressing import AddressMapping
from repro.dram.channel import Channel
from repro.dram.command import MemoryRequest


@dataclass
class ControllerStats:
    """Aggregate controller behaviour over a simulation."""

    requests: int = 0
    paired_requests: int = 0
    total_latency_ns: float = 0.0
    max_latency_ns: float = 0.0

    def record(self, latency_ns: float, paired: bool) -> None:
        """Record one completed request."""
        self.requests += 1
        if paired:
            self.paired_requests += 1
        self.total_latency_ns += latency_ns
        self.max_latency_ns = max(self.max_latency_ns, latency_ns)


class MemoryController:
    """Front-end that routes line requests onto channels.

    The simulator drives it in arrival order (the trace is already
    time-sorted), so the queues reduce to the channels' in-order issue
    state plus the pairing synchronization below.
    """

    def __init__(
        self,
        mapping: AddressMapping,
        channels: List[Channel],
        lotecc_checksum: bool = False,
    ):
        if len(channels) != mapping.config.channels:
            raise ValueError("channel count does not match configuration")
        self.mapping = mapping
        self.channels = channels
        self.lotecc_checksum = lotecc_checksum
        self.stats = ControllerStats()

    def access(
        self, request: MemoryRequest, upgraded: bool = False
    ) -> float:
        """Service a request; returns its completion time (ns).

        For an upgraded access both the line and its channel-sibling
        sub-line are issued, and completion is the latest burst (the
        EDAC controller needs all 36 symbols before it can decode).

        With ``lotecc_checksum`` the controller also issues LOT-ECC's
        checksum bursts, co-located with the data they protect: every
        sub-line write is followed by its checksum write, and an
        upgraded read issues one checksum read per sub-line after both
        data reads, on the fill's critical path.
        """
        decoded = self.mapping.decode(request.line_address)
        targets = [decoded]
        if upgraded:
            sibling = self.mapping.sibling_line(request.line_address)
            sib_decoded = self.mapping.decode(sibling)
            if sib_decoded.channel == decoded.channel:
                raise RuntimeError(
                    "sub-lines of an upgraded line mapped to one channel; "
                    "address mapping must interleave channels at line level"
                )
            targets.append(sib_decoded)
        if self.lotecc_checksum:
            if request.is_write:
                targets = [t for t in targets for _ in (0, 1)]
            elif upgraded:
                targets = targets + targets
        completion = max(
            self.channels[t.channel].service(
                request.arrival_ns, t.rank, t.bank, request.is_write
            )[1]
            for t in targets
        )
        request.completion_ns = completion
        self.stats.record(completion - request.arrival_ns, upgraded)
        return completion
