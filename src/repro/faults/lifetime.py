"""Per-channel fault histories and their exact scalar reduction.

Fault arrivals per channel are a superposition of Poisson processes, one
per fault type, with per-device FIT rates scaled by the number of devices
exposed to that type. :func:`repro.fleet.engine.sample_fleet` draws whole
populations of them as a struct-of-arrays
:class:`~repro.fleet.events.FaultEventBatch`; its ``to_histories()``
gives each channel's time-ordered list of :class:`FaultEvent`, the
per-channel form the exact oracles consume.

:func:`_fraction_after_events` is that oracle for the fraction of faulty
4 KB pages (Figure 3.1 and Figure 7.6's upgraded-page series): the
vectorized reductions are checked against it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import MemoryConfig
from repro.faults.models import upgraded_page_fraction
from repro.faults.types import FaultType


@dataclass(frozen=True)
class FaultEvent:
    """One fault arrival in one simulated channel.

    ``bank``/``row``/``column`` refine the fault footprint below the
    device. They default to zero so histories recorded before the
    coordinate extension round-trip unchanged through
    :class:`~repro.fleet.events.FaultEventBatch` — zero coordinates
    reproduce the rank-level behaviour exactly.
    """

    time_hours: float
    fault_type: FaultType
    channel: int = 0
    rank: int = 0
    device: int = 0
    bank: int = 0
    row: int = 0
    column: int = 0


def _fraction_after_events(
    events: Sequence[FaultEvent],
    config: MemoryConfig,
) -> float:
    """Upgraded-page fraction after a set of faults.

    Faults land on independently-placed circuitry, so the union of their
    page footprints composes as ``1 - prod(1 - f_i)`` — exact for the
    lane/device cases that dominate the footprint, and a documented
    approximation for overlapping small faults (whose footprints are tiny
    either way).
    """
    survival = 1.0
    for event in events:
        survival *= 1.0 - upgraded_page_fraction(event.fault_type, config)
    return 1.0 - survival
