"""Struct-of-arrays bulk representation of fault-arrival histories.

A ``List[List[FaultEvent]]`` history — one Python object per fault, one
list per channel — caps populations well below the 10^5-10^6 channels
paper-grade confidence needs. :class:`FaultEventBatch` stores the same
information as parallel NumPy arrays plus a per-channel offset index, so
whole-population reductions (faulty-page fractions, overhead
accumulation) run as array ops instead of Python loops.

Converters to and from the per-channel dataclass lists keep both forms
interchangeable: ``FaultEventBatch.from_histories`` and
``batch.to_histories()`` are exact inverses, event for event. The
per-channel form is what the exact scalar oracles (the fuzz
``fleet-lifetime`` reductions, the Monte-Carlo event loops) consume.

Batches carry full spatial coordinates: ``channel``/``rank``/``device``
locate the faulty circuitry at rank level (the fields the per-channel
event form always had), and ``bank``/``row``/``column`` refine the
footprint below the device so reductions that need exact
footprint-intersection geometry (the uncorrectable-pair screen) can
compute it instead of bounding it. Every coordinate array is required;
a caller that only knows rank-level coordinates passes zeros for the
sub-device ones, which reproduce the rank-level behaviour exactly (zero
coordinates always co-locate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.faults.lifetime import FaultEvent
from repro.faults.types import FaultType

#: Canonical integer coding of fault types: ``type_code[i]`` indexes this.
FAULT_TYPE_ORDER: Tuple[FaultType, ...] = tuple(FaultType)

_CODE_OF = {fault_type: code for code, fault_type in enumerate(FAULT_TYPE_ORDER)}

#: Per-event array fields, in canonical order.
EVENT_FIELDS: Tuple[str, ...] = (
    "time_hours",
    "type_code",
    "channel",
    "rank",
    "device",
    "bank",
    "row",
    "column",
)


@dataclass(frozen=True)
class FaultEventBatch:
    """All fault arrivals of a channel population as parallel arrays.

    Events are grouped by population member and time-ordered within each
    member: ``offsets[i]:offsets[i+1]`` slices member ``i``'s events.
    ``channel``/``rank``/``device``/``bank``/``row``/``column`` are the
    *geometric* coordinates of the faulty circuitry inside one memory
    system (the same fields
    :class:`~repro.faults.lifetime.FaultEvent` carries), not the
    population index — that is implicit in the offsets.

    Attributes
    ----------
    offsets : numpy.ndarray
        ``(members + 1,)`` int64, monotone, ``offsets[0] == 0``.
    time_hours : numpy.ndarray
        ``(events,)`` float64 arrival times in hours since deployment.
    type_code : numpy.ndarray
        ``(events,)`` int64 indices into :data:`FAULT_TYPE_ORDER`.
    channel, rank, device : numpy.ndarray
        ``(events,)`` int64 rank-level coordinates of the faulty
        circuitry within the member's memory system.
    bank, row, column : numpy.ndarray
        ``(events,)`` int64 sub-device coordinates of the fault
        footprint. All zeros is the rank-level representation.

    Examples
    --------
    >>> import numpy as np
    >>> batch = FaultEventBatch(
    ...     offsets=np.array([0, 2, 2]),      # member 0: 2 events
    ...     time_hours=np.array([4.0, 8760.0]),
    ...     type_code=np.array([5, 3]),       # LANE, BANK
    ...     channel=np.array([0, 1]),
    ...     rank=np.array([0, 1]),
    ...     device=np.array([7, 2]),
    ...     bank=np.array([0, 3]),
    ...     row=np.array([0, 120]),
    ...     column=np.array([0, 0]),
    ... )
    >>> batch.num_channels, batch.num_events
    (2, 2)
    >>> batch.per_channel.tolist()
    [2, 0]
    >>> [ft.value for ft in batch.fault_types()]
    ['lane', 'bank']
    >>> batch.bank.tolist()
    [0, 3]
    """

    offsets: np.ndarray  # (members + 1,) int64, monotone, offsets[0] == 0
    time_hours: np.ndarray  # (events,) float64
    type_code: np.ndarray  # (events,) int64, indexes FAULT_TYPE_ORDER
    channel: np.ndarray  # (events,) int64
    rank: np.ndarray  # (events,) int64
    device: np.ndarray  # (events,) int64
    bank: np.ndarray  # (events,) int64
    row: np.ndarray  # (events,) int64
    column: np.ndarray  # (events,) int64

    @property
    def num_channels(self) -> int:
        """Population size (simulated channels)."""
        return len(self.offsets) - 1

    @property
    def num_events(self) -> int:
        """Total fault arrivals across the population."""
        return len(self.time_hours)

    @property
    def per_channel(self) -> np.ndarray:
        """Fault count of each population member."""
        return np.diff(self.offsets)

    def channel_ids(self) -> np.ndarray:
        """Population index of every event (aligned with the arrays)."""
        return np.repeat(np.arange(self.num_channels), self.per_channel)

    def fault_types(self) -> List[FaultType]:
        """Decoded fault type of every event."""
        return [FAULT_TYPE_ORDER[code] for code in self.type_code]

    def validate(self) -> None:
        """Raise ``ValueError`` on structurally inconsistent arrays."""
        if len(self.offsets) < 1 or self.offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be monotone")
        if int(self.offsets[-1]) != self.num_events:
            raise ValueError("offsets[-1] must equal the event count")
        for name in EVENT_FIELDS:
            if len(getattr(self, name)) != self.num_events:
                raise ValueError(f"{name} length mismatch")
        for name in ("bank", "row", "column"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} coordinates must be non-negative")
        ids = self.channel_ids()
        # Times must be non-decreasing within each member.
        same_member = ids[1:] == ids[:-1] if self.num_events > 1 else np.array([], bool)
        if np.any(same_member & (np.diff(self.time_hours) < 0)):
            raise ValueError("times must be sorted within each channel")
        if np.any((self.type_code < 0) | (self.type_code >= len(FAULT_TYPE_ORDER))):
            raise ValueError("type_code out of range")

    def events_of(self, member: int) -> List[FaultEvent]:
        """Materialize one population member's events as ``FaultEvent`` objects."""
        return self._events(
            slice(int(self.offsets[member]), int(self.offsets[member + 1]))
        )

    def to_histories(self) -> List[List[FaultEvent]]:
        """The per-channel ``List[List[FaultEvent]]`` view of the batch."""
        return _split(self._events(slice(None)), self.offsets)

    def histories_of(self, members: np.ndarray) -> List[List[FaultEvent]]:
        """``to_histories()[m]`` for each of ``members``, in order.

        Only those members' events become ``FaultEvent`` objects.
        """
        starts = self.offsets[members]
        lengths = self.offsets[members + 1] - starts
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        index = np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], lengths)
        return _split(self._events(index), bounds)

    def _events(self, selection) -> List[FaultEvent]:
        """The events at ``selection`` (a slice or an index array) as
        ``FaultEvent``s, built column by column.

        One ``tolist()`` per field yields Python ``float``/``int`` values,
        never NumPy scalars; :data:`EVENT_FIELDS` lists the columns in
        ``FaultEvent``'s positional field order.
        """
        columns = [getattr(self, name)[selection].tolist() for name in EVENT_FIELDS]
        columns[1] = [FAULT_TYPE_ORDER[code] for code in columns[1]]
        return list(map(FaultEvent, *columns))

    @classmethod
    def from_histories(
        cls, histories: Sequence[Sequence[FaultEvent]]
    ) -> FaultEventBatch:
        """Pack per-channel event lists into one batch."""
        counts = np.fromiter(
            (len(events) for events in histories), dtype=np.int64, count=len(histories)
        )
        offsets = np.concatenate(([0], np.cumsum(counts)))
        flat = [event for events in histories for event in events]
        return cls(
            offsets=offsets,
            time_hours=np.array([e.time_hours for e in flat], dtype=np.float64),
            type_code=np.array(
                [_CODE_OF[e.fault_type] for e in flat], dtype=np.int64
            ),
            channel=np.array([e.channel for e in flat], dtype=np.int64),
            rank=np.array([e.rank for e in flat], dtype=np.int64),
            device=np.array([e.device for e in flat], dtype=np.int64),
            bank=np.array([e.bank for e in flat], dtype=np.int64),
            row=np.array([e.row for e in flat], dtype=np.int64),
            column=np.array([e.column for e in flat], dtype=np.int64),
        )

    @classmethod
    def concat(cls, batches: Sequence[FaultEventBatch]) -> FaultEventBatch:
        """Concatenate disjoint sub-populations (block results) in order."""
        if not batches:
            return empty_batch(0)
        offsets = [np.asarray([0], dtype=np.int64)]
        base = 0
        for batch in batches:
            offsets.append(batch.offsets[1:] + base)
            base += batch.num_events
        return cls(
            offsets=np.concatenate(offsets),
            **{
                name: np.concatenate([getattr(b, name) for b in batches])
                for name in EVENT_FIELDS
            },
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultEventBatch):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("offsets",) + EVENT_FIELDS
        )


def _split(events: List[FaultEvent], bounds: np.ndarray) -> List[List[FaultEvent]]:
    """``events`` cut at consecutive ``bounds``, one list per gap."""
    bounds = bounds.tolist()
    return [events[start:stop] for start, stop in zip(bounds, bounds[1:])]


def empty_batch(channels: int) -> FaultEventBatch:
    """A batch of ``channels`` members with no fault arrivals."""
    empty_f = np.empty(0, dtype=np.float64)
    empty_i = np.empty(0, dtype=np.int64)
    return FaultEventBatch(
        offsets=np.zeros(channels + 1, dtype=np.int64),
        time_hours=empty_f,
        type_code=empty_i,
        channel=empty_i,
        rank=empty_i,
        device=empty_i,
        bank=empty_i,
        row=empty_i,
        column=empty_i,
    )
