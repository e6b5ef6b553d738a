"""The footprint rule: when two faults share a codeword.

One geometric rule decides every reliability verdict of the package:
two device-level faults are uncorrectable together when their codeword
footprints intersect. It has two forms that must agree on every input:
:func:`footprint_intersects` on two :class:`~repro.faults.lifetime.
FaultEvent` objects (the exact event loops' form) and
:func:`footprint_pairs_intersect` on index pairs of a
:class:`~repro.fleet.events.FaultEventBatch` (the vector form).
:func:`segment_pairs` and :func:`any_pair_per_segment` enumerate and
test every fault pair of many segments in one pass.

Both the Monte-Carlo engine (:mod:`repro.reliability.montecarlo`) and
the fleet's uncorrectable-pair screen
(:func:`repro.fleet.engine.uncorrectable_candidate_channels`) read the
rule from here, so they agree on footprint geometry by construction.
"""

from __future__ import annotations

from typing import Callable, Iterator, Tuple

import numpy as np

from repro.faults.lifetime import FaultEvent
from repro.faults.types import FaultType
from repro.fleet.events import FAULT_TYPE_ORDER, FaultEventBatch


def footprint_intersects(a: FaultEvent, b: FaultEvent) -> bool:
    """Exact codeword-footprint intersection of two faults.

    Two faults share a codeword when they sit in the same memory channel
    and the same rank (or one is a lane fault, which spans ranks), on
    different devices, and their (bank, row, column) regions intersect.
    """
    if a.channel != b.channel:
        return False
    lane_involved = FaultType.LANE in (a.fault_type, b.fault_type)
    if not lane_involved and a.rank != b.rank:
        return False
    if a.device == b.device and a.rank == b.rank:
        # Same device: still one bad symbol per codeword.
        return False
    return _regions_intersect(a, b)


def _covers_all(fault: FaultEvent) -> bool:
    return fault.fault_type in (FaultType.DEVICE, FaultType.LANE)


def _regions_intersect(a: FaultEvent, b: FaultEvent) -> bool:
    if _covers_all(a) or _covers_all(b):
        return True
    if a.bank != b.bank:
        return False
    ta, tb = a.fault_type, b.fault_type
    if FaultType.BANK in (ta, tb):
        return True
    if ta == FaultType.ROW and tb == FaultType.ROW:
        return a.row == b.row
    if ta == FaultType.COLUMN and tb == FaultType.COLUMN:
        return a.column == b.column
    # One row fault and one column fault in the same bank always cross.
    return True


def footprint_pairs_intersect(
    batch: FaultEventBatch, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`footprint_intersects` over index pairs of a batch.

    ``left``/``right`` index fault pairs into ``batch`` — both screens
    pass every pair of a block at once, as built by
    :func:`segment_pairs`. Returns a boolean per pair. Shared between
    the Monte-Carlo block engine and the fleet uncorrectable-pair screen
    (:func:`repro.fleet.engine.uncorrectable_candidate_channels`), so
    both layers agree on footprint geometry by construction. Must agree
    with the scalar rule on every input — the ``exact_pairs`` test mode
    and the ``pair-screen`` fuzz oracle enforce exactly that.
    """
    row, column, device, lane = (
        FAULT_TYPE_ORDER.index(ft)
        for ft in (FaultType.ROW, FaultType.COLUMN, FaultType.DEVICE, FaultType.LANE)
    )
    ta, tb = batch.type_code[left], batch.type_code[right]
    same_channel = batch.channel[left] == batch.channel[right]
    lane_involved = (ta == lane) | (tb == lane)
    same_rank = batch.rank[left] == batch.rank[right]
    rank_ok = lane_involved | same_rank
    distinct = ~((batch.device[left] == batch.device[right]) & same_rank)

    covers_all = lane_involved | (ta == device) | (tb == device)
    same_bank = batch.bank[left] == batch.bank[right]
    both_row = (ta == row) & (tb == row)
    both_col = (ta == column) & (tb == column)
    row_match = ~both_row | (batch.row[left] == batch.row[right])
    col_match = ~both_col | (batch.column[left] == batch.column[right])
    region = covers_all | (same_bank & row_match & col_match)
    return same_channel & rank_ok & distinct & region


#: Pair budget of one segmented all-pairs pass. A member set whose
#: pairs exceed it is screened in consecutive chunks, so memory stays
#: bounded however many faults a block draws. A full-scale ``repro run``
#: screens about 53k pairs in 112 passes, the largest about 10k pairs.
_MAX_SEGMENT_PAIRS = 1 << 16


def _ramp(counts: np.ndarray) -> np.ndarray:
    """``arange(n)`` for every ``n`` in ``counts``, concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


def segment_pairs(
    starts: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ``i < j`` index pair inside every segment, in one pass.

    Segment ``s`` covers indices ``starts[s] .. starts[s] + lengths[s] - 1``.
    Returns ``(left, right, segment)``: the pairs of each segment in
    row-major upper-triangle order — ``(0, 1), (0, 2), ..., (1, 2), ...``
    offset by the segment's start — segments in input order, with the
    segment index of each pair. Segments of length 0 or 1 contribute
    nothing.

    >>> left, right, segment = segment_pairs(np.array([10, 20]), np.array([3, 2]))
    >>> left.tolist(), right.tolist(), segment.tolist()
    ([10, 10, 11, 20], [11, 12, 12, 21], [0, 0, 0, 1])
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    # Row i of an n-segment pairs i with the n - 1 - i indices after it.
    rows_per_segment = np.maximum(lengths - 1, 0)
    row_segment = np.repeat(np.arange(len(lengths)), rows_per_segment)
    row = _ramp(rows_per_segment)
    row_width = lengths[row_segment] - 1 - row
    pair_row = np.repeat(np.arange(len(row)), row_width)
    segment = row_segment[pair_row]
    left = starts[segment] + row[pair_row]
    right = left + 1 + _ramp(row_width)
    return left, right, segment


def any_pair_per_segment(
    starts: np.ndarray,
    lengths: np.ndarray,
    pair_test: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Whether ``pair_test`` holds for any ``i < j`` pair of each segment.

    ``pair_test(left, right)`` returns a boolean per index pair. One
    :func:`segment_pairs` pass evaluates every segment at once; only a
    member set over ``_MAX_SEGMENT_PAIRS`` pairs is split into
    consecutive chunks (never splitting a segment).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.zeros(len(lengths), dtype=bool)
    for lo, hi in segment_chunks(lengths):
        left, right, segment = segment_pairs(starts[lo:hi], lengths[lo:hi])
        hit = pair_test(left, right)
        out[lo:hi] = np.bincount(segment[hit], minlength=hi - lo) > 0
    return out


def segment_chunks(lengths: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Consecutive ``[lo, hi)`` segment ranges of at most
    ``_MAX_SEGMENT_PAIRS`` pairs each, never splitting a segment (one
    segment over the budget is a range of its own)."""
    cumulative = np.cumsum(lengths * (lengths - 1) // 2)
    lo = 0
    while lo < len(lengths):
        done = int(cumulative[lo - 1]) if lo else 0
        hi = max(
            lo + 1,
            int(np.searchsorted(cumulative, done + _MAX_SEGMENT_PAIRS, "right")),
        )
        yield lo, hi
        lo = hi
