"""Monte-Carlo validation of the Chapter 6 reliability models.

Event-driven simulation of one channel at a time: device-level faults
arrive as Poisson processes; each fault gets concrete coordinates (rank,
device, bank, row, column) so codeword overlap is *exact* footprint
intersection, not a probability table. Detection happens at scrub
boundaries. The ARCC policy counts an SDC when a new fault intersects an
undetected one; the SCCDCD policy needs a triple (an undetected pair plus
one more) and counts a DUE — machine retirement — for a detected pair.

The engine samples arrival times, types and coordinates for whole
blocks of channels in NumPy batches, resolves the dominant two-fault
channels with array-based footprint intersection, and falls back to the
exact per-fault event loops only for channels where a candidate
collision exists. Those event loops are the engine's exact oracle:
``run(exact_pairs=True)`` sends the two-fault channels through them as
well, on identical sampled faults, and the counts must match bit for
bit.

The paper performs the same cross-check against the analytical models of
[12]; ``benchmarks/test_fig6_1_sdc.py`` reports both side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import RUNNER_CONFIG
from repro.faults.types import DEVICE_LEVEL_TYPES, FaultType
from repro.reliability.analytical import ReliabilityParams
from repro.runner import Job, run_jobs
from repro.util.rng import derive_seeds
from repro.util.units import HOURS_PER_YEAR

#: Channels simulated per vectorized batch (and per runner job). Fixed —
#: the block partition, not the worker count, owns the RNG streams, so
#: results are independent of how many processes execute the blocks.
BLOCK_CHANNELS = RUNNER_CONFIG.mc_block_channels

#: Integer codes for the device-level types, in DEVICE_LEVEL_TYPES order.
_ROW, _COLUMN, _BANK, _DEVICE, _LANE = range(5)


@dataclass
class _PlacedFault:
    """A fault with concrete circuitry coordinates."""

    time_hours: float
    fault_type: FaultType
    rank: int
    device: int
    bank: int
    row: int
    column: int
    detected: bool = False

    def footprint_intersects(self, other: "_PlacedFault") -> bool:
        """Exact codeword-footprint intersection.

        Two faults share a codeword when they sit in the same rank (or one
        is a lane fault, which spans ranks), on different devices, and
        their (bank, row, column) regions intersect.
        """
        lane_involved = FaultType.LANE in (self.fault_type, other.fault_type)
        if not lane_involved and self.rank != other.rank:
            return False
        if self.device == other.device and self.rank == other.rank:
            # Same device: still one bad symbol per codeword.
            return False
        return _regions_intersect(self, other)


def _covers_all(fault: _PlacedFault) -> bool:
    return fault.fault_type in (FaultType.DEVICE, FaultType.LANE)


def _regions_intersect(a: _PlacedFault, b: _PlacedFault) -> bool:
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


@dataclass
class ReliabilityOutcome:
    """Counts from a Monte-Carlo population."""

    channels: int
    years: float
    sdc_machines_arcc: int = 0
    sdc_machines_sccdcd: int = 0
    due_machines_sccdcd: int = 0
    due_machines_sparing: int = 0

    def per_1000_machine_years(self, count: int) -> float:
        """Scale a machine count to the Figure 6.1 unit."""
        machine_years = self.channels * self.years
        if machine_years <= 0:
            raise ValueError("empty simulation")
        return count * 1000.0 / machine_years

    def merged_with(self, other: "ReliabilityOutcome") -> "ReliabilityOutcome":
        """Combine two disjoint sub-populations (same ``years``)."""
        return ReliabilityOutcome(
            channels=self.channels + other.channels,
            years=self.years,
            sdc_machines_arcc=self.sdc_machines_arcc + other.sdc_machines_arcc,
            sdc_machines_sccdcd=(
                self.sdc_machines_sccdcd + other.sdc_machines_sccdcd
            ),
            due_machines_sccdcd=(
                self.due_machines_sccdcd + other.due_machines_sccdcd
            ),
            due_machines_sparing=(
                self.due_machines_sparing + other.due_machines_sparing
            ),
        )


# -- vectorized sampling ------------------------------------------------------


@dataclass
class _FaultBatch:
    """All faults of one channel block as parallel arrays.

    Sorted by (channel, time); ``offsets[c]:offsets[c+1]`` slices channel
    ``c``'s faults. ``type_code`` indexes DEVICE_LEVEL_TYPES.
    """

    offsets: np.ndarray  # (channels + 1,) int
    time_hours: np.ndarray
    type_code: np.ndarray
    rank: np.ndarray
    device: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    column: np.ndarray

    @property
    def per_channel(self) -> np.ndarray:
        """Fault count of each channel."""
        return np.diff(self.offsets)

    def channel_faults(self, channel: int) -> List[_PlacedFault]:
        """Materialize one channel's faults as objects (time-ordered)."""
        start, stop = self.offsets[channel], self.offsets[channel + 1]
        return [
            _PlacedFault(
                time_hours=float(self.time_hours[i]),
                fault_type=DEVICE_LEVEL_TYPES[int(self.type_code[i])],
                rank=int(self.rank[i]),
                device=int(self.device[i]),
                bank=int(self.bank[i]),
                row=int(self.row[i]),
                column=int(self.column[i]),
            )
            for i in range(start, stop)
        ]


def _sample_batch(
    params: ReliabilityParams, rng: np.random.Generator, channels: int, years: float
) -> _FaultBatch:
    """Sample every fault of ``channels`` channels in NumPy batches."""
    horizon = years * HOURS_PER_YEAR
    lam = np.array(
        [
            params.device_rate_per_hour(ft) * params.total_devices * horizon
            for ft in DEVICE_LEVEL_TYPES
        ]
    )
    counts = rng.poisson(lam, size=(channels, len(lam)))
    per_channel = counts.sum(axis=1)
    total = int(per_channel.sum())
    offsets = np.concatenate(([0], np.cumsum(per_channel)))
    if total == 0:
        empty_f = np.empty(0)
        empty_i = np.empty(0, dtype=np.int64)
        return _FaultBatch(
            offsets, empty_f, empty_i, empty_i, empty_i, empty_i, empty_i, empty_i
        )

    channel_ids = np.repeat(np.arange(channels), per_channel)
    type_code = np.repeat(
        np.tile(np.arange(len(lam)), channels), counts.ravel()
    )
    time_hours = rng.uniform(0.0, horizon, size=total)
    rank = rng.integers(0, params.ranks, size=total)
    device = rng.integers(0, params.devices_per_rank, size=total)
    bank = rng.integers(0, params.banks, size=total)
    row = rng.integers(0, params.rows, size=total)
    column = rng.integers(0, params.columns, size=total)

    order = np.lexsort((time_hours, channel_ids))
    return _FaultBatch(
        offsets=offsets,
        time_hours=time_hours[order],
        type_code=type_code[order],
        rank=rank[order],
        device=device[order],
        bank=bank[order],
        row=row[order],
        column=column[order],
    )


# -- vectorized policy decisions ----------------------------------------------


def footprint_pairs_intersect(
    type_code: np.ndarray,
    rank: np.ndarray,
    device: np.ndarray,
    bank: np.ndarray,
    row: np.ndarray,
    column: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> np.ndarray:
    """Vectorized exact codeword-footprint intersection.

    The array form of :meth:`_PlacedFault.footprint_intersects`, shared
    between this module's block engine and the fleet uncorrectable-pair
    screen (:func:`repro.fleet.policies.uncorrectable_candidate_channels`),
    so both layers agree on footprint geometry by construction.

    ``type_code`` indexes :data:`repro.faults.types.DEVICE_LEVEL_TYPES`;
    ``left``/``right`` index fault pairs into the coordinate arrays —
    both screens pass every pair of a block at once, as built by
    :func:`segment_pairs`. Returns a boolean per pair. Must agree with the scalar method on
    every input — the ``exact_pairs`` test mode and the ``pair-screen``
    fuzz oracle enforce exactly that.
    """
    ta, tb = type_code[left], type_code[right]
    lane = (ta == _LANE) | (tb == _LANE)
    same_rank = rank[left] == rank[right]
    rank_ok = lane | same_rank
    distinct = ~((device[left] == device[right]) & same_rank)

    covers_all = lane | (ta == _DEVICE) | (tb == _DEVICE)
    same_bank = bank[left] == bank[right]
    both_row = (ta == _ROW) & (tb == _ROW)
    both_col = (ta == _COLUMN) & (tb == _COLUMN)
    row_match = ~both_row | (row[left] == row[right])
    col_match = ~both_col | (column[left] == column[right])
    region = covers_all | (same_bank & row_match & col_match)
    return rank_ok & distinct & region


def _pairs_intersect(
    batch: _FaultBatch, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """:func:`footprint_pairs_intersect` over a block batch's arrays."""
    return footprint_pairs_intersect(
        batch.type_code,
        batch.rank,
        batch.device,
        batch.bank,
        batch.row,
        batch.column,
        left,
        right,
    )


def _next_scrub_array(time_hours: np.ndarray, interval: float) -> np.ndarray:
    """Vectorized next-scrub boundary after each time."""
    return (np.floor(time_hours / interval) + 1.0) * interval


#: Pair budget of one segmented all-pairs pass. A member set whose
#: pairs exceed it is screened in consecutive chunks, so memory stays
#: bounded however many faults a block draws. A full-scale ``repro run``
#: screens about 53k pairs in 148 passes, the largest about 10k pairs.
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
    cumulative = np.cumsum(lengths * (lengths - 1) // 2)
    lo = 0
    while lo < len(lengths):
        done = int(cumulative[lo - 1]) if lo else 0
        hi = max(
            lo + 1,
            int(np.searchsorted(cumulative, done + _MAX_SEGMENT_PAIRS, "right")),
        )
        left, right, segment = segment_pairs(starts[lo:hi], lengths[lo:hi])
        hit = pair_test(left, right)
        out[lo:hi] = np.bincount(segment[hit], minlength=hi - lo) > 0
        lo = hi
    return out


# -- per-channel reference policies (exact event loops) -----------------------


class MonteCarloReliability:
    """Population-level reliability simulation."""

    def __init__(
        self,
        params: Optional[ReliabilityParams] = None,
        seed: int = 0x5DC,
    ):
        self.params = params or ReliabilityParams()
        self.seed = seed

    def _next_scrub(self, time_hours: float) -> float:
        s = self.params.scrub_interval_hours
        return (int(time_hours / s) + 1) * s

    # -- per-channel policies -------------------------------------------------

    def _run_channel_arcc(self, faults: List[_PlacedFault]) -> bool:
        """True if the channel suffers an ARCC SDC.

        A new fault intersecting a *not-yet-detected* fault defeats the
        relaxed code's single-symbol detection: SDC. Intersections with
        detected faults hit upgraded pages, where double detection holds.
        """
        present: List[_PlacedFault] = []
        for fault in faults:
            for old in present:
                if old.time_hours < fault.time_hours:
                    old.detected = (
                        old.detected
                        or self._next_scrub(old.time_hours)
                        <= fault.time_hours
                    )
            for old in present:
                if not old.detected and fault.footprint_intersects(old):
                    return True
            present.append(fault)
        return False

    def _run_channel_sccdcd(
        self, faults: List[_PlacedFault]
    ) -> Tuple[bool, bool]:
        """(had_due, had_sdc) for plain SCCDCD.

        A pair of intersecting faults is a DUE once detected (machine
        retired). An SDC requires a third fault to intersect an
        *undetected* pair.
        """
        present: List[_PlacedFault] = []
        undetected_pairs: List[Tuple[_PlacedFault, _PlacedFault, float]] = []
        for fault in faults:
            # Retire pairs whose detection scrub has passed: DUE.
            for a, b, formed in undetected_pairs:
                if self._next_scrub(formed) <= fault.time_hours:
                    return True, False  # DUE, machine replaced
            for a, b, formed in undetected_pairs:
                if fault.footprint_intersects(a) or fault.footprint_intersects(
                    b
                ):
                    return False, True  # triple before detection: SDC
            for old in present:
                if fault.footprint_intersects(old):
                    undetected_pairs.append(
                        (old, fault, fault.time_hours)
                    )
            present.append(fault)
        return bool(undetected_pairs), False

    def _run_channel_sparing(self, faults: List[_PlacedFault]) -> bool:
        """True if double chip sparing takes a DUE (pair within a scrub)."""
        present: List[_PlacedFault] = []
        for fault in faults:
            for old in present:
                detected = (
                    self._next_scrub(old.time_hours) <= fault.time_hours
                )
                if not detected and fault.footprint_intersects(old):
                    return True
            present.append(fault)
        return False

    def _decide_channel(
        self, faults: List[_PlacedFault], outcome: ReliabilityOutcome
    ) -> None:
        """Run every policy's exact event loop over one channel."""
        if self._run_channel_arcc([_copy(f) for f in faults]):
            outcome.sdc_machines_arcc += 1
        due, sdc = self._run_channel_sccdcd([_copy(f) for f in faults])
        if due:
            outcome.due_machines_sccdcd += 1
        if sdc:
            outcome.sdc_machines_sccdcd += 1
        if self._run_channel_sparing([_copy(f) for f in faults]):
            outcome.due_machines_sparing += 1

    # -- vectorized block engine ----------------------------------------------

    def _simulate_block(
        self,
        block_seed: int,
        channels: int,
        years: float,
        exact_pairs: bool = False,
    ) -> ReliabilityOutcome:
        """Simulate one block of channels with batched sampling.

        Two-fault channels (the overwhelming majority of multi-fault
        channels at field rates) are decided entirely in array form; the
        policies reduce to two questions about the pair — does it
        intersect, and did the second fault beat the first one's scrub?
        Channels with three or more faults are screened together, in
        one segmented all-pairs intersection pass over the block, and
        only candidate collisions pay for the exact per-pair event loop.
        ``exact_pairs=True`` sends two-fault channels down the event loop
        as well; the result must be bit-identical (this is the
        equivalence check the tests run).
        """
        rng = np.random.Generator(np.random.PCG64(block_seed))
        batch = _sample_batch(self.params, rng, channels, years)
        outcome = ReliabilityOutcome(channels=channels, years=years)
        per_channel = batch.per_channel

        pair_channels = np.flatnonzero(per_channel == 2)
        if len(pair_channels) and not exact_pairs:
            first = batch.offsets[pair_channels]
            second = first + 1
            intersects = _pairs_intersect(batch, first, second)
            scrub = self.params.scrub_interval_hours
            detected = (
                _next_scrub_array(batch.time_hours[first], scrub)
                <= batch.time_hours[second]
            )
            race = intersects & ~detected
            outcome.sdc_machines_arcc += int(np.count_nonzero(race))
            outcome.due_machines_sparing += int(np.count_nonzero(race))
            # A lone intersecting pair is always detected eventually:
            # SCCDCD retires the machine (DUE); an SDC needs a triple.
            outcome.due_machines_sccdcd += int(np.count_nonzero(intersects))
        elif len(pair_channels):
            for channel in pair_channels:
                self._decide_channel(
                    batch.channel_faults(int(channel)), outcome
                )

        # No policy can fail a channel whose faults are pairwise disjoint,
        # so only channels with an intersecting pair reach the event loops.
        multi = np.flatnonzero(per_channel >= 3)
        has_pair = any_pair_per_segment(
            batch.offsets[multi],
            per_channel[multi],
            lambda left, right: _pairs_intersect(batch, left, right),
        )
        for channel in multi[has_pair]:
            self._decide_channel(batch.channel_faults(int(channel)), outcome)
        return outcome

    def _blocks(self, channels: int) -> List[Tuple[int, int]]:
        """(block_seed, block_channels) partition of a population."""
        if channels <= 0:
            return []
        count = (channels + BLOCK_CHANNELS - 1) // BLOCK_CHANNELS
        seeds = derive_seeds(self.seed, count)
        return [
            (seed, min(BLOCK_CHANNELS, channels - i * BLOCK_CHANNELS))
            for i, seed in enumerate(seeds)
        ]

    # -- population -----------------------------------------------------------

    def run(
        self,
        channels: int,
        years: float,
        jobs: int = 1,
        exact_pairs: bool = False,
    ) -> ReliabilityOutcome:
        """Simulate a population and count failing machines per policy.

        The population is split into fixed-size blocks whose RNG streams
        derive only from ``seed`` and the block index, so the outcome is
        identical whether blocks run inline (``jobs=1``) or fan out over
        ``jobs`` worker processes through :mod:`repro.runner`.
        """
        block_jobs = self.block_jobs(channels, years, exact_pairs)
        results = run_jobs(block_jobs, max_workers=jobs)
        return merge_outcomes(
            channels, years, [result.value for result in results]
        )

    def block_jobs(
        self, channels: int, years: float, exact_pairs: bool = False
    ) -> List[Job]:
        """The population as declarative runner jobs, one per block.

        ``run`` executes exactly these jobs; callers who want
        figure-level scheduling (the CLI's ``repro run``) submit them
        alongside other figures' jobs and merge with
        :func:`merge_outcomes`, guaranteeing both paths share cache keys
        and results.
        """
        return [
            Job.create(
                f"mc-block[{index}]",
                _block_job,
                params=self.params,
                block_seed=seed,
                channels=size,
                years=years,
                exact_pairs=exact_pairs,
            )
            for index, (seed, size) in enumerate(self._blocks(channels))
        ]


def _block_job(
    params: ReliabilityParams,
    block_seed: int,
    channels: int,
    years: float,
    exact_pairs: bool = False,
) -> ReliabilityOutcome:
    """Picklable worker: simulate one block in a fresh process."""
    mc = MonteCarloReliability(params)
    return mc._simulate_block(block_seed, channels, years, exact_pairs)


def merge_outcomes(
    channels: int, years: float, outcomes: Sequence[ReliabilityOutcome]
) -> ReliabilityOutcome:
    """Combine block outcomes back into one population outcome."""
    total = ReliabilityOutcome(channels=0, years=years)
    for outcome in outcomes:
        total = total.merged_with(outcome)
    total.channels = channels
    return total


def _copy(fault: _PlacedFault) -> _PlacedFault:
    return _PlacedFault(
        time_hours=fault.time_hours,
        fault_type=fault.fault_type,
        rank=fault.rank,
        device=fault.device,
        bank=fault.bank,
        row=fault.row,
        column=fault.column,
    )
