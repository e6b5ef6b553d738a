"""Monte-Carlo validation of the Chapter 6 reliability models.

Event-driven simulation of one channel at a time: device-level faults
arrive as Poisson processes; each fault gets concrete coordinates (rank,
device, bank, row, column) so codeword overlap is *exact* footprint
intersection, not a probability table. Detection happens at scrub
boundaries. The ARCC policy counts an SDC when a new fault intersects an
undetected one (double chip sparing takes a DUE on the same race); the
SCCDCD policy needs a triple (an undetected pair plus one more) and
counts a DUE — machine retirement — for a detected pair.

Faults use the fleet engine's format: :func:`_sample_batch` draws a
block of channels into a :class:`~repro.fleet.events.FaultEventBatch`,
and the event loops read the :class:`~repro.faults.lifetime.FaultEvent`
objects of the channels they decide through ``histories_of``.
:func:`footprint_intersects` and :func:`footprint_pairs_intersect` are
the scalar and vector forms of the one footprint rule, which the
fleet's uncorrectable-pair screen shares.

:func:`plan_montecarlo` runs a population as one plan: a
:func:`simulate_block` job per block of channels, summed at assembly.
A block decides every channel with two or more faults in one segmented
all-pairs pass (:func:`channel_verdicts`), the event loops' rules
written as reductions over each channel's intersecting pairs; no
channel runs Python per fault. The per-fault event loops are the
engine's exact oracle and run only under ``exact_pairs=True``: that
mode sends the two-fault channels and the screened multi-fault
channels through them, on identical sampled faults, and the counts
must match bit for bit.

The paper performs the same cross-check against the analytical models of
[12]; ``benchmarks/test_fig6_1_sdc.py`` reports both side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.config import RUNNER_CONFIG
from repro.faults.types import DEVICE_LEVEL_TYPES, FaultType
from repro.reliability.analytical import ReliabilityParams
from repro.runner import ExperimentPlan, Job
from repro.util.rng import derive_seed, make_rng
from repro.util.units import HOURS_PER_YEAR

if TYPE_CHECKING:  # pragma: no cover - fleet imports this module lazily
    from repro.faults.lifetime import FaultEvent
    from repro.fleet.events import FaultEventBatch

#: Channels simulated per vectorized batch (and per runner job). Fixed —
#: the block partition, not the worker count, owns the RNG streams, so
#: results are independent of how many processes execute the blocks.
BLOCK_CHANNELS = RUNNER_CONFIG.mc_block_channels

#: The per-policy machine counts of a :class:`ReliabilityOutcome`.
_COUNTS = (
    "sdc_machines_arcc",
    "sdc_machines_sccdcd",
    "due_machines_sccdcd",
    "due_machines_sparing",
)


# -- the footprint rule -------------------------------------------------------


def footprint_intersects(a: "FaultEvent", b: "FaultEvent") -> bool:
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


def _covers_all(fault: "FaultEvent") -> bool:
    return fault.fault_type in (FaultType.DEVICE, FaultType.LANE)


def _regions_intersect(a: "FaultEvent", b: "FaultEvent") -> bool:
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
    batch: "FaultEventBatch", left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`footprint_intersects` over index pairs of a batch.

    ``left``/``right`` index fault pairs into ``batch`` — both screens
    pass every pair of a block at once, as built by
    :func:`segment_pairs`. Returns a boolean per pair. Shared between
    this module's block engine and the fleet uncorrectable-pair screen
    (:func:`repro.fleet.engine.uncorrectable_candidate_channels`), so
    both layers agree on footprint geometry by construction. Must agree
    with the scalar rule on every input — the ``exact_pairs`` test mode
    and the ``pair-screen`` fuzz oracle enforce exactly that.
    """
    from repro.fleet.events import FAULT_TYPE_ORDER

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


# -- vectorized sampling ------------------------------------------------------


def _sample_batch(
    params: ReliabilityParams, rng: np.random.Generator, channels: int, years: float
) -> "FaultEventBatch":
    """Sample every fault of ``channels`` channels in NumPy batches.

    One Poisson count per (channel, device-level type), then arrival
    times and coordinates for all faults at once. Every fault sits in
    memory channel 0: the engine simulates one channel per member.
    """
    from repro.fleet.events import FAULT_TYPE_ORDER, FaultEventBatch

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

    channel_ids = np.repeat(np.arange(channels), per_channel)
    codes = np.array([FAULT_TYPE_ORDER.index(ft) for ft in DEVICE_LEVEL_TYPES])
    type_code = np.repeat(np.tile(codes, channels), counts.ravel())
    time_hours = rng.uniform(0.0, horizon, size=total)
    rank = rng.integers(0, params.ranks, size=total)
    device = rng.integers(0, params.devices_per_rank, size=total)
    bank = rng.integers(0, params.banks, size=total)
    row = rng.integers(0, params.rows, size=total)
    column = rng.integers(0, params.columns, size=total)

    order = np.lexsort((time_hours, channel_ids))
    return FaultEventBatch(
        offsets=offsets,
        time_hours=time_hours[order],
        type_code=type_code[order],
        channel=np.zeros(total, dtype=np.int64),
        rank=rank[order],
        device=device[order],
        bank=bank[order],
        row=row[order],
        column=column[order],
    )


# -- segmented all-pairs screening --------------------------------------------


def _next_scrub_array(time_hours: np.ndarray, interval: float) -> np.ndarray:
    """Vectorized next-scrub boundary after each time."""
    return (np.floor(time_hours / interval) + 1.0) * interval


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
    for lo, hi in _segment_chunks(lengths):
        left, right, segment = segment_pairs(starts[lo:hi], lengths[lo:hi])
        hit = pair_test(left, right)
        out[lo:hi] = np.bincount(segment[hit], minlength=hi - lo) > 0
    return out


def _segment_chunks(lengths: np.ndarray) -> Iterator[Tuple[int, int]]:
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


def channel_verdicts(
    batch: "FaultEventBatch", interval: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every policy's verdict on every member of ``batch``, in array form.

    Returns per-member booleans ``(arcc_sdc, sccdcd_due, sccdcd_sdc)``;
    ARCC's SDC is also double chip sparing's DUE. One segmented
    all-pairs pass (chunked like :func:`any_pair_per_segment`) evaluates
    the event loops' rules as reductions over each member's intersecting
    pairs ``i < j``, in index (time) order:

    * ARCC (:func:`_undetected_pair`): some pair has
      ``next_scrub(t_i) > t_j``.
    * SCCDCD (:func:`_sccdcd_outcome`): the first pair closes at ``j*``,
      the smallest ``j`` of any pair, and is retired as a DUE by the
      first fault at or after ``next_scrub(t_j*)``. An SDC is the first fault ``k``
      that intersects an earlier ``m`` whose own first pair closed
      before ``k`` (at the min over partners ``p`` of ``max(m, p)``). As
      times are sorted within a member, the SDC comes first exactly when
      ``t_k < next_scrub(t_j*)``; otherwise the member is a DUE if it
      has a pair at all.

    Members with fewer than two faults decide nothing.
    """
    arcc_sdc, sccdcd_due, sccdcd_sdc = (
        np.zeros(batch.num_channels, dtype=bool) for _ in range(3)
    )
    multi = np.flatnonzero(batch.per_channel >= 2)
    starts, lengths = batch.offsets[multi], batch.per_channel[multi]
    # Index ``none`` is past every fault; its time is inf.
    none = batch.num_events
    times = np.append(batch.time_hours, np.inf)
    closes = np.full(none, none)  # where each fault's first pair closes
    for lo, hi in _segment_chunks(lengths):
        left, right, segment = segment_pairs(starts[lo:hi], lengths[lo:hi])
        hit = footprint_pairs_intersect(batch, left, right)
        left, right, segment = left[hit], right[hit], segment[hit]
        members = multi[lo:hi]

        race = _next_scrub_array(times[left], interval) > times[right]
        arcc_sdc[members] = np.bincount(segment[race], minlength=hi - lo) > 0

        first_pair = np.full(hi - lo, none)
        np.minimum.at(first_pair, segment, right)
        np.minimum.at(closes, left, right)
        closes[right] = right  # a later member closes its pair itself
        triple = closes[left] < right
        first_triple = np.full(hi - lo, none)
        np.minimum.at(first_triple, segment[triple], right[triple])

        sdc = times[first_triple] < _next_scrub_array(times[first_pair], interval)
        sccdcd_sdc[members] = sdc
        sccdcd_due[members] = (first_pair < none) & ~sdc
    return arcc_sdc, sccdcd_due, sccdcd_sdc


# -- per-channel reference policies (exact event loops) -----------------------


def _next_scrub(time_hours: float, interval: float) -> float:
    return (int(time_hours / interval) + 1) * interval


def _undetected_pair(faults: Sequence["FaultEvent"], interval: float) -> bool:
    """True if a fault intersects an earlier one before its detection scrub.

    For ARCC that is an SDC: the relaxed code's single-symbol detection
    is defeated, while intersections with detected faults hit upgraded
    pages, where double detection holds. For double chip sparing it is a
    DUE: the pair arrived within one scrub. A fault is never detected at
    its own arrival time, so the test needs no per-fault state.
    """
    for i, fault in enumerate(faults):
        for old in faults[:i]:
            if _next_scrub(
                old.time_hours, interval
            ) > fault.time_hours and footprint_intersects(fault, old):
                return True
    return False


def _sccdcd_outcome(
    faults: Sequence["FaultEvent"], interval: float
) -> Tuple[bool, bool]:
    """(had_due, had_sdc) for plain SCCDCD.

    A pair of intersecting faults is a DUE once detected (machine
    retired). An SDC requires a third fault to intersect an
    *undetected* pair.
    """
    present: List["FaultEvent"] = []
    undetected_pairs: List[Tuple["FaultEvent", "FaultEvent", float]] = []
    for fault in faults:
        # Retire pairs whose detection scrub has passed: DUE.
        for a, b, formed in undetected_pairs:
            if _next_scrub(formed, interval) <= fault.time_hours:
                return True, False  # DUE, machine replaced
        for a, b, formed in undetected_pairs:
            if footprint_intersects(fault, a) or footprint_intersects(fault, b):
                return False, True  # triple before detection: SDC
        for old in present:
            if footprint_intersects(fault, old):
                undetected_pairs.append((old, fault, fault.time_hours))
        present.append(fault)
    return bool(undetected_pairs), False


def _decide_channel(
    faults: Sequence["FaultEvent"], interval: float, outcome: ReliabilityOutcome
) -> None:
    """Run every policy's exact event loop over one channel."""
    if _undetected_pair(faults, interval):
        outcome.sdc_machines_arcc += 1
        outcome.due_machines_sparing += 1
    due, sdc = _sccdcd_outcome(faults, interval)
    outcome.due_machines_sccdcd += due
    outcome.sdc_machines_sccdcd += sdc


# -- the block job and the population plan ------------------------------------


def simulate_block(
    params: ReliabilityParams,
    seed: int,
    index: int,
    channels: int,
    years: float,
    exact_pairs: bool = False,
) -> ReliabilityOutcome:
    """Simulate block ``index`` of the population of ``seed`` with
    batched sampling: its stream is ``derive_seed(seed, index)``.

    Every channel with two or more faults is decided in array form, in
    one segmented all-pairs pass over the block
    (:func:`channel_verdicts`); the counts are the sums of its
    per-channel verdicts. ``exact_pairs=True`` runs the exact event
    loops instead: on the two-fault channels, and on the channels with
    three or more faults that a segmented intersection screen keeps
    (no policy can fail a channel whose faults are pairwise disjoint).
    The two modes must agree bit for bit on identical sampled faults;
    this is the equivalence check the tests and the ``montecarlo`` fuzz
    oracle run. Only the channels the event loops decide become
    ``FaultEvent`` objects.
    """
    rng = make_rng(derive_seed(seed, index))
    batch = _sample_batch(params, rng, channels, years)
    scrub = params.scrub_interval_hours
    outcome = ReliabilityOutcome(channels=channels, years=years)
    if not exact_pairs:
        arcc_sdc, sccdcd_due, sccdcd_sdc = channel_verdicts(batch, scrub)
        outcome.sdc_machines_arcc = outcome.due_machines_sparing = int(
            np.count_nonzero(arcc_sdc)
        )
        outcome.due_machines_sccdcd = int(np.count_nonzero(sccdcd_due))
        outcome.sdc_machines_sccdcd = int(np.count_nonzero(sccdcd_sdc))
        return outcome

    per_channel = batch.per_channel
    multi = np.flatnonzero(per_channel >= 3)
    has_pair = any_pair_per_segment(
        batch.offsets[multi],
        per_channel[multi],
        lambda left, right: footprint_pairs_intersect(batch, left, right),
    )
    decided = np.concatenate((np.flatnonzero(per_channel == 2), multi[has_pair]))
    for faults in batch.histories_of(decided):
        _decide_channel(faults, scrub, outcome)
    return outcome


def plan_montecarlo(
    params: ReliabilityParams,
    channels: int,
    years: float,
    seed: int = 0x5DC,
    exact_pairs: bool = False,
) -> ExperimentPlan:
    """A channel population as runner jobs: one :func:`simulate_block` each.

    The population is split by
    :func:`~repro.fleet.engine.fleet_blocks` into blocks of
    :data:`BLOCK_CHANNELS`; each job derives its block's RNG stream from
    ``seed`` and the block index alone, so the outcome is identical at
    any worker count.
    Assembly sums the block outcomes. A negative ``channels`` or a
    non-positive ``years`` raises ``ValueError`` here, before any job
    runs; ``channels=0`` is an empty plan.

    >>> from repro.runner import execute_plan
    >>> params = ReliabilityParams(rate_multiplier=100.0, scrub_interval_hours=48.0)
    >>> plan = plan_montecarlo(params, channels=1500, years=7.0)
    >>> len(plan.jobs)  # blocks of BLOCK_CHANNELS = 1024
    2
    >>> outcome = execute_plan(plan)
    >>> outcome.channels, outcome.sdc_machines_arcc, outcome.sdc_machines_sccdcd
    (1500, 21, 2)
    """
    from repro.fleet.engine import fleet_blocks

    if channels < 0:
        raise ValueError(f"channels must be non-negative, got {channels!r}")
    if not years > 0:
        raise ValueError(f"years must be positive, got {years!r}")
    jobs = [
        Job.create(
            f"mc-block[{index}]",
            simulate_block,
            seed=seed,
            params=params,
            index=index,
            channels=size,
            years=years,
            exact_pairs=exact_pairs,
        )
        for index, size in enumerate(fleet_blocks(channels, BLOCK_CHANNELS))
    ]

    def assemble(values: List[ReliabilityOutcome]) -> ReliabilityOutcome:
        return ReliabilityOutcome(
            channels=channels,
            years=years,
            **{name: sum(getattr(v, name) for v in values) for name in _COUNTS},
        )

    return ExperimentPlan(name="montecarlo", jobs=jobs, assemble=assemble)
