"""Vectorized fleet-lifetime sampling, whole-population reductions and
the one fleet block job.

This engine samples *entire blocks of channels at once*: one batched
Poisson draw for every (channel, fault-type) pair, one uniform draw for
every arrival time, one bounded-integer draw for every coordinate —
then a single lexsort groups the arrivals by channel and time into a
:class:`~repro.fleet.events.FaultEventBatch`. It is the only fleet
sampler. Every fleet report and Figures 3.1, 7.4/7.5 and 7.6 run one
:func:`block_job` per sampling block: it calls :func:`sample_block` once
and answers a tuple of reductions (faulty-fraction moments or the whole
fraction matrix, capped-overhead moments, pair-screen counts, event
moments); the planners only build those queries, one
:func:`~repro.fleet.report.population_plan` per population, and merge
the answers with :class:`~repro.util.stats.Moments`. The fraction
reductions are checked against the per-channel scalar reduction
:func:`repro.faults.lifetime._fraction_after_events`.

Determinism follows the Monte-Carlo block pattern: populations are
partitioned into fixed-size blocks whose seeds derive only from the
experiment seed and the block index
(:func:`repro.util.rng.derive_seed`), so results are bit-identical
whether blocks run inline or fan out across a process pool, and growing
a population by whole blocks extends rather than reshuffles its random
streams. A block job carries the population seed and its index and
derives its seed itself: planning a population draws nothing.

Rate schedules (burn-in vs steady-state) are piecewise-constant
non-homogeneous Poisson processes: each phase contributes an independent
batched draw over its own time window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import ARCC_MEMORY_CONFIG, RUNNER_CONFIG, MemoryConfig
from repro.faults.models import upgraded_page_fraction
from repro.faults.types import DEFAULT_FIT_RATES, FaultRates, FaultType
from repro.fleet.events import FAULT_TYPE_ORDER, FaultEventBatch, empty_batch
from repro.reliability.footprint import any_pair_per_segment, footprint_pairs_intersect
from repro.util.rng import derive_seed, make_rng
from repro.util.units import FIT_TO_PER_HOUR, HOURS_PER_YEAR

#: Channels sampled per block (and per runner job). Fixed — the block
#: partition, not the worker count, owns the RNG streams.
FLEET_BLOCK_CHANNELS = RUNNER_CONFIG.fleet_block_channels

#: A piecewise-constant rate schedule: (start_years, duration_years,
#: multiplier) segments, disjoint and in increasing start order.
Phases = Sequence[Tuple[float, float, float]]

#: A spatial-correlation model as a plain JSON-able mapping (the
#: ``dataclasses.asdict`` form of :class:`repro.fleet.scenarios.SpatialFaultModel`):
#: ``{"kind": ..., "fraction": ..., "banks": ..., "rows": ..., "columns": ...}``.
Spatial = Dict[str, object]


def _apply_spatial(
    coord_rng: np.random.Generator,
    spatial: Spatial,
    bank: np.ndarray,
    row: np.ndarray,
    column: np.ndarray,
    config: MemoryConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concentrate coordinate draws into a hot region.

    Each supported kind redirects a ``fraction`` of the faults into a
    small sub-array window (banks ``[0, banks)``, rows ``[0, rows)``,
    columns ``[0, columns)``), modelling spatially correlated wear-out.
    Only the sub-device coordinates are touched — times, types, and
    rank-level coordinates are sampled before this runs, so every
    rank-level reduction is independent of the spatial model.

    * ``multi-row-cluster`` — correlated multi-row faults: hot faults
      co-locate in a few banks and a contiguous row window.
    * ``retention-cluster`` — variable-retention cells: hot faults
      co-locate down to a (bank, row, column) window.
    * ``bank-wear`` — bank-localized wear: hot faults concentrate in a
      few banks, rows and columns stay uniform.
    """
    kind = str(spatial["kind"])
    total = len(bank)
    hot = coord_rng.random(total) < float(spatial.get("fraction", 0.5))
    hot_banks = min(int(spatial.get("banks", 1)), config.banks_per_device)
    bank = np.where(hot, coord_rng.integers(0, hot_banks, size=total), bank)
    if kind in ("multi-row-cluster", "retention-cluster"):
        hot_rows = min(int(spatial.get("rows", 64)), config.rows_per_bank)
        row = np.where(hot, coord_rng.integers(0, hot_rows, size=total), row)
    if kind == "retention-cluster":
        hot_cols = min(int(spatial.get("columns", 64)), config.columns_per_row)
        column = np.where(
            hot, coord_rng.integers(0, hot_cols, size=total), column
        )
    return bank, row, column


def channel_arrival_rates(
    config: MemoryConfig = ARCC_MEMORY_CONFIG,
    rates: FaultRates = DEFAULT_FIT_RATES,
) -> np.ndarray:
    """Channel-level arrival rate per hour of every fault type.

    One entry per :data:`FAULT_TYPE_ORDER` element: per-device FIT rates
    scaled by the total device count of the memory system. Lane faults
    are channel-level events (one faulty lane silences the same bit of
    every rank), exposed as one lane-fault source per device position,
    matching the per-device FIT normalization of the field study.
    """
    devices = config.channels * config.ranks_per_channel * config.devices_per_rank
    fits = np.array([rates.fit_of(ft) for ft in FAULT_TYPE_ORDER])
    return fits * FIT_TO_PER_HOUR * devices


def sample_block(
    block_seed: int,
    channels: int,
    years: float,
    rate_multiplier: float = 1.0,
    config: MemoryConfig = ARCC_MEMORY_CONFIG,
    rates: FaultRates = DEFAULT_FIT_RATES,
    phases: Optional[Phases] = None,
    spatial: Optional[Spatial] = None,
) -> FaultEventBatch:
    """Sample one block of channels in batched NumPy draws.

    ``phases`` (when given) must cover ``[0, years]`` with disjoint
    ``(start, duration, multiplier)`` segments; the default is a single
    constant-rate phase. ``rate_multiplier`` scales every phase (the
    paper's 1x/2x/4x sweeps compose with burn-in schedules).

    The sub-device coordinates (``bank``/``row``/``column``) are drawn
    from their own derived seed stream — counts, times, and rank-level
    coordinates consume exactly the draws they always did, so every
    rank-level reduction stays bit-identical to the pre-coordinate
    engine. ``spatial`` (a :data:`Spatial` mapping) concentrates those
    draws into a hot region; it never touches the rank-level stream.
    """
    if channels <= 0:
        return empty_batch(max(channels, 0))
    rng = make_rng(block_seed)
    # Independent child stream for the sub-device coordinates: isolated
    # so adding (or spatially re-shaping) them cannot perturb the
    # rank-level draws above.
    coord_rng = make_rng(derive_seed(block_seed, 0))
    base = channel_arrival_rates(config, rates) * rate_multiplier
    if phases is None:
        phases = ((0.0, years, 1.0),)

    chunks = []
    for start_years, duration_years, multiplier in phases:
        duration_hours = duration_years * HOURS_PER_YEAR
        if duration_hours <= 0:
            continue
        lam = base * multiplier * duration_hours
        counts = rng.poisson(lam, size=(channels, len(lam)))
        total = int(counts.sum())
        if total == 0:
            continue
        member = np.repeat(np.arange(channels), counts.sum(axis=1))
        type_code = np.repeat(
            np.tile(np.arange(len(lam)), channels), counts.ravel()
        )
        start_hours = start_years * HOURS_PER_YEAR
        time_hours = start_hours + rng.uniform(0.0, duration_hours, size=total)
        channel = rng.integers(0, config.channels, size=total)
        rank = rng.integers(0, config.ranks_per_channel, size=total)
        device = rng.integers(0, config.devices_per_rank, size=total)
        bank = coord_rng.integers(0, config.banks_per_device, size=total)
        row = coord_rng.integers(0, config.rows_per_bank, size=total)
        column = coord_rng.integers(0, config.columns_per_row, size=total)
        if spatial is not None:
            bank, row, column = _apply_spatial(
                coord_rng, spatial, bank, row, column, config
            )
        chunks.append(
            (
                member,
                time_hours,
                type_code,
                channel,
                rank,
                device,
                bank,
                row,
                column,
            )
        )

    if not chunks:
        return empty_batch(channels)
    member = np.concatenate([c[0] for c in chunks])
    arrays = [np.concatenate([c[i] for c in chunks]) for i in range(1, 9)]
    time_hours, type_code, channel, rank, device, bank, row, column = arrays

    order = np.lexsort((time_hours, member))
    counts_per_member = np.bincount(member, minlength=channels)
    offsets = np.concatenate(([0], np.cumsum(counts_per_member)))
    return FaultEventBatch(
        offsets=offsets.astype(np.int64),
        time_hours=time_hours[order],
        type_code=type_code[order].astype(np.int64),
        channel=channel[order].astype(np.int64),
        rank=rank[order].astype(np.int64),
        device=device[order].astype(np.int64),
        bank=bank[order].astype(np.int64),
        row=row[order].astype(np.int64),
        column=column[order].astype(np.int64),
    )


def fleet_blocks(
    channels: int, block_channels: int = FLEET_BLOCK_CHANNELS
) -> List[int]:
    """Block sizes of a population, in block order.

    Prefix-stable: the first ``k`` blocks are the same no matter how
    large the population grows. Block ``i`` samples from
    ``derive_seed(seed, i)`` of its population's ``seed``.

    >>> fleet_blocks(2500, 1024)
    [1024, 1024, 452]
    """
    if channels <= 0:
        return []
    full, rest = divmod(channels, block_channels)
    return [block_channels] * full + ([rest] if rest else [])


def sample_fleet(
    channels: int,
    years: float,
    rate_multiplier: float = 1.0,
    config: MemoryConfig = ARCC_MEMORY_CONFIG,
    rates: FaultRates = DEFAULT_FIT_RATES,
    seed: int = 0xFA117,
    phases: Optional[Phases] = None,
    spatial: Optional[Spatial] = None,
    block_channels: int = FLEET_BLOCK_CHANNELS,
) -> FaultEventBatch:
    """Sample a whole population inline (all blocks, concatenated)."""
    blocks = [
        sample_block(
            derive_seed(seed, index),
            size,
            years,
            rate_multiplier=rate_multiplier,
            config=config,
            rates=rates,
            phases=phases,
            spatial=spatial,
        )
        for index, size in enumerate(fleet_blocks(channels, block_channels))
    ]
    if not blocks:
        return empty_batch(max(channels, 0))
    return FaultEventBatch.concat(blocks)


# -- whole-population reductions ----------------------------------------------


def _page_fractions(config: MemoryConfig) -> np.ndarray:
    """Table 7.4 upgraded-page fraction of every fault type code."""
    return np.array(
        [upgraded_page_fraction(ft, config) for ft in FAULT_TYPE_ORDER]
    )


def faulty_fractions_at(
    batch: FaultEventBatch,
    hours: Sequence[float],
    config: MemoryConfig = ARCC_MEMORY_CONFIG,
) -> np.ndarray:
    """Per-channel faulty-page fraction at each of the sample ``hours``.

    Returns a ``(len(hours), channels)`` matrix. Faults compose as
    ``1 - prod(1 - f_i)`` over the arrivals at or before each time (the
    ``_fraction_after_events`` rule), evaluated here as a per-channel
    segment sum of ``log1p(-f)`` — exact up to floating point, including
    the ``f = 1`` lane case (``log 0 = -inf`` -> fraction 1).

    The sums run over compressed columns, one per channel with at least
    one event, and are scattered back at the end. Every other entry is
    ``-expm1(0.0) == -0.0``, the value a channel with no arrival yet has
    (``+0.0`` everywhere for a batch with no events at all).
    """
    channels = batch.num_channels
    if batch.num_events == 0:
        return np.zeros((len(hours), channels))
    with np.errstate(divide="ignore"):
        log_survival = np.log1p(-_page_fractions(config))[batch.type_code]
    counts = batch.per_channel
    faulty = np.flatnonzero(counts)
    columns = np.repeat(np.arange(len(faulty)), counts[faulty])
    log_sums = np.empty((len(hours), len(faulty)))
    for log_sum, t_hours in zip(log_sums, hours):
        mask = batch.time_hours <= t_hours
        log_sum[:] = np.bincount(
            columns[mask], weights=log_survival[mask], minlength=len(faulty)
        )
    out = np.full((len(hours), channels), -0.0)
    out[:, faulty] = -np.expm1(log_sums)
    return out


def overhead_series_by_year(
    batch: FaultEventBatch,
    years: int,
    rows: Sequence[Tuple[Dict[FaultType, float], float]],
    steps_per_year: int = 12,
) -> np.ndarray:
    """Per-channel cumulative-average overhead at the end of each year.

    ``rows`` is a sequence of ``(per_fault, cap)`` weight sets scored on
    the same batch. Returns a ``(len(rows), years, channels)`` array
    whose ``[r, y-1]`` entry is each channel's row-``r`` overhead
    averaged over the first ``y`` years, sampled at ``steps_per_year``
    mid-step points per year — the vectorized form of the scalar
    ``_overhead_series`` accumulation (Section 7.1 step 3 is additive per
    arrived fault, capped at fully-upgraded behaviour).

    Only channels with an arrival by the last step can leave the
    fault-free value, so the step loop runs on compressed columns: one
    per such channel, for the rows with a nonzero weight. Every other
    entry is the fault-free value ``min(0.0, cap)`` accumulated once per
    step, computed per row in one ``add.accumulate``. The time sort and
    the step searches are shared by every row; arrivals are added per
    row in time order, so each entry is the float sequence of scoring
    its channel alone.
    """
    per_type = np.zeros((len(rows), len(FAULT_TYPE_ORDER)))
    for row, (per_fault, _) in zip(per_type, rows):
        row[:] = [per_fault.get(ft, 0.0) for ft in FAULT_TYPE_ORDER]
    caps = np.array([cap for _, cap in rows], dtype=float).reshape(-1, 1)
    steps = years * steps_per_year
    step_hours = [
        (step + 0.5) / steps_per_year * HOURS_PER_YEAR for step in range(steps)
    ]
    order = np.argsort(batch.time_hours, kind="stable")
    arrived = np.searchsorted(batch.time_hours[order], step_hours, side="right")
    order = order[: arrived[-1] if steps else 0]
    faulty, columns = np.unique(batch.channel_ids()[order], return_inverse=True)
    live = np.flatnonzero(per_type.any(axis=1))
    weights = per_type[np.ix_(live, batch.type_code[order])]
    live_caps = caps[live]

    current = np.zeros((len(live), len(faulty)))
    accumulated = np.zeros_like(current)
    capped = np.empty_like(current)
    series = np.empty((len(live), years, len(faulty)))
    arrived = arrived.tolist()
    cursor = 0
    for year in range(years):
        for stop in arrived[year * steps_per_year : (year + 1) * steps_per_year]:
            if stop > cursor:
                np.add.at(
                    current,
                    (slice(None), columns[cursor:stop]),
                    weights[:, cursor:stop],
                )
                cursor = stop
            np.minimum(current, live_caps, out=capped)
            accumulated += capped
        series[:, year] = accumulated / ((year + 1) * steps_per_year)

    # A fault-free channel adds min(0.0, cap) every step; row 0 is the
    # 0.0 each running sum starts from, as ``accumulated`` does.
    free_steps = np.zeros((steps + 1, len(rows)))
    free_steps[1:] = np.minimum(np.zeros_like(caps), caps).T
    free_sums = np.add.accumulate(free_steps)
    year_ends = np.arange(1, years + 1) * steps_per_year
    out = np.empty((len(rows), years, batch.num_channels))
    out[...] = (free_sums[year_ends] / year_ends[:, None]).T[:, :, None]
    out[live[:, None, None], np.arange(years)[:, None], faulty] = series
    return out


# -- Monte-Carlo uncorrectable-pair screen ------------------------------------

_BIT_CODE = FAULT_TYPE_ORDER.index(FaultType.BIT)


def uncorrectable_candidate_channels(
    batch: FaultEventBatch, window_hours: float
) -> np.ndarray:
    """Channels holding a pair no single-chipkill code can correct.

    A boolean per population member: ``True`` when two device-level
    faults (bit faults never defeat symbol correction) land on distinct
    devices with *exactly intersecting* codeword footprints — same
    memory channel, same rank unless a lane fault spans ranks, and
    overlapping ``(bank, row, column)`` regions — with the second
    arriving within ``window_hours`` of the first.

    Footprint geometry is the shared vectorized rule
    :func:`repro.reliability.footprint.footprint_pairs_intersect` (the
    array form of ``footprint_intersects``), evaluated on the batch's
    own coordinates, so this screen is an *exact* count —
    bit-identical to the Monte-Carlo footprint model on identical
    coordinates (the ``pair-screen`` fuzz oracle and
    ``tests/test_policy_mc_crosscheck.py`` enforce equality in both
    directions). A batch whose sub-device coordinates are all zero
    gets the rank-level (upper-bound) screen.

    The screen is one segmented pass: the device-level events of every
    member with at least two of them form one segment each, and
    :func:`repro.reliability.footprint.any_pair_per_segment` tests all
    their pairs in a single predicate call before ``any`` is scattered
    back to the members.
    """
    out = np.zeros(batch.num_channels, dtype=bool)
    if batch.num_events < 2:
        return out
    # Device-level events in member order: each member's are contiguous.
    eligible = np.flatnonzero(batch.type_code != _BIT_CODE)
    counts = np.bincount(
        batch.channel_ids()[eligible], minlength=batch.num_channels
    )
    starts = np.cumsum(counts) - counts
    members = np.flatnonzero(counts >= 2)

    def uncorrectable(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        a, b = eligible[left], eligible[right]
        # Events are time-sorted within a member, so b is the later fault.
        in_window = batch.time_hours[b] - batch.time_hours[a] <= window_hours
        return footprint_pairs_intersect(batch, a, b) & in_window

    out[members] = any_pair_per_segment(
        starts[members], counts[members], uncorrectable
    )
    return out


# -- the block job: one sample, many reductions --------------------------------


def _moments(samples: np.ndarray) -> List[Any]:
    """Per-row totals, then totals of squares, over the last (channel)
    axis — NumPy's pairwise sum over each contiguous row — as nested
    lists of Python floats, ``(2, ...)`` deep."""
    return np.stack((samples.sum(axis=-1), np.square(samples).sum(axis=-1))).tolist()


@dataclass(frozen=True)
class FractionMoments:
    """Faulty-page fraction moments at each of the sample ``hours``
    (:func:`faulty_fractions_at`): ``[totals, totals of squares]``, one
    float per sample time each."""

    hours: Tuple[float, ...]

    def reduce(self, batch: FaultEventBatch, config: MemoryConfig) -> List[Any]:
        return _moments(faulty_fractions_at(batch, self.hours, config))


@dataclass(frozen=True)
class FractionMatrix:
    """The whole ``(len(hours), channels)`` faulty-fraction matrix, for
    an interval that needs every sample (Figure 3.1's two-pass one)."""

    hours: Tuple[float, ...]

    def reduce(self, batch: FaultEventBatch, config: MemoryConfig) -> np.ndarray:
        return faulty_fractions_at(batch, self.hours, config)


@dataclass(frozen=True)
class OverheadMoments:
    """Capped-overhead moments of every ``(per_fault, cap)`` row at each
    requested year end (:func:`overhead_series_by_year`): ``[totals,
    totals of squares]``, each ``len(rows)`` lists of one float per year
    end. Only the requested year ends are reduced — a final-year query
    skips every other year."""

    rows: Tuple[Tuple[Dict[FaultType, float], float], ...]
    year_ends: Tuple[int, ...]

    def reduce(self, batch: FaultEventBatch, config: MemoryConfig) -> List[Any]:
        series = overhead_series_by_year(batch, max(self.year_ends), self.rows)
        return _moments(series[:, [year - 1 for year in self.year_ends]])


@dataclass(frozen=True)
class PairScreens:
    """Channels :func:`uncorrectable_candidate_channels` flags, one
    ``int`` per exposure window (hours)."""

    windows: Tuple[float, ...]

    def reduce(self, batch: FaultEventBatch, config: MemoryConfig) -> List[int]:
        return [
            int(uncorrectable_candidate_channels(batch, window).sum())
            for window in self.windows
        ]


@dataclass(frozen=True)
class EventMoments:
    """Moments of each channel's fault-arrival count and of the indicator
    that it saw any: ``[[count total, indicator total], [count total of
    squares, indicator total of squares]]``."""

    def reduce(self, batch: FaultEventBatch, config: MemoryConfig) -> List[Any]:
        counts = batch.per_channel.astype(np.float64)
        return _moments(np.stack((counts, (counts > 0).astype(np.float64))))


#: A request :func:`block_job` answers.
Reduction = Union[
    FractionMoments, FractionMatrix, OverheadMoments, PairScreens, EventMoments
]


def block_job(
    seed: int,
    index: int,
    channels: int,
    years: float,
    reductions: Sequence[Reduction],
    rate_multiplier: float = 1.0,
    config: MemoryConfig = ARCC_MEMORY_CONFIG,
    rates: FaultRates = DEFAULT_FIT_RATES,
    phases: Optional[Phases] = None,
    spatial: Optional[Spatial] = None,
) -> List[Any]:
    """Picklable worker: sample one block once and reduce it every
    requested way.

    The block is block ``index`` of the population of ``seed``: it
    samples from ``derive_seed(seed, index)``. The other sampling
    arguments are :func:`sample_block`'s (``years`` is the sampled
    horizon; a reduction names its own sample times). Returns one
    result per reduction, in request order, so every reduction of one
    job reads the same fault arrivals.

    Examples
    --------
    >>> (totals, squares), screens = block_job(
    ...     7, 0, 64, 7.0, (EventMoments(), PairScreens((24.0,)))
    ... )
    >>> len(totals), len(screens)
    (2, 1)
    """
    batch = sample_block(
        derive_seed(seed, index), channels, years, rate_multiplier, config, rates, phases, spatial
    )
    return [reduction.reduce(batch, config) for reduction in reductions]
