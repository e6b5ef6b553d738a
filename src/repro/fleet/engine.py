"""Vectorized fleet-lifetime sampling and whole-population reductions.

This engine samples *entire blocks of channels at once*: one batched
Poisson draw for every (channel, fault-type) pair, one uniform draw for
every arrival time, one bounded-integer draw for every coordinate —
then a single lexsort groups the arrivals by channel and time into a
:class:`~repro.fleet.events.FaultEventBatch`. It is the only fleet
sampler — Figures 3.1, 7.4-7.6 and every fleet report call
:func:`sample_fleet` or :func:`sample_block` directly — and the
year-by-year reductions are checked exactly against the per-channel
scalar reduction :func:`repro.faults.lifetime._fraction_after_events`.

Determinism follows the Monte-Carlo block pattern of PR 1: populations
are partitioned into fixed-size blocks whose seeds derive only from the
experiment seed and the block index (the same ``SeedSequence`` machinery
as :func:`repro.util.rng.split_rng`), so results are bit-identical
whether blocks run inline or fan out across a process pool, and growing
a population by whole blocks extends rather than reshuffles its random
streams.

Rate schedules (burn-in vs steady-state) are piecewise-constant
non-homogeneous Poisson processes: each phase contributes an independent
batched draw over its own time window.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import ARCC_MEMORY_CONFIG, RUNNER_CONFIG, MemoryConfig
from repro.faults.models import upgraded_page_fraction
from repro.faults.types import DEFAULT_FIT_RATES, FaultRates, FaultType
from repro.fleet.events import FAULT_TYPE_ORDER, FaultEventBatch, empty_batch
from repro.util.rng import derive_seeds, make_rng
from repro.util.units import FIT_TO_PER_HOUR, HOURS_PER_YEAR

#: Channels sampled per block (and per runner job). Fixed — the block
#: partition, not the worker count, owns the RNG streams.
FLEET_BLOCK_CHANNELS = RUNNER_CONFIG.fleet_block_channels

#: A piecewise-constant rate schedule: (start_years, duration_years,
#: multiplier) segments, disjoint and in increasing start order.
Phases = Sequence[Tuple[float, float, float]]

#: A spatial-correlation model as a plain JSON-able mapping (the
#: ``to_config()`` form of :class:`repro.fleet.scenarios.SpatialFaultModel`):
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
    coord_rng = make_rng(derive_seeds(block_seed, 1)[0])
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
    seed: int, channels: int, block_channels: int = FLEET_BLOCK_CHANNELS
) -> List[Tuple[int, int]]:
    """``(block_seed, block_channels)`` partition of a population.

    Prefix-stable: the first ``k`` blocks are the same no matter how
    large the population grows.
    """
    if channels <= 0:
        return []
    count = (channels + block_channels - 1) // block_channels
    seeds = derive_seeds(seed, count)
    return [
        (block_seed, min(block_channels, channels - i * block_channels))
        for i, block_seed in enumerate(seeds)
    ]


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
            block_seed,
            size,
            years,
            rate_multiplier=rate_multiplier,
            config=config,
            rates=rates,
            phases=phases,
            spatial=spatial,
        )
        for block_seed, size in fleet_blocks(seed, channels, block_channels)
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
    """
    channels = batch.num_channels
    out = np.zeros((len(hours), channels))
    if batch.num_events == 0:
        return out
    with np.errstate(divide="ignore"):
        log_survival = np.log1p(-_page_fractions(config))[batch.type_code]
    ids = batch.channel_ids()
    for i, t_hours in enumerate(hours):
        mask = batch.time_hours <= t_hours
        log_sum = np.bincount(
            ids[mask], weights=log_survival[mask], minlength=channels
        )
        out[i] = -np.expm1(log_sum)
    return out


def faulty_fractions_by_year(
    batch: FaultEventBatch,
    years: int,
    config: MemoryConfig = ARCC_MEMORY_CONFIG,
) -> np.ndarray:
    """Per-channel faulty-page fraction at the end of each year.

    Returns a ``(years, channels)`` matrix: :func:`faulty_fractions_at`
    sampled at the year horizons.
    """
    return faulty_fractions_at(
        batch, [year * HOURS_PER_YEAR for year in range(1, years + 1)], config
    )


def overhead_series_by_year(
    batch: FaultEventBatch,
    years: int,
    per_fault: Dict[FaultType, float],
    cap: float,
    steps_per_year: int = 12,
) -> np.ndarray:
    """Per-channel cumulative-average overhead at the end of each year.

    Returns a ``(years, channels)`` matrix whose row ``y-1`` is each
    channel's overhead averaged over the first ``y`` years, sampled at
    ``steps_per_year`` mid-step points per year — the vectorized form of
    the scalar ``_overhead_series`` accumulation (Section 7.1 step 3 is
    additive per arrived fault, capped at fully-upgraded behaviour).
    """
    channels = batch.num_channels
    out = np.zeros((years, channels))
    weights = np.array(
        [per_fault.get(ft, 0.0) for ft in FAULT_TYPE_ORDER]
    )[batch.type_code]
    ids = batch.channel_ids()
    order = np.argsort(batch.time_hours, kind="stable")
    sorted_times = batch.time_hours[order]
    sorted_ids = ids[order]
    sorted_weights = weights[order]

    current = np.zeros(channels)
    accumulated = np.zeros(channels)
    cursor = 0
    step = 0
    for year in range(1, years + 1):
        for _ in range(steps_per_year):
            t_hours = (step + 0.5) / steps_per_year * HOURS_PER_YEAR
            arrived = np.searchsorted(sorted_times, t_hours, side="right")
            if arrived > cursor:
                np.add.at(
                    current,
                    sorted_ids[cursor:arrived],
                    sorted_weights[cursor:arrived],
                )
                cursor = arrived
            accumulated += np.minimum(current, cap)
            step += 1
        out[year - 1] = accumulated / step
    return out
