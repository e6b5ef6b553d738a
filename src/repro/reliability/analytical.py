"""Closed-form SDC models for SCCDCD vs SCCDCD+ARCC (Section 6.2).

The argument of Chapter 6: commercial SCCDCD always detects two bad
symbols per codeword, so an SDC needs *three* simultaneously-present
overlapping faults. ARCC's relaxed codewords only guarantee detection of
one bad symbol, so an SDC needs just *two* faults overlapping a codeword
— but the second must arrive in the *same scrub interval* as the first,
because at the end of each scrub the affected page is upgraded (after
which double detection holds again). That ordering race is identical to
the error-*correction* reliability of double chip sparing, which is why
the paper reuses the sparing model from [12] for ARCC's detection
reliability.

Expected counts compose from three ingredients:

* per-device fault arrival rates (FIT, from the field study),
* the probability two (or three) independently-placed faults share a
  codeword (the overlap table below), and
* the exposure window: one scrub interval for the race cases, the
  accumulated lifetime for faults that persist until something overlaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.faults.types import (
    DEFAULT_FIT_RATES,
    DEVICE_LEVEL_TYPES,
    FaultRates,
    FaultType,
)
from repro.util.units import FIT_TO_PER_HOUR, HOURS_PER_YEAR


@dataclass(frozen=True)
class ReliabilityParams:
    """Geometry and operating parameters of the Chapter 6 analysis."""

    devices_per_rank: int = 36
    ranks: int = 2  # one channel: 72 devices total
    banks: int = 8
    rows: int = 16384
    columns: int = 2048
    scrub_interval_hours: float = 4.0
    rate_multiplier: float = 1.0
    rates: FaultRates = DEFAULT_FIT_RATES

    @property
    def scaled_rates(self) -> FaultRates:
        """Field-study rates after the 1x/2x/4x multiplier."""
        return self.rates.scaled(self.rate_multiplier)

    @property
    def total_devices(self) -> int:
        """Devices in the channel (72 in the paper's configuration)."""
        return self.devices_per_rank * self.ranks

    def device_rate_per_hour(self, fault_type: FaultType) -> float:
        """Per-device arrival rate of one fault type (per hour)."""
        return self.scaled_rates.fit_of(fault_type) * FIT_TO_PER_HOUR


def device_rates_per_hour(params: ReliabilityParams) -> Dict[FaultType, float]:
    """:meth:`ReliabilityParams.device_rate_per_hour` of every
    device-level type, scaling the rates once for a whole pair or
    triple sum.

    >>> rates = device_rates_per_hour(ReliabilityParams(rate_multiplier=2.0))
    >>> rates[FaultType.DEVICE] == ReliabilityParams(
    ...     rate_multiplier=2.0).device_rate_per_hour(FaultType.DEVICE)
    True
    """
    scaled = params.scaled_rates
    return {ft: scaled.fit_of(ft) * FIT_TO_PER_HOUR for ft in DEVICE_LEVEL_TYPES}


#: Per-hour rates, peer counts and pairwise overlaps of the live types.
_Tables = Tuple[List[float], List[int], List[List[float]]]

#: A caller-owned memo of :func:`_pair_tables`, keyed by the params they
#: describe. An assembly that evaluates several sums over a few
#: parameter sets passes one dict to all of them, so each distinct
#: :class:`ReliabilityParams` is tabulated once per call. The memo lives
#: as long as the caller keeps it; nothing is memoized process-wide.
PairTableMemo = Dict[ReliabilityParams, _Tables]


def _pair_tables(params: ReliabilityParams) -> _Tables:
    """Per-hour device rate and :func:`_peers` of each device-level type
    with a nonzero rate, in :data:`DEVICE_LEVEL_TYPES` order, and
    :func:`overlap_probability` of each ordered pair of them (row ``i``,
    column ``j``): built once per sum, or once per params in a
    :data:`PairTableMemo`, and read by position in the sums' loops.
    Zero-rate types add nothing to any sum, so the sums skip them."""
    lam = device_rates_per_hour(params)
    live = [ft for ft in DEVICE_LEVEL_TYPES if lam[ft] != 0.0]
    return (
        [lam[a] for a in live],
        [_peers(a, params) for a in live],
        [[overlap_probability(a, b, params) for b in live] for a in live],
    )


def _tables_for(
    params: ReliabilityParams, tables: Optional[PairTableMemo]
) -> _Tables:
    """``params``' pair tables, built into ``tables`` on first use (or
    built afresh when there is no memo)."""
    if tables is None:
        return _pair_tables(params)
    found = tables.get(params)
    if found is None:
        found = tables[params] = _pair_tables(params)
    return found


def overlap_probability(
    a: FaultType, b: FaultType, params: ReliabilityParams
) -> float:
    """P(two faults on different devices of a rank share a codeword).

    Codewords are indexed by (bank, row, column); a fault's footprint is
    every index its circuitry covers. Whole-device and lane faults cover
    everything; smaller faults must land on matching coordinates:

    * bank-bank / bank-row / bank-column / row-column: same bank (1/B) —
      a row and a column in the same bank always cross at one cell;
    * row-row: same bank and row (1/(B*R));
    * column-column: same bank and column (1/(B*C)).
    """
    big = (FaultType.DEVICE, FaultType.LANE)
    if a in big or b in big:
        return 1.0
    pair = (a, b) if a.value <= b.value else (b, a)
    banks = params.banks
    if pair == (FaultType.ROW, FaultType.ROW):
        return 1.0 / (banks * params.rows)
    if pair == (FaultType.COLUMN, FaultType.COLUMN):
        return 1.0 / (banks * params.columns)
    # Any remaining combination of bank/row/column overlaps iff same bank.
    return 1.0 / banks


def _peers(a: FaultType, params: ReliabilityParams) -> int:
    """Devices whose later faults can share codewords with fault ``a``.

    A lane fault spans every rank of the channel; other faults share
    codewords only within their own rank.
    """
    if a == FaultType.LANE:
        return params.total_devices - 1
    return params.devices_per_rank - 1


def sdc_rate_arcc_ded(
    params: ReliabilityParams, tables: Optional[PairTableMemo] = None
) -> float:
    """SDC rate (per channel, per hour) of SCCDCD+ARCC.

    An SDC needs a second overlapping fault within the same scrub
    interval as the first (mean exposure: half an interval, since the
    first fault lands uniformly within its scrub period).
    """
    return pair_race_rate(params, params.scrub_interval_hours / 2.0, tables)


def pair_race_rate(
    params: ReliabilityParams,
    window_hours: float,
    tables: Optional[PairTableMemo] = None,
) -> float:
    """Rate (per channel-hour) of a second fault overlapping a first
    within ``window_hours`` of it: the sum over fault-type pairs (A, B)
    of lam_A*N * peers_A * lam_B * window * o(A,B).

    ``tables`` is the caller's :data:`PairTableMemo`, if it has one; the
    rate is the same float either way."""
    rates, peers, overlap = _tables_for(params, tables)
    rate = 0.0
    for lam, peers_a, overlap_a in zip(rates, peers, overlap):
        lam_a = lam * params.total_devices
        if lam_a == 0.0:
            continue
        # Left-to-right prefixes of the product, so every float is the
        # one the full product gives.
        head = lam_a * peers_a
        for lam_b, overlap_ab in zip(rates, overlap_a):
            rate += head * lam_b * window_hours * overlap_ab
    return rate


def expected_sdc_arcc(
    params: ReliabilityParams,
    lifespan_years: float,
    tables: Optional[PairTableMemo] = None,
) -> float:
    """Expected ARCC SDC events per channel over a lifespan."""
    return sdc_rate_arcc_ded(params, tables) * lifespan_years * HOURS_PER_YEAR


def expected_sdc_sccdcd(
    params: ReliabilityParams,
    lifespan_years: float,
    tables: Optional[PairTableMemo] = None,
) -> float:
    """Expected SCCDCD SDC events per channel over a lifespan.

    Double detection always holds, so an SDC needs a *third* fault
    overlapping an undetected double: the first fault may have arrived any
    time before (it persists, being correctable), but the second and
    third must land within one scrub interval of each other — a detected
    double is a DUE and, per the Chapter 6 assumption, retires the
    machine.

    Integrating the race over the lifespan: the expected count is
    sum over (A,B,C) of  lam_A*N * (T^2/2) * peers*lam_B * o(A,B)
    * (peers-1)*lam_C * (s/2) * o(A,C) — the T^2/2 being the accumulated
    exposure of the persistent first fault. Triple overlap is
    approximated by the product of pairwise overlaps with A (placements
    independent), exact whenever any fault is device/lane — the dominant
    case. ``tables`` is the caller's :data:`PairTableMemo`, if it has
    one.
    """
    hours = lifespan_years * HOURS_PER_YEAR
    window = params.scrub_interval_hours / 2.0
    rates, peers, overlap = _tables_for(params, tables)
    expected = 0.0
    for lam, peers_a, overlap_a in zip(rates, peers, overlap):
        lam_a = lam * params.total_devices
        if lam_a == 0.0:
            continue
        # Left-to-right prefixes of the product, so every float is the
        # one the full product gives.
        head_a = lam_a * (hours * hours / 2.0) * peers_a
        others = max(peers_a - 1, 1)
        for lam_b, overlap_ab in zip(rates, overlap_a):
            head_ab = head_a * lam_b * overlap_ab * others
            for lam_c, overlap_ac in zip(rates, overlap_a):
                expected += head_ab * lam_c * window * overlap_ac
    return expected


def sdc_events_per_1000_machine_years(
    lifespan_years: float,
    params: ReliabilityParams,
    tables: Optional[PairTableMemo] = None,
) -> Tuple[float, float]:
    """(SCCDCD, SCCDCD+ARCC) SDCs per 1000 machine-years (Figure 6.1).

    A machine is one 72-device channel, replaced wholesale at its first
    undetectable error (so each machine contributes at most one SDC):
    count per 1000 machine-years = 1000 * P(SDC within lifespan) /
    lifespan. Both sums read one set of tables: ``tables`` (the caller's
    :data:`PairTableMemo`, shared across cells) or a memo of this call.
    """
    if lifespan_years <= 0:
        raise ValueError("lifespan must be positive")
    if tables is None:
        tables = {}
    p_arcc = 1.0 - math.exp(-expected_sdc_arcc(params, lifespan_years, tables))
    p_sccdcd = 1.0 - math.exp(
        -expected_sdc_sccdcd(params, lifespan_years, tables)
    )
    scale = 1000.0 / lifespan_years
    return p_sccdcd * scale, p_arcc * scale
