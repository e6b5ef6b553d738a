"""DUE-rate models (Sections 6.1 and 5.2).

* **SCCDCD** corrects one bad symbol forever; a DUE occurs when a second
  fault overlaps an existing one. The first fault persists until the
  faulty DIMM is serviced, so the exposure window is the repair interval
  (months), not a scrub interval.
* **Double chip sparing** remaps the first detected fault to the spare, so
  a second overlapping fault is *correctable* unless it arrives within the
  same scrub interval as the first — shrinking the exposure window from
  the repair interval to half a scrub interval. That window ratio is the
  mechanism behind the 17x DUE reduction the paper cites [4] when ARCC
  turns nine-device LOT-ECC into the 18-device double-chip-sparing form.
* **ARCC** does not change either story (Section 6.1): relaxed pages still
  guarantee single-symbol correction, and upgraded pages behave like the
  underlying strong code, so ARCC's DUE rate equals its base code's.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.types import DEVICE_LEVEL_TYPES
from repro.reliability.analytical import (
    PairTableMemo,
    ReliabilityParams,
    pair_race_rate,
)

#: Default service interval for replacing a DIMM after its first corrected
#: device failure (hours). Field practice is scheduled maintenance on the
#: order of a month.
DEFAULT_REPAIR_HOURS = 720.0


def due_rate_sccdcd(
    params: ReliabilityParams,
    repair_hours: float = DEFAULT_REPAIR_HOURS,
    tables: Optional[PairTableMemo] = None,
) -> float:
    """DUE rate (per channel-hour) of single-correct codes (SCCDCD,
    nine-device LOT-ECC): second overlapping fault during the repair
    exposure of the first. ``tables``: the caller's
    :data:`~repro.reliability.analytical.PairTableMemo`, if any.

    It is also SCCDCD+ARCC's DUE rate (Section 6.1): ARCC always
    guarantees correction of one bad symbol per codeword, relaxed and
    upgraded modes alike, so a DUE still takes a second overlapping
    fault within the first's repair exposure: the same race, the same
    rate."""
    return pair_race_rate(params, repair_hours / 2.0, tables)


def due_rate_sparing(
    params: ReliabilityParams, tables: Optional[PairTableMemo] = None
) -> float:
    """DUE rate (per channel-hour) of double chip sparing (and of the
    18-device LOT-ECC of Section 5.2): the pair must race one scrub."""
    return pair_race_rate(params, params.scrub_interval_hours / 2.0, tables)


def due_reduction_factor(
    params: ReliabilityParams,
    repair_hours: float = DEFAULT_REPAIR_HOURS,
) -> float:
    """DUE improvement from sparing (the paper quotes 17x from [4]).
    Both rates read one set of pair tables."""
    tables: PairTableMemo = {}
    sparing = due_rate_sparing(params, tables)
    if sparing == 0.0:
        raise ValueError("sparing DUE rate is zero; check the rates")
    return due_rate_sccdcd(params, repair_hours, tables) / sparing


def due_rate_secded(params: ReliabilityParams) -> float:
    """DUE rate (per channel-hour) of SECDED memory.

    SECDED corrects one bit and detects two; every *device-level* fault
    (row, column, bank, device, lane — all multi-bit) lands beyond its
    correction capability, so each arrival is an uncorrectable error.
    This is the weak anchor behind Chapter 1's field-study numbers:
    chipkill cuts DUEs 4x-36x relative to SECDED [1][2].
    """
    rate = 0.0
    for fault_type in DEVICE_LEVEL_TYPES:
        rate += params.device_rate_per_hour(fault_type)
    return rate * params.total_devices


def chipkill_vs_secded_due_factor(
    params: ReliabilityParams,
    repair_hours: float = DEFAULT_REPAIR_HOURS,
) -> float:
    """DUE-rate ratio SECDED / chipkill (paper cites 4x-36x from field
    studies). Chipkill (SCCDCD) only takes a DUE when a second fault
    overlaps an unreplaced first; SECDED takes one per device-level
    fault."""
    chipkill = due_rate_sccdcd(params, repair_hours)
    if chipkill == 0.0:
        raise ValueError("chipkill DUE rate is zero; check the rates")
    return due_rate_secded(params) / chipkill
