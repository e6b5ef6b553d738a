"""Fault taxonomy and field-study FIT rates.

Rates are FIT *per DRAM device* (failures per 10^9 device-hours),
transcribed (approximately — the study reports them graphically) from
Sridharan & Liberty, "A Study of DRAM Failures in the Field", SC'12 [2].
The exact values matter less than their relative magnitudes: small faults
(bit/row/column) dominate counts, whole-device and lane faults dominate
the *fraction of memory* affected. All experiments take a
``rate_multiplier`` so the paper's 1x/2x/4x sweeps reproduce directly.

The paper makes a worst-case assumption we keep: every fault corrupts
*all* memory under the faulty circuitry (Chapter 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

from repro.util.fields import check_range


class FaultType(enum.Enum):
    """Device-level fault classes from the field study."""

    BIT = "single-bit"
    ROW = "row"
    COLUMN = "column"
    BANK = "bank"  # the paper's "subbank" row in Table 7.4
    DEVICE = "device"  # multi-bank / whole chip
    LANE = "lane"  # shared data-lane; hits both ranks on the channel


@dataclass(frozen=True)
class FaultRates:
    """Per-device FIT rates for each fault type (finite, >= 0)."""

    bit: float
    row: float
    column: float
    bank: float
    device: float
    lane: float

    def __post_init__(self) -> None:
        for item in fields(self):
            check_range(item.name, getattr(self, item.name), at_least=0.0)

    def scaled(self, multiplier: float) -> "FaultRates":
        """Uniformly scaled rates (the 1x/2x/4x sweeps).

        >>> DEFAULT_FIT_RATES.scaled(float("nan"))
        Traceback (most recent call last):
        ...
        repro.util.fields.FieldError: multiplier: must be finite, got nan
        """
        check_range("multiplier", multiplier, above=0.0)
        return FaultRates(
            bit=self.bit * multiplier,
            row=self.row * multiplier,
            column=self.column * multiplier,
            bank=self.bank * multiplier,
            device=self.device * multiplier,
            lane=self.lane * multiplier,
        )

    def fit_of(self, fault_type: FaultType) -> float:
        """FIT rate of one fault type."""
        return {
            FaultType.BIT: self.bit,
            FaultType.ROW: self.row,
            FaultType.COLUMN: self.column,
            FaultType.BANK: self.bank,
            FaultType.DEVICE: self.device,
            FaultType.LANE: self.lane,
        }[fault_type]


#: Sridharan-Liberty SC'12 DDR2 per-device rates (approximate transcription).
DEFAULT_FIT_RATES = FaultRates(
    bit=18.6,
    row=8.2,
    column=5.6,
    bank=10.0,
    device=1.4,
    lane=2.4,
)

#: Fault types that corrupt at most one symbol per codeword yet cover a
#: whole device's worth of circuitry — the inputs to the Chapter 6
#: reliability models (a BIT fault affects a single codeword and is
#: handled separately there).
DEVICE_LEVEL_TYPES = (
    FaultType.ROW,
    FaultType.COLUMN,
    FaultType.BANK,
    FaultType.DEVICE,
    FaultType.LANE,
)
