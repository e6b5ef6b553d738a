"""Common decode-result types shared by every codec.

A memory-side decode has four mutually exclusive outcomes, and the
reliability analysis of Chapter 6 hinges on the distinction between the
last two:

* ``NO_ERROR`` — syndromes clean.
* ``CORRECTED`` — errors found and repaired (a CE in RAS terms).
* ``DETECTED_UE`` — errors found but beyond correction capability; the
  system takes a machine check. This is a *DUE*.
* ``MISCORRECTED`` — the decoder returned data but it is wrong (only
  detectable by an oracle; tests and the Monte-Carlo reliability model use
  it to count *SDC* events).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class DecodeStatus(enum.Enum):
    """Outcome of one codeword decode."""

    NO_ERROR = "no_error"
    CORRECTED = "corrected"
    DETECTED_UE = "detected_ue"
    MISCORRECTED = "miscorrected"

    @property
    def is_usable(self) -> bool:
        """True when the decoder handed data back to the requester."""
        return self in (DecodeStatus.NO_ERROR, DecodeStatus.CORRECTED)


@dataclass
class DecodeResult:
    """Result of decoding one codeword (or one line of codewords).

    ``data`` is ``None`` exactly when ``status`` is ``DETECTED_UE``.
    ``error_positions`` lists the symbol indices the decoder corrected;
    for a ``DETECTED_UE`` it is empty (the decoder does not know where the
    errors are, only that there are too many).
    """

    status: DecodeStatus
    data: Optional[bytes] = None
    error_positions: Tuple[int, ...] = ()
    corrected_symbols: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        """True when usable data was produced."""
        return self.status.is_usable

    def merge(self, other: "DecodeResult") -> "DecodeResult":
        """Combine per-codeword results into a per-line result.

        The line-level status is the worst of the two: DETECTED_UE
        dominates, then MISCORRECTED, then CORRECTED.
        """
        severity = {
            DecodeStatus.NO_ERROR: 0,
            DecodeStatus.CORRECTED: 1,
            DecodeStatus.MISCORRECTED: 2,
            DecodeStatus.DETECTED_UE: 3,
        }
        worst = max(self.status, other.status, key=lambda s: severity[s])
        data: Optional[bytes]
        if worst == DecodeStatus.DETECTED_UE:
            data = None
        elif self.data is not None and other.data is not None:
            data = self.data + other.data
        else:
            data = None
        return DecodeResult(
            status=worst,
            data=data,
            error_positions=self.error_positions + other.error_positions,
            corrected_symbols=self.corrected_symbols + other.corrected_symbols,
            detail="; ".join(d for d in (self.detail, other.detail) if d),
        )


class CodecError(Exception):
    """Misuse of a codec API (bad lengths, invalid symbols, ...)."""
