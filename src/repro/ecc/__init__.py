"""Error-correcting codes for chipkill memory.

Everything the paper touches is here:

* :mod:`repro.ecc.reed_solomon` — symbol-based RS codes with error and
  erasure decoding (the algebra behind SCCDCD and double chip sparing).
* :mod:`repro.ecc.secded` — the (72,64) SEC-DED Hamming baseline.
* :mod:`repro.ecc.chipkill` — codeword <-> device-layout mapping for the
  relaxed (18-device), upgraded (36-device) and double-upgraded (72-device)
  ARCC modes, plus the commercial SCCDCD baseline.
* :mod:`repro.ecc.sparing` — double chip sparing (detect, then remap to the
  spare symbol).
* :mod:`repro.ecc.lotecc` — LOT-ECC in the 9-device and 18-device
  configurations (one's-complement checksums + XOR parity tier).
* :mod:`repro.ecc.vecc` — VECC's tiered in-rank detection / virtualized
  correction symbols.
"""

from repro.ecc.base import (
    CodecError,
    DecodeResult,
    DecodeStatus,
)
from repro.ecc.chipkill import (
    ChipkillCodec,
    make_double_upgraded_codec,
    make_relaxed_codec,
    make_sccdcd_codec,
    make_upgraded_codec,
)
from repro.ecc.interleave import HalfSymbolUpgradedCodec
from repro.ecc.lotecc import LotEcc9, LotEcc18
from repro.ecc.reed_solomon import ReedSolomonCode
from repro.ecc.secded import Secded7264
from repro.ecc.sparing import DoubleChipSparing
from repro.ecc.vecc import Vecc

__all__ = [
    "ChipkillCodec",
    "CodecError",
    "DecodeResult",
    "DecodeStatus",
    "DoubleChipSparing",
    "HalfSymbolUpgradedCodec",
    "LotEcc18",
    "LotEcc9",
    "ReedSolomonCode",
    "Secded7264",
    "Vecc",
    "make_double_upgraded_codec",
    "make_relaxed_codec",
    "make_sccdcd_codec",
    "make_upgraded_codec",
]
