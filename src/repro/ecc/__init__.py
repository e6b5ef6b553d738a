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
