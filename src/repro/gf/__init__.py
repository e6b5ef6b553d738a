"""Galois-field arithmetic for symbol-based linear block codes.

Chipkill codecs operate over GF(2^b). ``GF256`` is the field of every
codec here; the halved-symbol design of Section 4.1 interleaves nibbles
over it (:mod:`repro.ecc.interleave`).
"""
