"""The halved-symbol upgraded-line design (Section 4.1, second variant).

Figure 4.1 shows the first design: an upgraded 128B line keeps 8-bit
symbols and the same four codewords per line. The alternative "reduces the
size of each symbol by half and, as a result, doubles the number of
codewords per upgraded line" — eight codewords of 4-bit symbols. The paper
keeps both because different symbol sizes suit different EDAC controllers.

A 36-symbol codeword cannot be an MDS RS code over GF(16) (length > 15),
so — as real controllers do — the 4-bit symbols are handled by *nibble
interleaving*: the even nibbles of the devices form one shortened GF(256)
RS(36,32) codeword and the odd nibbles another, giving eight logical
4-bit-symbol codewords per line backed by pairs of interleaved decoders.
A whole-device failure corrupts at most one 8-bit symbol in each backing
codeword, so the chipkill guarantee is preserved exactly. The interleaving
is this reproduction's substitution: Section 4.1 does not say which code
backs the 4-bit symbols.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ecc.base import CodecError, DecodeResult
from repro.ecc.chipkill import ChipkillCodec, make_upgraded_codec


class HalfSymbolUpgradedCodec:
    """Upgraded 128B lines with 4-bit logical symbols.

    Encodes into ``codewords_per_line = 8`` logical codewords of 36
    nibbles each; internally each adjacent pair of logical codewords is
    one GF(256) RS(36,32) codeword whose byte symbols carry (even nibble,
    odd nibble).
    """

    LINE_BYTES = 128
    DEVICES = 36
    LOGICAL_CODEWORDS = 8

    def __init__(self) -> None:
        self._backing: ChipkillCodec = make_upgraded_codec()

    # -- nibble <-> byte views --------------------------------------------------

    @staticmethod
    def _split_nibbles(codeword: Sequence[int]) -> List[List[int]]:
        """One byte codeword -> [even-nibble codeword, odd-nibble codeword]."""
        high = [(s >> 4) & 0xF for s in codeword]
        low = [s & 0xF for s in codeword]
        return [high, low]

    @staticmethod
    def _join_nibbles(high: Sequence[int], low: Sequence[int]) -> List[int]:
        if len(high) != len(low):
            raise CodecError("nibble codewords must pair evenly")
        return [((h & 0xF) << 4) | (l & 0xF) for h, l in zip(high, low)]

    # -- public API ---------------------------------------------------------------

    @property
    def codewords_per_line(self) -> int:
        """Eight logical 4-bit-symbol codewords (double the first design)."""
        return self.LOGICAL_CODEWORDS

    def encode_line(self, data: bytes) -> List[List[int]]:
        """Encode a 128B line into eight 36-nibble logical codewords."""
        if len(data) != self.LINE_BYTES:
            raise CodecError("half-symbol design encodes 128B lines")
        logical: List[List[int]] = []
        for byte_codeword in self._backing.encode_line(data):
            logical.extend(self._split_nibbles(byte_codeword))
        return logical

    def decode_line(
        self,
        logical_codewords: Sequence[Sequence[int]],
        erasures: Sequence[int] = (),
    ) -> DecodeResult:
        """Decode eight logical codewords back to 128B."""
        if len(logical_codewords) != self.LOGICAL_CODEWORDS:
            raise CodecError(
                f"expected {self.LOGICAL_CODEWORDS} logical codewords"
            )
        byte_codewords = []
        for i in range(0, self.LOGICAL_CODEWORDS, 2):
            byte_codewords.append(
                self._join_nibbles(
                    logical_codewords[i], logical_codewords[i + 1]
                )
            )
        return self._backing.decode_line(byte_codewords, erasures=erasures)

    def corrupt_device(
        self,
        logical_codewords: Sequence[Sequence[int]],
        device: int,
        pattern: int = 0xF,
    ) -> List[List[int]]:
        """XOR-corrupt every nibble device ``device`` contributes."""
        if not 0 <= device < self.DEVICES:
            raise CodecError(f"device {device} out of range")
        out = [list(cw) for cw in logical_codewords]
        for cw in out:
            cw[device] ^= pattern & 0xF
        return out
