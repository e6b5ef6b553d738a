"""Tests for SECDED (72,64) and the LOT-ECC checksum primitives."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ecc.base import CodecError, DecodeStatus
from repro.ecc.checksum import (
    ones_complement_checksum,
    ones_complement_sum,
    reconstruct_segment,
    verify_checksum,
    xor_parity,
)
from repro.ecc.secded import Secded7264

words64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestSecdedEncode:
    def test_zero_word(self):
        s = Secded7264()
        assert s.encode(0) == 0

    def test_oversize_rejected(self):
        with pytest.raises(CodecError):
            Secded7264().encode(1 << 64)

    def test_extract_inverse_of_encode(self):
        s = Secded7264()
        for word in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
            assert s.extract(s.encode(word)) == word

    @given(words64)
    def test_clean_decode(self, word):
        s = Secded7264()
        result = s.decode(s.encode(word))
        assert result.status == DecodeStatus.NO_ERROR
        assert int.from_bytes(result.data, "big") == word


class TestSecdedCorrection:
    def test_every_single_bit_corrected(self):
        s = Secded7264()
        word = 0xA5A5_5A5A_DEAD_BEEF
        cw = s.encode(word)
        for bit in range(72):
            result = s.decode(cw ^ (1 << bit))
            assert result.status == DecodeStatus.CORRECTED
            assert int.from_bytes(result.data, "big") == word
            assert result.error_positions == (bit,)

    def test_double_bit_detected(self):
        s = Secded7264()
        cw = s.encode(0x0123_4567_89AB_CDEF)
        rng = random.Random(0)
        for _ in range(50):
            b1, b2 = rng.sample(range(72), 2)
            result = s.decode(cw ^ (1 << b1) ^ (1 << b2))
            assert result.status == DecodeStatus.DETECTED_UE

    def test_oversize_codeword_rejected(self):
        with pytest.raises(CodecError):
            Secded7264().decode(1 << 72)

    @given(words64, st.integers(0, 71))
    def test_single_bit_property(self, word, bit):
        s = Secded7264()
        result = s.decode(s.encode(word) ^ (1 << bit))
        assert result.status == DecodeStatus.CORRECTED
        assert int.from_bytes(result.data, "big") == word


class TestOnesComplement:
    def test_sum_simple(self):
        assert ones_complement_sum([1, 2, 3], width=8) == 6

    def test_end_around_carry(self):
        # 0xFF + 0x01 = 0x100 -> 0x00 + carry 1 -> 0x01
        assert ones_complement_sum([0xFF, 0x01], width=8) == 0x01

    def test_oversize_word_rejected(self):
        with pytest.raises(CodecError):
            ones_complement_sum([0x100], width=8)

    @pytest.mark.parametrize("width", [0, -8])
    def test_width_must_be_positive(self, width):
        with pytest.raises(CodecError):
            ones_complement_sum([1], width=width)

    @given(st.lists(st.integers(0, 0xFF), max_size=32), st.randoms())
    def test_sum_ignores_word_order(self, words, rng):
        """End-around carry makes the sum commutative, so a checksum
        cannot see two words trade places (the aliasing above)."""
        shuffled = list(words)
        rng.shuffle(shuffled)
        assert ones_complement_sum(shuffled) == ones_complement_sum(words)

    def test_checksum_verify_roundtrip(self):
        data = bytes(range(16))
        checksum = ones_complement_checksum(data)
        assert verify_checksum(data, checksum)

    def test_checksum_detects_single_byte_change(self):
        data = bytes(range(16))
        checksum = ones_complement_checksum(data)
        corrupted = bytes([data[0] ^ 0x01]) + data[1:]
        assert not verify_checksum(corrupted, checksum)

    def test_width_must_be_whole_bytes(self):
        with pytest.raises(CodecError):
            ones_complement_checksum(b"ab", width=12)

    def test_data_must_divide_into_words(self):
        with pytest.raises(CodecError):
            ones_complement_checksum(b"abc", width=16)

    def test_16bit_checksum(self):
        data = b"\x12\x34\x56\x78"
        checksum = ones_complement_checksum(data, width=16)
        assert verify_checksum(data, checksum, width=16)

    def test_known_aliasing_exists(self):
        """The paper's LOT-ECC caveat: checksums alias. Swapping two
        bytes preserves a one's-complement sum."""
        data = b"\x01\x02" + bytes(6)
        swapped = b"\x02\x01" + bytes(6)
        assert ones_complement_checksum(data) == ones_complement_checksum(
            swapped
        )

    @given(st.binary(min_size=8, max_size=64))
    def test_checksum_deterministic(self, data):
        assert ones_complement_checksum(data) == ones_complement_checksum(
            data
        )


class TestXorParity:
    def test_parity_of_identical_pair_is_zero(self):
        seg = bytes(range(8))
        assert xor_parity([seg, seg]) == bytes(8)

    def test_empty_rejected(self):
        with pytest.raises(CodecError):
            xor_parity([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(CodecError):
            xor_parity([b"ab", b"abc"])

    def test_reconstruct_any_segment(self):
        rng = random.Random(1)
        segments = [
            bytes(rng.randrange(256) for _ in range(8)) for _ in range(8)
        ]
        parity = xor_parity(segments)
        for missing in range(8):
            rebuilt = reconstruct_segment(segments, parity, missing)
            assert rebuilt == segments[missing]

    def test_reconstruct_bad_index(self):
        with pytest.raises(CodecError):
            reconstruct_segment([b"a"], b"a", 1)

    @given(
        st.lists(st.binary(min_size=4, max_size=4), min_size=2, max_size=9),
        st.data(),
    )
    def test_reconstruction_property(self, segments, data):
        parity = xor_parity(segments)
        missing = data.draw(st.integers(0, len(segments) - 1))
        assert reconstruct_segment(segments, parity, missing) == (
            segments[missing]
        )
