"""Tests for the chipkill device-layout codecs (Figure 2.1 / 4.1)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.base import CodecError, DecodeResult, DecodeStatus
from repro.ecc.chipkill import (
    ChipkillCodec,
    make_double_upgraded_codec,
    make_relaxed_codec,
    make_sccdcd_codec,
    make_upgraded_codec,
)

FACTORIES = [
    (make_relaxed_codec, 64),
    (make_upgraded_codec, 128),
    (make_sccdcd_codec, 64),
    (make_double_upgraded_codec, 256),
]


@pytest.fixture(
    params=FACTORIES, ids=[f.__name__ for f, _ in FACTORIES]
)
def codec_and_size(request):
    factory, size = request.param
    return factory(), size


def random_line(size, seed=0):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(size))


class TestGeometry:
    def test_relaxed_geometry(self):
        ck = make_relaxed_codec()
        assert ck.devices == 18 and ck.data_devices == 16
        assert ck.codewords_per_line == 4  # Figure 4.1: four per 64B line
        assert ck.storage_overhead == pytest.approx(0.125)

    def test_upgraded_geometry(self):
        ck = make_upgraded_codec()
        assert ck.devices == 36 and ck.line_bytes == 128
        # Same codewords per line as relaxed (the paper's first design).
        assert ck.codewords_per_line == make_relaxed_codec().codewords_per_line
        assert ck.storage_overhead == pytest.approx(0.125)

    def test_sccdcd_geometry(self):
        ck = make_sccdcd_codec()
        assert ck.devices == 36 and ck.line_bytes == 64
        assert ck.codewords_per_line == 2  # two 8-bit symbols per x4 device
        assert ck.storage_overhead == pytest.approx(0.125)

    def test_double_upgraded_geometry(self):
        ck = make_double_upgraded_codec()
        assert ck.devices == 72
        assert ck.code.nroots == 8  # Section 5.1: eight check symbols

    def test_bad_striping_rejected(self):
        with pytest.raises(CodecError):
            ChipkillCodec(devices=18, data_devices=16, line_bytes=63)

    def test_symbol_field_mismatch_rejected(self):
        with pytest.raises(CodecError):
            ChipkillCodec(
                devices=18, data_devices=16, line_bytes=64, symbol_bits=4
            )


class TestRoundtrip:
    def test_clean_roundtrip(self, codec_and_size):
        codec, size = codec_and_size
        data = random_line(size, seed=11)
        result = codec.decode_line(codec.encode_line(data))
        assert result.status == DecodeStatus.NO_ERROR
        assert result.data == data

    def test_wrong_line_size_rejected(self, codec_and_size):
        codec, size = codec_and_size
        with pytest.raises(CodecError):
            codec.encode_line(bytes(size + 1))

    def test_wrong_codeword_count_rejected(self, codec_and_size):
        codec, size = codec_and_size
        cws = codec.encode_line(bytes(size))
        with pytest.raises(CodecError):
            codec.decode_line(cws[:-1])


class TestLineResult:
    """A line's result merges its codewords' results (``DecodeResult.merge``)."""

    @staticmethod
    def _result(status, data):
        usable = status != DecodeStatus.DETECTED_UE
        return DecodeResult(status=status, data=data if usable else None)

    @pytest.mark.parametrize(
        "a, b, worst",
        [
            ("NO_ERROR", "CORRECTED", "CORRECTED"),
            ("CORRECTED", "MISCORRECTED", "MISCORRECTED"),
            ("MISCORRECTED", "DETECTED_UE", "DETECTED_UE"),
            ("DETECTED_UE", "NO_ERROR", "DETECTED_UE"),
        ],
    )
    def test_worst_status_wins(self, a, b, worst):
        left = self._result(DecodeStatus[a], b"x")
        right = self._result(DecodeStatus[b], b"y")
        merged = left.merge(right)
        assert merged.status == DecodeStatus[worst]
        assert (merged.data is None) == (worst == "DETECTED_UE")
        assert right.merge(left).status == DecodeStatus[worst]

    def test_usable_parts_concatenate(self):
        merged = DecodeResult(
            status=DecodeStatus.CORRECTED, data=b"ab", error_positions=(3,),
            corrected_symbols=1, detail="first",
        ).merge(DecodeResult(
            status=DecodeStatus.NO_ERROR, data=b"cd", detail="",
        ))
        assert merged.data == b"abcd"
        assert merged.error_positions == (3,)
        assert merged.corrected_symbols == 1
        assert merged.detail == "first"

    def test_usable_part_without_data_gives_no_data(self):
        merged = DecodeResult(status=DecodeStatus.NO_ERROR, data=b"ab").merge(
            DecodeResult(status=DecodeStatus.NO_ERROR, data=None)
        )
        assert merged.status == DecodeStatus.NO_ERROR
        assert merged.data is None

    def test_line_counts_every_codeword_correction(self, codec_and_size):
        codec, size = codec_and_size
        data = random_line(size, seed=21)
        bad = codec.corrupt_device(
            codec.encode_line(data), device=2, pattern=0x41
        )
        result = codec.decode_line(bad)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == data
        assert result.corrected_symbols == codec.codewords_per_line
        assert result.error_positions == (2,) * codec.codewords_per_line


class TestChipkillGuarantee:
    def test_single_device_failure_corrected(self, codec_and_size):
        """The defining chipkill property: kill any one device, data
        survives."""
        codec, size = codec_and_size
        data = random_line(size, seed=13)
        cws = codec.encode_line(data)
        for device in range(0, codec.devices, 5):
            corrupted = codec.corrupt_device(cws, device, pattern=0xA5)
            result = codec.decode_line(corrupted)
            assert result.status == DecodeStatus.CORRECTED
            assert result.data == data
            assert all(p == device for p in result.error_positions)

    def test_double_device_detected_by_upgraded(self):
        """Upgraded mode's raison d'etre: detect the second bad device."""
        codec = make_upgraded_codec()
        cws = codec.encode_line(random_line(128, seed=14))
        corrupted = codec.corrupt_device(
            codec.corrupt_device(cws, 2, 0x11), 30, 0x22
        )
        assert codec.decode_line(corrupted).status == (
            DecodeStatus.DETECTED_UE
        )

    def test_double_device_detected_by_sccdcd(self):
        codec = make_sccdcd_codec()
        cws = codec.encode_line(random_line(64, seed=15))
        corrupted = codec.corrupt_device(
            codec.corrupt_device(cws, 0, 0x7F), 35, 0x80
        )
        assert codec.decode_line(corrupted).status == (
            DecodeStatus.DETECTED_UE
        )

    def test_relaxed_cannot_guarantee_double(self):
        """Relaxed mode (distance 3) cannot reliably handle two bad
        devices — the gap ARCC's scrub-and-upgrade closes."""
        codec = make_relaxed_codec()
        data = random_line(64, seed=16)
        cws = codec.encode_line(data)
        corrupted = codec.corrupt_device(
            codec.corrupt_device(cws, 1, 0x55), 9, 0xAA
        )
        result = codec.decode_line(corrupted)
        assert result.status != DecodeStatus.NO_ERROR
        # Either detected, or (the SDC case) silently wrong data.
        if result.ok:
            assert result.data != data

    def test_erasure_decode_of_known_bad_device(self, codec_and_size):
        codec, size = codec_and_size
        data = random_line(size, seed=17)
        corrupted = codec.corrupt_device(codec.encode_line(data), 7, 0xFF)
        result = codec.decode_line(corrupted, erasures=[7])
        assert result.ok and result.data == data

    def test_corrupt_device_out_of_range(self, codec_and_size):
        codec, size = codec_and_size
        cws = codec.encode_line(bytes(size))
        with pytest.raises(CodecError):
            codec.corrupt_device(cws, codec.devices)

    def test_double_upgraded_corrects_two_devices(self):
        """Section 5.1: eight check symbols absorb two bad devices."""
        codec = make_double_upgraded_codec()
        data = random_line(256, seed=18)
        cws = codec.encode_line(data)
        corrupted = codec.corrupt_device(
            codec.corrupt_device(cws, 3, 0x3C), 40, 0xC3
        )
        result = codec.decode_line(corrupted)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == data


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.binary(min_size=64, max_size=64),
        st.integers(0, 17),
        st.integers(1, 255),
    )
    def test_relaxed_single_device_property(self, data, device, pattern):
        codec = make_relaxed_codec()
        corrupted = codec.corrupt_device(
            codec.encode_line(data), device, pattern
        )
        result = codec.decode_line(corrupted)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == data

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=128, max_size=128))
    def test_upgraded_roundtrip_property(self, data):
        codec = make_upgraded_codec()
        result = codec.decode_line(codec.encode_line(data))
        assert result.data == data
