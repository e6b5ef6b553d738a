"""Tests for double chip sparing, LOT-ECC and VECC codecs."""

import copy
import random

import pytest

from repro.ecc.base import CodecError, DecodeStatus
from repro.ecc.lotecc import LotEcc9, LotEcc18
from repro.ecc.sparing import DoubleChipSparing
from repro.ecc.vecc import Vecc


def random_line(size=64, seed=0):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(size))


def corrupt_device(codewords, device, pattern=0x3C):
    out = [list(cw) for cw in codewords]
    for cw in out:
        cw[device] ^= pattern
    return out


class TestDoubleChipSparing:
    def test_geometry(self):
        sp = DoubleChipSparing()
        assert sp.devices == 36 and sp.data_devices == 32
        assert sp.check_devices == 3  # the efficient encoding of Ch. 2
        assert sp.spare_device == 35

    def test_too_few_redundant_rejected(self):
        with pytest.raises(CodecError):
            DoubleChipSparing(devices=33, data_devices=32)

    def test_clean_roundtrip(self):
        sp = DoubleChipSparing()
        data = random_line(seed=1)
        result = sp.decode_line(sp.encode_line(data))
        assert result.status == DecodeStatus.NO_ERROR
        assert result.data == data

    def test_single_device_corrected(self):
        sp = DoubleChipSparing()
        data = random_line(seed=2)
        corrupted = corrupt_device(sp.encode_line(data), 5)
        result = sp.decode_line(corrupted)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == data

    def test_simultaneous_double_detected_not_corrected(self):
        """The ordering condition of Chapter 2: two bad devices at once
        exceed the code."""
        sp = DoubleChipSparing()
        corrupted = corrupt_device(
            corrupt_device(sp.encode_line(random_line(seed=3)), 5), 11
        )
        assert sp.decode_line(corrupted).status == DecodeStatus.DETECTED_UE

    def test_sequential_double_corrected_via_spare(self):
        """Detect -> remap -> absorb the second failure."""
        sp = DoubleChipSparing()
        data = random_line(seed=4)
        cws = sp.encode_line(data)
        faulty = corrupt_device(cws, 5)
        assert sp.decode_line(faulty).status == DecodeStatus.CORRECTED
        # Remap using the *corrected* content (re-encode then remap).
        remapped = sp.remap(5, sp.encode_line(data))
        assert sp.can_absorb_second_fault
        # Device 5 keeps failing AND device 11 dies too.
        double = corrupt_device(corrupt_device(remapped, 5), 11)
        result = sp.decode_line(double)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == data

    def test_spare_single_use(self):
        sp = DoubleChipSparing()
        cws = sp.encode_line(random_line(seed=5))
        sp.remap(3, cws)
        with pytest.raises(CodecError):
            sp.remap(4, cws)
        sp.reset()
        assert not sp.can_absorb_second_fault

    def test_cannot_remap_spare_itself(self):
        sp = DoubleChipSparing()
        with pytest.raises(CodecError):
            sp.remap(35, sp.encode_line(bytes(64)))

    def test_wrong_codeword_count(self):
        sp = DoubleChipSparing()
        with pytest.raises(CodecError):
            sp.decode_line([[0] * 36])

    def test_wrong_symbol_count_rejected(self):
        sp = DoubleChipSparing()
        cws = sp.encode_line(random_line(seed=16))
        with pytest.raises(CodecError):
            sp.decode_line([cw[:-1] for cw in cws])

    def test_wrong_line_size_rejected(self):
        with pytest.raises(CodecError):
            DoubleChipSparing().encode_line(bytes(63))

    def test_line_must_stripe_evenly(self):
        # 60B = 480 bits does not fill whole 32-device x 8-bit codewords.
        with pytest.raises(CodecError):
            DoubleChipSparing(line_bytes=60)


class TestLotEcc9:
    def test_geometry(self):
        codec = LotEcc9()
        assert codec.devices == 9 and codec.data_devices == 8
        assert codec.segment_bytes == 8
        assert codec.writes_per_write == 2  # the extra tier-2 write

    def test_clean_roundtrip(self):
        codec = LotEcc9()
        data = random_line(seed=6)
        line = codec.encode_line(data)
        result = codec.decode_line(line)
        assert result.status == DecodeStatus.NO_ERROR
        assert result.data == data

    def test_wrong_size_rejected(self):
        with pytest.raises(CodecError):
            LotEcc9().encode_line(bytes(65))

    def test_single_device_corrected(self):
        codec = LotEcc9()
        data = random_line(seed=7)
        line = codec.encode_line(data)
        for device in range(8):
            bad = copy.deepcopy(line)
            bad.segments[device] = bytes(
                b ^ 0x0F for b in bad.segments[device]
            )
            result = codec.decode_line(bad)
            assert result.status == DecodeStatus.CORRECTED
            assert result.data == data
            assert result.error_positions == (device,)

    def test_double_device_detected(self):
        codec = LotEcc9()
        bad = copy.deepcopy(codec.encode_line(random_line(seed=8)))
        for device in (1, 6):
            bad.segments[device] = bytes(
                b ^ 0xFF for b in bad.segments[device]
            )
        assert codec.decode_line(bad).status == DecodeStatus.DETECTED_UE

    def test_checksum_aliasing_is_silent(self):
        """The weaker detection guarantee the paper calls out: a byte swap
        keeps the one's-complement checksum and the XOR parity can't see
        what tier 1 never localizes."""
        codec = LotEcc9()
        data = b"\x01\x02" + bytes(62)
        line = codec.encode_line(data)
        bad = copy.deepcopy(line)
        bad.segments[0] = b"\x02\x01" + bad.segments[0][2:]
        result = codec.decode_line(bad)
        assert result.status == DecodeStatus.NO_ERROR  # silent!
        assert result.data != data  # ...and wrong: an SDC

    def test_damaged_parity_detected_not_miscorrected(self):
        """One bad segment plus a bad tier-2 parity: reconstruction
        yields a segment that fails its own checksum, so the line is a
        DUE rather than a silent rebuild from corrupt parity."""
        codec = LotEcc9()
        bad = copy.deepcopy(codec.encode_line(random_line(seed=17)))
        bad.segments[2] = bytes(b ^ 0x0F for b in bad.segments[2])
        bad.parity = bytes(b ^ 0x01 for b in bad.parity)
        result = codec.decode_line(bad)
        assert result.status == DecodeStatus.DETECTED_UE
        assert result.data is None

    def test_line_must_slice_evenly(self):
        class OddLine(LotEcc9):
            line_bytes = 65

        with pytest.raises(CodecError):
            OddLine()


class TestLotEcc18:
    def test_geometry(self):
        codec = LotEcc18()
        assert codec.devices == 18 and codec.data_devices == 16
        assert codec.reads_per_read == 2  # checksum line in another line

    def test_roundtrip_and_correction(self):
        codec = LotEcc18()
        data = random_line(seed=9)
        line = codec.encode_line(data)
        assert codec.decode_line(line).data == data
        bad = copy.deepcopy(line)
        bad.segments[3] = bytes(b ^ 0xA0 for b in bad.segments[3])
        result = codec.decode_line(bad)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == data

    def test_remap_enables_second_fault(self):
        codec = LotEcc18()
        data = random_line(seed=10)
        line = codec.encode_line(data)
        bad = copy.deepcopy(line)
        bad.segments[3] = bytes(b ^ 0xA0 for b in bad.segments[3])
        remapped = codec.remap(3, bad)
        # A second device fails after the remap: still correctable.
        bad2 = copy.deepcopy(remapped)
        bad2.segments[7] = bytes(b ^ 0x55 for b in bad2.segments[7])
        result = codec.decode_line(bad2)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == data

    def test_spare_single_use(self):
        codec = LotEcc18()
        line = codec.encode_line(random_line(seed=18))
        codec.remap(3, line)
        codec.remap(3, line)  # the same device again keeps its spare
        with pytest.raises(CodecError):
            codec.remap(5, line)
        assert codec.spared_device == 3

    def test_remap_bad_device_rejected(self):
        codec = LotEcc18()
        with pytest.raises(CodecError):
            codec.remap(16, codec.encode_line(bytes(64)))

    def test_remap_uncorrectable_rejected(self):
        codec = LotEcc18()
        line = codec.encode_line(random_line(seed=11))
        for device in (0, 1):
            line.segments[device] = bytes(
                b ^ 0xFF for b in line.segments[device]
            )
        with pytest.raises(CodecError):
            codec.remap(0, line)


#: VECC's 18-device rank and ARCC's relaxed nine-device rank (Section 5.2).
VECC_GEOMETRIES = pytest.mark.parametrize(
    "geometry, rank_devices",
    [({}, 18), ({"data_devices": 8, "detect_checks": 1}, 9)],
    ids=["rs20_16", "rs11_8"],
)


class TestVecc:
    @VECC_GEOMETRIES
    def test_clean_fast_path(self, geometry, rank_devices):
        vecc = Vecc(**geometry)
        data = random_line(seed=12)
        rank, corr = vecc.encode_line(data)
        assert len(rank[0]) == rank_devices and len(corr[0]) == 2
        result = vecc.detect_line(rank)
        assert result.status == DecodeStatus.NO_ERROR
        assert result.data == data

    @VECC_GEOMETRIES
    def test_error_triggers_slow_path(self, geometry, rank_devices):
        """The fast path detects one bad symbol; the slow path corrects
        it through the virtualized symbols, at twice the rank's cost."""
        vecc = Vecc(**geometry)
        data = random_line(seed=13)
        rank, corr = vecc.encode_line(data)
        bad = corrupt_device(rank, 4, 0x77)
        assert vecc.detect_line(bad).status == DecodeStatus.DETECTED_UE
        result, accesses = vecc.decode_line(bad, corr)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == data
        assert accesses == vecc.devices_per_corrected_access == 2 * rank_devices

    def test_clean_read_cost(self):
        vecc = Vecc()
        rank, corr = vecc.encode_line(random_line(seed=14))
        _, accesses = vecc.decode_line(rank, corr)
        assert accesses == vecc.devices_per_clean_read == 18

    def test_double_device_corrected_on_slow_path(self):
        """VECC's four total check symbols provide double chipkill
        correct (Section 5.2)."""
        vecc = Vecc()
        data = random_line(seed=15)
        rank, corr = vecc.encode_line(data)
        bad = corrupt_device(corrupt_device(rank, 4, 0x77), 12, 0x31)
        result, _ = vecc.decode_line(bad, corr)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == data

    @VECC_GEOMETRIES
    def test_wrong_shapes_rejected(self, geometry, rank_devices):
        vecc = Vecc(**geometry)
        rank, corr = vecc.encode_line(bytes(64))
        with pytest.raises(CodecError):
            vecc.correct_line(rank, corr[:-1])
        with pytest.raises(CodecError):
            vecc.encode_line(bytes(63))

    def test_fast_path_rejects_wrong_rank_width(self):
        vecc = Vecc()
        rank, _ = vecc.encode_line(bytes(64))
        with pytest.raises(CodecError):
            vecc.detect_line([cw[:-1] for cw in rank])

    def test_slow_path_rejects_wrong_correction_width(self):
        vecc = Vecc()
        rank, corr = vecc.encode_line(bytes(64))
        with pytest.raises(CodecError):
            vecc.correct_line(rank, [c[:1] for c in corr])

    def test_line_must_stripe_evenly(self):
        with pytest.raises(CodecError):
            Vecc(line_bytes=60)
