"""Hypothesis property tests on the system's core invariants.

These cut across modules: the codeword/storage/scrubber pipeline must
uphold the paper's guarantees for *any* data and *any* single-device
failure, not just the examples the unit tests pick.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modes import ProtectionMode
from repro.core.storage import codec_for_mode, symbol_home
from repro.ecc.base import DecodeStatus
from repro.ecc.checksum import verify_checksum
from repro.ecc.chipkill import make_relaxed_codec, make_upgraded_codec
from repro.ecc.lotecc import LotEcc9
from repro.ecc.secded import Secded7264
from repro.ecc.sparing import DoubleChipSparing
from repro.ecc.vecc import Vecc

MODES = list(ProtectionMode)


class TestCodewordInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(MODES),
        st.data(),
    )
    def test_any_line_roundtrips_in_any_mode(self, mode, data):
        codec = codec_for_mode(mode)
        payload = data.draw(
            st.binary(min_size=mode.line_bytes, max_size=mode.line_bytes)
        )
        result = codec.decode_line(codec.encode_line(payload))
        assert result.status == DecodeStatus.NO_ERROR
        assert result.data == payload

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(MODES),
        st.data(),
    )
    def test_any_single_device_failure_corrected(self, mode, data):
        """The chipkill guarantee holds in every protection mode."""
        codec = codec_for_mode(mode)
        payload = data.draw(
            st.binary(min_size=mode.line_bytes, max_size=mode.line_bytes)
        )
        device = data.draw(st.integers(0, codec.devices - 1))
        pattern = data.draw(st.integers(1, 255))
        corrupted = codec.corrupt_device(
            codec.encode_line(payload), device, pattern
        )
        result = codec.decode_line(corrupted)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == payload

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_upgraded_detects_any_two_device_failure(self, data):
        """Double detection — the property ARCC pays 36 devices for."""
        codec = make_upgraded_codec()
        payload = data.draw(st.binary(min_size=128, max_size=128))
        d1 = data.draw(st.integers(0, 35))
        d2 = data.draw(st.integers(0, 35).filter(lambda d: d != d1))
        p1 = data.draw(st.integers(1, 255))
        p2 = data.draw(st.integers(1, 255))
        corrupted = codec.corrupt_device(
            codec.corrupt_device(codec.encode_line(payload), d1, p1), d2, p2
        )
        result = codec.decode_line(corrupted)
        assert result.status == DecodeStatus.DETECTED_UE

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_relaxed_never_returns_wrong_data_for_single_fault(self, data):
        """Single-fault safety: relaxed mode either corrects exactly or
        the oracle comparison would flag it — never a silent wrong
        answer for one device."""
        codec = make_relaxed_codec()
        payload = data.draw(st.binary(min_size=64, max_size=64))
        device = data.draw(st.integers(0, 17))
        pattern = data.draw(st.integers(1, 255))
        corrupted = codec.corrupt_device(
            codec.encode_line(payload), device, pattern
        )
        result = codec.decode_line(corrupted)
        assert result.ok and result.data == payload


class TestSymbolHomeInvariants:
    @given(st.sampled_from(MODES))
    def test_placement_is_bijective(self, mode):
        """Every codeword symbol gets a unique (sub-line, device) slot —
        no two symbols of a codeword share a device (the chipkill layout
        rule of Figure 2.1)."""
        homes = [
            symbol_home(mode, s)
            for s in range(mode.geometry.total_symbols)
        ]
        assert len(set(homes)) == len(homes)

    @given(st.sampled_from(MODES))
    def test_constant_storage_per_subline(self, mode):
        """Each sub-line stores 18 symbols per codeword in every mode —
        the constant-overhead invariant of Section 4.1."""
        from collections import Counter

        counts = Counter(
            symbol_home(mode, s)[0]
            for s in range(mode.geometry.total_symbols)
        )
        assert all(count == 18 for count in counts.values())
        assert len(counts) == mode.span


class TestOtherCodecs:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, (1 << 64) - 1), st.integers(0, 71),
           st.integers(0, 71))
    def test_secded_never_miscorrects_double(self, word, b1, b2):
        codec = Secded7264()
        cw = codec.encode(word)
        if b1 == b2:
            return
        result = codec.decode(cw ^ (1 << b1) ^ (1 << b2))
        assert result.status == DecodeStatus.DETECTED_UE

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=64, max_size=64), st.integers(0, 7))
    def test_lotecc_corrects_any_full_device_flip(self, payload, device):
        """Tier 1 localizes a full-device flip unless the checksum aliases.

        One's-complement arithmetic has two zero representations, so a
        slice whose sum is ±0 keeps a matching checksum under a full
        bit-flip — LOT-ECC's documented detection gap (the corruption
        surfaces as SDC in oracle-checked simulations). Every other flip
        must be localized and rebuilt exactly.
        """
        codec = LotEcc9()
        line = codec.encode_line(payload)
        bad = copy.deepcopy(line)
        flipped = bytes(b ^ 0xFF for b in bad.segments[device])
        bad.segments[device] = flipped
        result = codec.decode_line(bad)
        if verify_checksum(flipped, line.checksums[device]):
            assert result.status == DecodeStatus.NO_ERROR
            assert result.data != payload  # honest aliasing: silent SDC
        else:
            assert result.status == DecodeStatus.CORRECTED
            assert result.data == payload

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=64, max_size=64), st.integers(0, 17),
           st.integers(1, 255))
    def test_vecc_slow_path_always_corrects_one_device(
        self, payload, device, pattern
    ):
        vecc = Vecc()
        rank, corr = vecc.encode_line(payload)
        bad = [list(cw) for cw in rank]
        for cw in bad:
            cw[device] ^= pattern
        result, _ = vecc.decode_line(bad, corr)
        assert result.ok and result.data == payload

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=64, max_size=64), st.integers(0, 34),
           st.integers(1, 255))
    def test_sparing_corrects_any_single_device(
        self, payload, device, pattern
    ):
        sparing = DoubleChipSparing()
        cws = sparing.encode_line(payload)
        bad = [list(cw) for cw in cws]
        for cw in bad:
            cw[device] ^= pattern
        result = sparing.decode_line(bad)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == payload
