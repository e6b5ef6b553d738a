"""Tests for the half-symbol upgraded design and trace statistics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.base import CodecError, DecodeStatus
from repro.ecc.interleave import HalfSymbolUpgradedCodec
from repro.util.rng import make_rng
from repro.workloads.spec import BENCHMARKS
from repro.workloads.stats import measure_trace, validate_against_profile
from repro.workloads.trace import CoreTrace, TraceAccess


def random_line(n=128, seed=0):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


class TestHalfSymbolDesign:
    def test_eight_codewords_per_line(self):
        """Section 4.1: halving the symbol size doubles the codewords."""
        codec = HalfSymbolUpgradedCodec()
        logical = codec.encode_line(random_line(seed=1))
        assert len(logical) == 8
        assert codec.codewords_per_line == 8

    def test_symbols_are_nibbles(self):
        codec = HalfSymbolUpgradedCodec()
        logical = codec.encode_line(random_line(seed=2))
        assert all(0 <= s <= 0xF for cw in logical for s in cw)
        assert all(len(cw) == 36 for cw in logical)

    def test_clean_roundtrip(self):
        codec = HalfSymbolUpgradedCodec()
        data = random_line(seed=3)
        result = codec.decode_line(codec.encode_line(data))
        assert result.status == DecodeStatus.NO_ERROR
        assert result.data == data

    def test_single_device_failure_corrected(self):
        codec = HalfSymbolUpgradedCodec()
        data = random_line(seed=4)
        logical = codec.encode_line(data)
        for device in (0, 17, 35):
            corrupted = codec.corrupt_device(logical, device, 0xA)
            result = codec.decode_line(corrupted)
            assert result.status == DecodeStatus.CORRECTED
            assert result.data == data

    def test_double_device_detected(self):
        codec = HalfSymbolUpgradedCodec()
        logical = codec.encode_line(random_line(seed=5))
        corrupted = codec.corrupt_device(
            codec.corrupt_device(logical, 2, 0x5), 30, 0x9
        )
        assert codec.decode_line(corrupted).status == (
            DecodeStatus.DETECTED_UE
        )

    def test_erasure_decode(self):
        codec = HalfSymbolUpgradedCodec()
        data = random_line(seed=6)
        corrupted = codec.corrupt_device(codec.encode_line(data), 7, 0xF)
        result = codec.decode_line(corrupted, erasures=[7])
        assert result.ok and result.data == data

    def test_shape_errors_rejected(self):
        codec = HalfSymbolUpgradedCodec()
        with pytest.raises(CodecError):
            codec.encode_line(bytes(64))
        with pytest.raises(CodecError):
            codec.decode_line([[0] * 36] * 7)
        with pytest.raises(CodecError):
            codec.corrupt_device([[0] * 36] * 8, 36)

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=128, max_size=128), st.integers(0, 35),
           st.integers(1, 15))
    def test_chipkill_property(self, data, device, pattern):
        """The chipkill guarantee survives the symbol-size change —
        exactly the flexibility claim of Section 4.1."""
        codec = HalfSymbolUpgradedCodec()
        corrupted = codec.corrupt_device(
            codec.encode_line(data), device, pattern
        )
        result = codec.decode_line(corrupted)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == data


class TestTraceStatistics:
    def _stream(self, name, n=4000, seed=1):
        trace = CoreTrace(BENCHMARKS[name], 0, make_rng(seed))
        return (next(trace) for _ in range(n))

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            measure_trace([])

    def test_limit_respected(self):
        stats = measure_trace(self._stream("swim"), limit=100)
        assert stats.accesses == 100

    def test_sequential_fraction_tracks_profile(self):
        for name in ("libquantum", "swim", "omnetpp"):
            stats = measure_trace(self._stream(name))
            assert abs(
                stats.sequential_fraction
                - BENCHMARKS[name].spatial_locality
            ) < 0.08, name

    def test_write_fraction_tracks_profile(self):
        stats = measure_trace(self._stream("lbm"))
        expected = 1.0 - BENCHMARKS["lbm"].read_fraction
        assert abs(stats.write_fraction - expected) < 0.05

    def test_intensity_tracks_profile(self):
        stats = measure_trace(self._stream("mcf2006", n=6000))
        assert abs(
            stats.effective_mpki - BENCHMARKS["mcf2006"].llc_mpki
        ) < 0.25 * BENCHMARKS["mcf2006"].llc_mpki

    def test_every_profile_validates(self):
        """The substitution-honesty check: every benchmark's generator
        reproduces its own declared statistics."""
        for name, profile in BENCHMARKS.items():
            stats = measure_trace(self._stream(name, n=5000, seed=7))
            assert validate_against_profile(stats, profile), name

    def test_footprint_measured(self):
        stats = measure_trace(self._stream("mesa", n=3000))
        assert 0 < stats.unique_pages <= BENCHMARKS["mesa"].footprint_pages

    def test_handmade_trace(self):
        accesses = [
            TraceAccess(line_address=i, is_write=(i % 2 == 0),
                        instructions_since_last=10)
            for i in range(10)
        ]
        stats = measure_trace(accesses)
        assert stats.sequential_fraction == 1.0
        assert stats.write_fraction == 0.5
        assert stats.effective_mpki == pytest.approx(100.0)

