"""Unit + property tests for the Reed-Solomon codec.

These exercise exactly the code points the paper's codecs use: RS(18,16)
(relaxed), RS(36,32) (upgraded / SCCDCD), RS(72,64) (double-upgraded).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.base import CodecError, DecodeStatus
from repro.ecc.reed_solomon import ReedSolomonCode
from repro.gf.field import GF

PAPER_CODES = [(18, 16), (36, 32), (72, 64)]


@pytest.fixture(params=PAPER_CODES, ids=lambda nk: f"RS({nk[0]},{nk[1]})")
def code(request):
    n, k = request.param
    return ReedSolomonCode(n, k)


def _random_message(k, rng):
    return [rng.randrange(256) for _ in range(k)]


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(CodecError):
            ReedSolomonCode(10, 10)
        with pytest.raises(CodecError):
            ReedSolomonCode(10, 0)

    def test_length_exceeds_field(self):
        with pytest.raises(CodecError):
            ReedSolomonCode(16, 8, field=GF(4))  # max length 15 over GF(16)

    def test_generator_degree(self):
        rs = ReedSolomonCode(36, 32)
        assert rs.generator.degree == 4

    def test_repr(self):
        assert "RS" in repr(ReedSolomonCode(18, 16)) or "ReedSolomon" in repr(
            ReedSolomonCode(18, 16)
        )


class TestEncode:
    def test_systematic(self, code):
        rng = random.Random(1)
        msg = _random_message(code.k, rng)
        cw = code.encode(msg)
        assert cw[: code.k] == msg
        assert len(cw) == code.n

    def test_codeword_valid(self, code):
        rng = random.Random(2)
        cw = code.encode(_random_message(code.k, rng))
        assert code.is_codeword(cw)
        assert all(s == 0 for s in code.syndromes(cw))

    def test_zero_message(self, code):
        cw = code.encode([0] * code.k)
        assert cw == [0] * code.n

    def test_wrong_length_rejected(self, code):
        with pytest.raises(CodecError):
            code.encode([0] * (code.k - 1))

    def test_invalid_symbol_rejected(self, code):
        with pytest.raises(CodecError):
            code.encode([256] + [0] * (code.k - 1))

    def test_linear(self, code):
        """RS codes are linear: encode(a^b) == encode(a)^encode(b)."""
        rng = random.Random(3)
        a = _random_message(code.k, rng)
        b = _random_message(code.k, rng)
        xor = [x ^ y for x, y in zip(a, b)]
        cw_xor = code.encode(xor)
        cw_a, cw_b = code.encode(a), code.encode(b)
        assert cw_xor == [x ^ y for x, y in zip(cw_a, cw_b)]


class TestDecodeErrors:
    def test_clean_decode(self, code):
        rng = random.Random(4)
        msg = _random_message(code.k, rng)
        result = code.decode(code.encode(msg))
        assert result.status == DecodeStatus.NO_ERROR
        assert list(result.data) == msg

    def test_corrects_up_to_t_errors(self, code):
        rng = random.Random(5)
        t = (code.n - code.k) // 2
        for n_errors in range(1, t + 1):
            msg = _random_message(code.k, rng)
            cw = code.encode(msg)
            rx = list(cw)
            positions = rng.sample(range(code.n), n_errors)
            for p in positions:
                rx[p] ^= rng.randrange(1, 256)
            result = code.decode(rx)
            assert result.status == DecodeStatus.CORRECTED
            assert sorted(result.error_positions) == sorted(positions)
            assert result.codeword == cw

    def test_detects_t_plus_one_errors(self, code):
        rng = random.Random(6)
        t = (code.n - code.k) // 2
        detected = 0
        trials = 40
        for _ in range(trials):
            cw = code.encode(_random_message(code.k, rng))
            rx = list(cw)
            for p in rng.sample(range(code.n), t + 1):
                rx[p] ^= rng.randrange(1, 256)
            if code.decode(rx).status == DecodeStatus.DETECTED_UE:
                detected += 1
        # t+1 errors exceed the radius; with the syndrome re-check nearly
        # every trial must be flagged (miscorrection needs the corrupted
        # word to land inside another codeword's radius).
        assert detected >= trials - 2

    def test_correct_limit_policy(self):
        """SCCDCD's correct-1/detect-2: two errors flagged, never fixed."""
        rng = random.Random(7)
        rs = ReedSolomonCode(36, 32)
        cw = rs.encode(_random_message(32, rng))
        rx = list(cw)
        rx[0] ^= 0x11
        rx[9] ^= 0x22
        assert rs.decode(rx, correct_limit=1).status == (
            DecodeStatus.DETECTED_UE
        )
        # The same double is *correctable* without the policy cap.
        assert rs.decode(rx).status == DecodeStatus.CORRECTED

    def test_wrong_length_rejected(self, code):
        with pytest.raises(CodecError):
            code.decode([0] * (code.n + 1))


class TestDecodeErasures:
    def test_full_erasure_budget(self, code):
        rng = random.Random(8)
        msg = _random_message(code.k, rng)
        cw = code.encode(msg)
        erasures = rng.sample(range(code.n), code.n - code.k)
        rx = list(cw)
        for p in erasures:
            rx[p] ^= rng.randrange(1, 256)
        result = code.decode(rx, erasures=erasures)
        assert result.ok and result.codeword == cw

    def test_erased_but_correct_symbols(self, code):
        """Erasing healthy symbols must not corrupt anything."""
        rng = random.Random(9)
        cw = code.encode(_random_message(code.k, rng))
        result = code.decode(cw, erasures=[0, 1])
        assert result.ok and result.codeword == cw

    def test_mixed_errors_and_erasures(self):
        rng = random.Random(10)
        rs = ReedSolomonCode(36, 32)  # distance 5: 2 erasures + 1 error
        cw = rs.encode(_random_message(32, rng))
        rx = list(cw)
        rx[3] ^= 0x40  # erased and wrong
        rx[20] ^= 0x99  # unknown error
        result = rs.decode(rx, erasures=[3])
        assert result.status == DecodeStatus.CORRECTED
        assert result.codeword == cw

    def test_too_many_erasures(self, code):
        erasures = list(range(code.n - code.k + 1))
        result = code.decode([0] * code.n, erasures=erasures)
        assert result.status == DecodeStatus.DETECTED_UE

    def test_invalid_erasure_position(self, code):
        with pytest.raises(CodecError):
            code.decode([0] * code.n, erasures=[code.n])


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_roundtrip_any_error_pattern(self, data):
        rs = ReedSolomonCode(18, 16)
        msg = data.draw(
            st.lists(
                st.integers(0, 255), min_size=16, max_size=16
            )
        )
        cw = rs.encode(msg)
        pos = data.draw(st.integers(0, 17))
        flip = data.draw(st.integers(1, 255))
        rx = list(cw)
        rx[pos] ^= flip
        result = rs.decode(rx)
        assert result.status == DecodeStatus.CORRECTED
        assert result.codeword == cw

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 255), min_size=32, max_size=32),
        st.integers(0, 35),
        st.integers(1, 255),
    )
    def test_single_symbol_chipkill_guarantee(self, msg, pos, flip):
        """The chipkill promise: any single-symbol error is corrected."""
        rs = ReedSolomonCode(36, 32)
        cw = rs.encode(msg)
        rx = list(cw)
        rx[pos] ^= flip
        result = rs.decode(rx, correct_limit=1)
        assert result.status == DecodeStatus.CORRECTED
        assert result.codeword == cw
