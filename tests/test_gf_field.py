"""Unit + property tests for GF(2^m) arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gf.field import GF, GF256

elements256 = st.integers(min_value=0, max_value=255)
nonzero256 = st.integers(min_value=1, max_value=255)


class TestConstruction:
    def test_default_polynomials(self):
        for m in (2, 3, 4, 8, 16):
            field = GF(m)
            assert field.order == 1 << m

    def test_non_primitive_rejected(self):
        # x^8 + 1 is not primitive over GF(2).
        with pytest.raises(ValueError):
            GF(8, primitive_poly=0b100000001)

    def test_unsupported_size_rejected(self):
        with pytest.raises(ValueError):
            GF(1)
        with pytest.raises(ValueError):
            GF(17)

    @pytest.mark.parametrize("m", [5, 6, 7, 12])
    def test_no_default_polynomial(self, m):
        with pytest.raises(ValueError, match=f"m={m}"):
            GF(m)

    def test_explicit_polynomial_without_default(self):
        field = GF(5, primitive_poly=0b100101)  # x^5 + x^2 + 1
        assert field.order == 32
        assert {field.alpha_pow(i) for i in range(31)} == set(range(1, 32))

    def test_repr_names_size_and_polynomial(self):
        assert repr(GF(4)) == "GF(2^4, poly=0b10011)"

    def test_shared_instances(self):
        assert GF256.m == 8 and GF(4).m == 4

    def test_equality_and_hash(self):
        assert GF(8) == GF256
        assert hash(GF(8)) == hash(GF256)
        assert GF(4) != GF256


class TestBasicOps:
    def test_add_is_xor(self):
        assert GF256.add(0x53, 0xCA) == 0x53 ^ 0xCA

    def test_sub_equals_add(self):
        assert GF256.sub(7, 3) == GF256.add(7, 3)

    def test_mul_by_zero(self):
        assert GF256.mul(0, 0x55) == 0
        assert GF256.mul(0x55, 0) == 0

    def test_mul_by_one(self):
        for a in (1, 2, 0x53, 0xFF):
            assert GF256.mul(a, 1) == a

    def test_known_product_with_reduction(self):
        # 2 * 0x80 wraps: 0x100 ^ 0x11D = 0x1D with the RS polynomial.
        assert GF256.mul(2, 0x80) == 0x1D

    def test_div_inverse_of_mul(self):
        assert GF256.div(GF256.mul(0x37, 0x91), 0x91) == 0x37

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GF256.div(5, 0)

    def test_inv_zero(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GF256.mul(256, 1)
        with pytest.raises(ValueError):
            GF(4).add(16, 0)


class TestPow:
    def test_zero_powers(self):
        assert GF256.pow(0, 0) == 1
        assert GF256.pow(0, 5) == 0

    def test_zero_negative_power(self):
        with pytest.raises(ZeroDivisionError):
            GF256.pow(0, -1)

    def test_pow_matches_repeated_mul(self):
        acc = 1
        for e in range(10):
            assert GF256.pow(3, e) == acc
            acc = GF256.mul(acc, 3)

    def test_negative_power_is_inverse(self):
        for a in (1, 2, 0x80, 0xFF):
            assert GF256.pow(a, -1) == GF256.inv(a)

    def test_alpha_pow_cycles(self):
        assert GF256.alpha_pow(0) == 1
        assert GF256.alpha_pow(255) == GF256.alpha_pow(0)


class TestFieldAxioms:
    @given(elements256, elements256, elements256)
    def test_mul_associative(self, a, b, c):
        lhs = GF256.mul(GF256.mul(a, b), c)
        rhs = GF256.mul(a, GF256.mul(b, c))
        assert lhs == rhs

    @given(elements256, elements256)
    def test_mul_commutative(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(elements256, elements256, elements256)
    def test_distributive(self, a, b, c):
        lhs = GF256.mul(a, b ^ c)
        rhs = GF256.mul(a, b) ^ GF256.mul(a, c)
        assert lhs == rhs

    @given(nonzero256)
    def test_inverse_roundtrip(self, a):
        assert GF256.mul(a, GF256.inv(a)) == 1

    @given(nonzero256, nonzero256)
    def test_div_mul_roundtrip(self, a, b):
        assert GF256.mul(GF256.div(a, b), b) == a

    @given(nonzero256)
    def test_log_exp_roundtrip(self, a):
        assert GF256.alpha_pow(GF256.log(a)) == a

    def test_log_zero_rejected(self):
        with pytest.raises(ValueError):
            GF256.log(0)

    def test_multiplicative_group_order(self):
        """alpha generates all 255 non-zero elements."""
        seen = {GF256.alpha_pow(e) for e in range(255)}
        assert len(seen) == 255
        assert 0 not in seen


class TestGF16:
    @given(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=1, max_value=15),
    )
    def test_product_nonzero(self, a, b):
        assert GF(4).mul(a, b) != 0
