"""Unit + property tests for polynomials over GF(2^m)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gf.field import GF, GF256
from repro.gf.polynomial import Polynomial

coeff_lists = st.lists(
    st.integers(min_value=0, max_value=255), min_size=1, max_size=12
)


def poly(coeffs):
    return Polynomial(GF256, coeffs)


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        assert poly([1, 2, 0, 0]).coeffs == [1, 2]

    def test_zero_polynomial(self):
        z = Polynomial.zero(GF256)
        assert z.is_zero() and z.degree == -1

    def test_no_coefficients_is_zero(self):
        assert Polynomial(GF256, []) == Polynomial.zero(GF256)

    def test_one(self):
        one = Polynomial.one(GF256)
        assert one.degree == 0 and one.coeffs == [1]

    def test_invalid_coefficient(self):
        with pytest.raises(ValueError):
            poly([256])

    def test_getitem_out_of_range_is_zero(self):
        assert poly([1, 2])[10] == 0


class TestArithmetic:
    def test_add_is_coefficientwise_xor(self):
        assert (poly([1, 2]) + poly([3, 0, 7])).coeffs == [2, 2, 7]

    def test_add_self_is_zero(self):
        p = poly([5, 6, 7])
        assert (p + p).is_zero()

    def test_mul_by_zero(self):
        assert (poly([1, 2]) * Polynomial.zero(GF256)).is_zero()

    def test_mul_degree_adds(self):
        p, q = poly([1, 1]), poly([1, 0, 1])
        assert (p * q).degree == p.degree + q.degree

    def test_scale(self):
        assert poly([1, 2]).scale(2).coeffs == [2, 4]

    def test_shift(self):
        assert poly([1]).shift(3).coeffs == [0, 0, 0, 1]

    def test_shift_negative(self):
        with pytest.raises(ValueError):
            poly([1]).shift(-1)

    def test_cross_field_rejected(self):
        with pytest.raises(ValueError):
            poly([1]) + Polynomial(GF(4), [1])


class TestDivision:
    def test_divmod_identity(self):
        a = poly([5, 3, 1, 7])
        b = poly([2, 1])
        q, r = a.divmod(b)
        assert (q * b + r).coeffs == a.coeffs
        assert r.degree < b.degree

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly([1]).divmod(Polynomial.zero(GF256))

    def test_exact_division(self):
        b = poly([3, 1])
        product = b * poly([7, 2, 1])
        q, r = product.divmod(b)
        assert r.is_zero()
        assert q.coeffs == [7, 2, 1]

    @given(coeff_lists, coeff_lists)
    def test_divmod_property(self, a_coeffs, b_coeffs):
        a, b = poly(a_coeffs), poly(b_coeffs)
        if b.is_zero():
            return
        q, r = a.divmod(b)
        assert (q * b + r) == a
        assert r.is_zero() or r.degree < b.degree


    @given(coeff_lists, coeff_lists)
    def test_floordiv_and_mod_match_divmod(self, a_coeffs, b_coeffs):
        a, b = poly(a_coeffs), poly(b_coeffs)
        if b.is_zero():
            return
        assert (a // b, a % b) == a.divmod(b)


class TestEvaluation:
    def test_eval_constant(self):
        assert poly([7]).eval(100) == 7

    def test_eval_at_zero_gives_constant_term(self):
        assert poly([9, 5, 3]).eval(0) == 9

    def test_from_roots_evaluates_to_zero(self):
        roots = [1, 2, 3, 7]
        p = Polynomial.from_roots(GF256, roots)
        assert p.degree == len(roots)
        for r in roots:
            assert p.eval(r) == 0

    def test_non_root_nonzero(self):
        p = Polynomial.from_roots(GF256, [1, 2])
        assert p.eval(5) != 0

    @given(coeff_lists, st.integers(min_value=0, max_value=255))
    def test_eval_matches_horner_manual(self, coeffs, x):
        p = poly(coeffs)
        acc = 0
        for c in reversed(p.coeffs):
            acc = GF256.mul(acc, x) ^ c
        assert p.eval(x) == acc


class TestDerivative:
    def test_constant_derivative_zero(self):
        assert poly([5]).derivative().is_zero()

    def test_char2_even_terms_vanish(self):
        # d/dx (a + bx + cx^2 + dx^3) = b + dx^2 in characteristic 2.
        p = poly([1, 2, 3, 4])
        assert p.derivative().coeffs == [2, 0, 4]

    def test_equality_and_hash(self):
        assert poly([1, 2]) == poly([1, 2, 0])
        assert hash(poly([1, 2])) == hash(poly([1, 2, 0]))

    def test_repr_readable(self):
        assert "x^1" in repr(poly([0, 3]))
