"""Polynomials over GF(2^m) — the algebra behind Reed-Solomon codecs.

Coefficients are stored lowest-degree-first (``coeffs[i]`` multiplies
``x^i``), which makes synthetic division and the Berlekamp-Massey update
rules read like the textbook forms.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.gf.field import GF


class Polynomial:
    """A polynomial with coefficients in a ``GF`` field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs: Iterable[int]) -> None:
        self.field = field
        trimmed: List[int] = list(coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        if not trimmed:
            trimmed = [0]
        for c in trimmed:
            field.check(c)
        self.coeffs = trimmed

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: GF) -> "Polynomial":
        """The zero polynomial."""
        return cls(field, [0])

    @classmethod
    def one(cls, field: GF) -> "Polynomial":
        """The constant polynomial 1."""
        return cls(field, [1])

    @classmethod
    def from_roots(cls, field: GF, roots: Sequence[int]) -> "Polynomial":
        """Product of ``(x - r)`` over the given roots."""
        poly = cls.one(field)
        for r in roots:
            poly = poly * cls(field, [r, 1])  # (x + r) == (x - r) in GF(2^m)
        return poly

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        """True for the zero polynomial."""
        return self.degree == -1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- arithmetic ----------------------------------------------------------

    def _require_same_field(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise ValueError("polynomials belong to different fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            self.field, [self[i] ^ other[i] for i in range(n)]
        )

    __sub__ = __add__  # characteristic-2 field

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_field(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        mul = self.field.mul
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] ^= mul(a, b)
        return Polynomial(self.field, out)

    def scale(self, k: int) -> "Polynomial":
        """Multiply every coefficient by the scalar ``k``."""
        mul = self.field.mul
        return Polynomial(self.field, [mul(c, k) for c in self.coeffs])

    def shift(self, n: int) -> "Polynomial":
        """Multiply by ``x^n``."""
        if n < 0:
            raise ValueError("shift must be non-negative")
        if self.is_zero():
            return self
        return Polynomial(self.field, [0] * n + self.coeffs)

    def divmod(self, divisor: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        """Polynomial long division -> (quotient, remainder)."""
        self._require_same_field(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        ddeg = divisor.degree
        dlead_inv = field.inv(divisor.coeffs[-1])
        quot = [0] * max(len(rem) - ddeg, 1)
        for i in range(len(rem) - 1, ddeg - 1, -1):
            if rem[i] == 0:
                continue
            factor = field.mul(rem[i], dlead_inv)
            quot[i - ddeg] = factor
            for j, dc in enumerate(divisor.coeffs):
                rem[i - ddeg + j] ^= field.mul(factor, dc)
        return Polynomial(field, quot), Polynomial(field, rem)

    def __mod__(self, divisor: "Polynomial") -> "Polynomial":
        return self.divmod(divisor)[1]

    def __floordiv__(self, divisor: "Polynomial") -> "Polynomial":
        return self.divmod(divisor)[0]

    # -- evaluation ----------------------------------------------------------

    def eval(self, x: int) -> int:
        """Horner evaluation at the field element ``x``."""
        acc = 0
        mul = self.field.mul
        for c in reversed(self.coeffs):
            acc = mul(acc, x) ^ c
        return acc

    def derivative(self) -> "Polynomial":
        """Formal derivative; in characteristic 2 even-power terms vanish."""
        out = [0] * max(len(self.coeffs) - 1, 1)
        for i in range(1, len(self.coeffs)):
            if i % 2 == 1:  # i * c == c when i is odd, 0 when even (char 2)
                out[i - 1] = self.coeffs[i]
        return Polynomial(self.field, out)

    # -- dunder housekeeping ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, tuple(self.coeffs)))

    def __repr__(self) -> str:
        terms = [
            f"{c:#x}*x^{i}" for i, c in enumerate(self.coeffs) if c
        ] or ["0"]
        return " + ".join(terms)
