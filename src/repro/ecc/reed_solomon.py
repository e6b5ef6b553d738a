"""Reed-Solomon codes over GF(2^m) with error-and-erasure decoding.

This is the algebra behind every symbol-based chipkill codec in the paper:

* relaxed ARCC codewords are shortened RS(18,16) over GF(2^8) — distance 3,
  so one unknown bad symbol is correctable, two are not even detectable
  with certainty;
* upgraded / SCCDCD codewords are shortened RS(36,32) — distance 5;
  commercial SCCDCD deliberately corrects only one symbol and keeps the
  rest of the distance for double-symbol *detection* (``correct_limit=1``);
* double chip sparing uses the same code but spends three check symbols on
  single-correct/double-detect and the fourth as a spare location;
* the Chapter 5 double-upgraded mode is shortened RS(72,64) — distance 9.

Decoding follows the classic pipeline: syndromes -> Berlekamp-Massey with
erasures -> Chien search -> Forney. A post-correction syndrome re-check
turns most decoder failures into ``DETECTED_UE`` instead of silent
miscorrection, matching hardware practice.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.ecc.base import CodecError, DecodeResult, DecodeStatus
from repro.gf.field import GF, GF256
from repro.gf.polynomial import Polynomial


class ReedSolomonCode:
    """A (possibly shortened) systematic RS code.

    Parameters
    ----------
    n, k:
        Codeword and message lengths in symbols. ``n - k`` check symbols.
        ``n`` may be anything up to ``field.order - 1`` (shortened code).
    field:
        The symbol field; defaults to GF(2^8).
    fcr:
        First consecutive root exponent of the generator polynomial.
    """

    def __init__(self, n: int, k: int, field: GF = GF256, fcr: int = 1):
        if not 0 < k < n:
            raise CodecError(f"invalid RS parameters n={n}, k={k}")
        if n > field.order - 1:
            raise CodecError(
                f"codeword length {n} exceeds field limit {field.order - 1}"
            )
        self.n = n
        self.k = k
        self.field = field
        self.fcr = fcr
        self.nroots = n - k
        self.generator = Polynomial.from_roots(
            field, [field.alpha_pow(fcr + i) for i in range(self.nroots)]
        )

    # -- encode ---------------------------------------------------------------

    def encode(self, message: Sequence[int]) -> List[int]:
        """Systematic encode: returns ``message + parity`` (n symbols)."""
        if len(message) != self.k:
            raise CodecError(
                f"message has {len(message)} symbols, expected {self.k}"
            )
        for s in message:
            if not 0 <= s < self.field.order:
                raise CodecError(
                    f"symbol {s} is not an element of GF(2^{self.field.m})"
                )
        # Message symbols are the high-order coefficients of the codeword
        # polynomial; parity is the remainder of msg * x^nroots / g(x).
        msg_poly = Polynomial(self.field, list(reversed(message)))
        shifted = msg_poly.shift(self.nroots)
        remainder = shifted % self.generator
        parity = [remainder[i] for i in range(self.nroots - 1, -1, -1)]
        return list(message) + parity

    # -- syndromes --------------------------------------------------------------

    def syndromes(self, received: Sequence[int]) -> List[int]:
        """Syndromes S_j = R(alpha^(fcr+j)); all zero iff R is a codeword."""
        if len(received) != self.n:
            raise CodecError(
                f"received word has {len(received)} symbols, expected {self.n}"
            )
        field = self.field
        out = []
        for j in range(self.nroots):
            x = field.alpha_pow(self.fcr + j)
            acc = 0
            for symbol in received:
                acc = field.mul(acc, x) ^ symbol
            out.append(acc)
        return out

    def is_codeword(self, received: Sequence[int]) -> bool:
        """True when the received word has all-zero syndromes."""
        return not any(self.syndromes(received))

    # -- decode ----------------------------------------------------------------

    def decode(
        self,
        received: Sequence[int],
        erasures: Sequence[int] = (),
        correct_limit: Optional[int] = None,
    ) -> DecodeResult:
        """Decode errors and erasures.

        Parameters
        ----------
        received:
            ``n`` symbols as read from the devices.
        erasures:
            Symbol positions known to be unreliable (e.g. a device already
            marked failed). Erasures cost one unit of distance each;
            unknown errors cost two.
        correct_limit:
            Cap on the number of *unknown* errors to correct. Commercial
            SCCDCD sets this to 1, reserving the remaining distance for
            detection. ``None`` means correct up to floor((d-1-e)/2).

        Returns a :class:`DecodeResult` whose ``data`` holds the ``k``
        message symbols of the corrected systematic codeword, one byte
        each (``None`` for fields wider than 8 bits).
        """
        received = list(received)
        synd = self.syndromes(received)
        erasures = sorted(set(erasures))
        for pos in erasures:
            if not 0 <= pos < self.n:
                raise CodecError(f"erasure position {pos} out of range")
        if len(erasures) > self.nroots:
            return DecodeResult(
                status=DecodeStatus.DETECTED_UE,
                detail="more erasures than check symbols",
            )
        if not any(synd):
            # Clean syndromes. If symbols were erased we still call it
            # NO_ERROR: the erased symbols happened to be correct.
            return self._result_from_codeword(
                received, DecodeStatus.NO_ERROR, ()
            )

        field = self.field
        # Erasure locator Gamma(x) = prod (1 + x * X_i), X_i = alpha^(n-1-pos).
        gamma = Polynomial.one(field)
        for pos in erasures:
            x_i = field.alpha_pow(self.n - 1 - pos)
            gamma = gamma * Polynomial(field, [1, x_i])

        # Modified syndromes Xi(x) = S(x) * Gamma(x) mod x^nroots; the
        # Forney syndromes (entries e..nroots-1) drive BM for the unknown
        # errors, the first e entries being consumed by the erasures.
        s_poly = Polynomial(field, synd)  # S_1 + S_2 x + ...
        xi = self._poly_mod_xn(s_poly * gamma, self.nroots)
        forney_synd = [xi[j] for j in range(len(erasures), self.nroots)]

        max_errors = (self.nroots - len(erasures)) // 2
        if correct_limit is not None:
            max_errors = min(max_errors, correct_limit)

        lam = self._berlekamp_massey(forney_synd)
        if lam.degree > max_errors:
            return DecodeResult(
                status=DecodeStatus.DETECTED_UE,
                detail=(
                    f"error locator degree {lam.degree} exceeds "
                    f"correction limit {max_errors}"
                ),
            )

        locator = lam * gamma
        positions = self._chien_search(locator)
        if positions is None or len(positions) != locator.degree:
            return DecodeResult(
                status=DecodeStatus.DETECTED_UE,
                detail="error locator roots inconsistent with degree",
            )

        corrected = self._forney(received, synd, locator, positions)
        if corrected is None:
            return DecodeResult(
                status=DecodeStatus.DETECTED_UE, detail="Forney failure"
            )
        if any(self.syndromes(corrected)):
            return DecodeResult(
                status=DecodeStatus.DETECTED_UE,
                detail="post-correction syndromes non-zero",
            )
        return self._result_from_codeword(
            corrected, DecodeStatus.CORRECTED, tuple(sorted(positions))
        )

    # -- decoding internals -------------------------------------------------

    def _result_from_codeword(
        self,
        codeword: List[int],
        status: DecodeStatus,
        positions: Tuple[int, ...],
    ) -> DecodeResult:
        message = bytes(
            self._symbol_to_byte(s) for s in codeword[: self.k]
        ) if self.field.m <= 8 else None
        result = DecodeResult(
            status=status,
            data=message,
            error_positions=positions,
            corrected_symbols=len(positions),
        )
        result.codeword = list(codeword)  # type: ignore[attr-defined]
        return result

    def _symbol_to_byte(self, s: int) -> int:
        # Symbols of <= 8 bits fit one byte; callers repack 4-bit fields.
        return s & 0xFF

    @staticmethod
    def _poly_mod_xn(poly: Polynomial, n: int) -> Polynomial:
        return Polynomial(poly.field, poly.coeffs[:n])

    def _berlekamp_massey(self, syndromes: List[int]) -> Polynomial:
        """BM iteration over the Forney syndromes.

        Returns the error-locator polynomial Lambda(x) for the unknown
        errors (erasures excluded — they are already folded into the
        modified syndromes and skipped by the caller).
        """
        field = self.field
        rounds = len(syndromes)
        lam = Polynomial.one(field)
        prev = Polynomial.one(field)
        length = 0  # current LFSR length
        shift = 1  # rounds since prev was updated
        for r in range(rounds):
            # Discrepancy: delta = sum lam_i * S_{r - i}  (S indexed from 0).
            delta = 0
            for i in range(length + 1):
                delta ^= field.mul(
                    lam[i], syndromes[r - i] if r - i >= 0 else 0
                )
            if delta == 0:
                shift += 1
            elif 2 * length <= r:
                tmp = lam
                lam = lam + prev.shift(shift).scale(delta)
                prev = tmp.scale(field.inv(delta))
                length = r + 1 - length
                shift = 1
            else:
                lam = lam + prev.shift(shift).scale(delta)
                shift += 1
        return lam

    def _chien_search(self, locator: Polynomial) -> Optional[List[int]]:
        """Find error positions: roots of Lambda at X_i^{-1}."""
        field = self.field
        positions = []
        for pos in range(self.n):
            power = self.n - 1 - pos
            x_inv = field.alpha_pow(-power % (field.order - 1))
            if locator.eval(x_inv) == 0:
                positions.append(pos)
        if len(positions) != locator.degree:
            return None
        return positions

    def _forney(
        self,
        received: List[int],
        syndromes: List[int],
        locator: Polynomial,
        positions: List[int],
    ) -> Optional[List[int]]:
        """Compute error magnitudes and return the corrected codeword."""
        field = self.field
        s_poly = Polynomial(field, syndromes)
        omega = self._poly_mod_xn(s_poly * locator, self.nroots)
        lam_prime = locator.derivative()
        corrected = list(received)
        for pos in positions:
            power = self.n - 1 - pos
            x_i = field.alpha_pow(power)
            x_inv = field.alpha_pow(-power % (field.order - 1))
            denom = lam_prime.eval(x_inv)
            if denom == 0:
                return None
            num = omega.eval(x_inv)
            # e_i = X_i^{1-fcr} * Omega(X_i^{-1}) / Lambda'(X_i^{-1})
            magnitude = field.mul(
                field.pow(x_i, 1 - self.fcr), field.div(num, denom)
            )
            corrected[pos] ^= magnitude
        return corrected

    def __repr__(self) -> str:
        return f"ReedSolomonCode(n={self.n}, k={self.k}, GF(2^{self.field.m}))"
