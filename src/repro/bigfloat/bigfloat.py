"""The :class:`BigFloat` type: arbitrary-precision binary floating point.

A finite ``BigFloat`` represents the exact value
``(-1)**sign * man * 2**exp`` with an unbounded exponent; the special
kinds represent signed infinities and NaN.  Values are immutable and
canonical (nonzero mantissas are odd; zeros have ``man == 0, exp == 0``),
so two equal finite values have identical fields.

Construction is exact; rounding to a :class:`~repro.bigfloat.context.Context`
precision happens in the arithmetic layer (:mod:`repro.bigfloat.arith`)
and when converting to hardware formats (:meth:`BigFloat.to_float`).

This module is the reproduction's substitute for MPFR (paper Section 5.1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple, Union

from repro.bigfloat.rounding import ROUND_NEAREST_EVEN, round_mantissa

K_FINITE = 0
K_INF = 1
K_NAN = 2

_DOUBLE_MANT_BITS = 53
_DOUBLE_EMIN = -1022  # smallest normal exponent (unbiased, of the MSB)
_DOUBLE_EMAX = 1023
_SINGLE_MANT_BITS = 24
_SINGLE_EMIN = -126
_SINGLE_EMAX = 127


class BigFloat:
    """An immutable arbitrary-precision binary floating-point value."""

    __slots__ = ("sign", "man", "exp", "kind")

    sign: int
    man: int
    exp: int
    kind: int

    def __init__(self, sign: int, man: int, exp: int, kind: int = K_FINITE) -> None:
        if kind == K_FINITE:
            if man < 0:
                raise ValueError("mantissa must be non-negative; use sign")
            if man == 0:
                exp = 0
            else:
                # Canonicalize: strip trailing zero bits into the exponent.
                trailing = (man & -man).bit_length() - 1
                if trailing:
                    man >>= trailing
                    exp += trailing
        else:
            man = 0
            exp = 0
        object.__setattr__(self, "sign", 1 if sign else 0)
        object.__setattr__(self, "man", man)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BigFloat instances are immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def nan() -> "BigFloat":
        """The (unique, unsigned) NaN value."""
        return _NAN

    @staticmethod
    def inf(sign: int = 0) -> "BigFloat":
        """Positive (sign=0) or negative (sign=1) infinity."""
        return _NEG_INF if sign else _POS_INF

    @staticmethod
    def zero(sign: int = 0) -> "BigFloat":
        """Positive or negative zero."""
        return _NEG_ZERO if sign else _POS_ZERO

    @classmethod
    def from_int(cls, value: int) -> "BigFloat":
        """Exact conversion from a Python integer."""
        if value == 0:
            return _POS_ZERO
        sign = 1 if value < 0 else 0
        return cls(sign, abs(value), 0)

    @classmethod
    def from_float(cls, value: float) -> "BigFloat":
        """Exact conversion from a Python (binary64) float."""
        if math.isnan(value):
            return _NAN
        if math.isinf(value):
            return _NEG_INF if value < 0 else _POS_INF
        if value == 0.0:
            return _NEG_ZERO if math.copysign(1.0, value) < 0 else _POS_ZERO
        mantissa, exponent = math.frexp(value)
        scaled = int(mantissa * (1 << _DOUBLE_MANT_BITS))
        sign = 1 if scaled < 0 else 0
        return cls(sign, abs(scaled), exponent - _DOUBLE_MANT_BITS)

    @classmethod
    def from_fraction(cls, value: Fraction, precision: int,
                      rounding: str = ROUND_NEAREST_EVEN) -> "BigFloat":
        """Convert an exact rational, rounded to ``precision`` bits."""
        if value == 0:
            return _POS_ZERO
        sign = 1 if value < 0 else 0
        numerator = abs(value.numerator)
        denominator = value.denominator
        # Produce precision + 2 quotient bits, then fold the remainder in
        # as a sticky bit so round_mantissa sees the true direction.
        shift = max(
            0, precision + 2 - numerator.bit_length() + denominator.bit_length()
        )
        quotient, remainder = divmod(numerator << shift, denominator)
        exp = -shift
        if remainder:
            quotient = (quotient << 1) | 1
            exp -= 1
        man, exp, __ = round_mantissa(sign, quotient, exp, precision, rounding)
        return cls(sign, man, exp)

    @classmethod
    def exact(cls, value: Union[int, float, "BigFloat"]) -> "BigFloat":
        """Coerce an int/float/BigFloat into a BigFloat without rounding."""
        if isinstance(value, BigFloat):
            return value
        if isinstance(value, bool):
            raise TypeError("cannot convert bool to BigFloat")
        if isinstance(value, int):
            return cls.from_int(value)
        if isinstance(value, float):
            return cls.from_float(value)
        raise TypeError(f"cannot convert {type(value).__name__} to BigFloat")

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def is_nan(self) -> bool:
        return self.kind == K_NAN

    def is_inf(self) -> bool:
        return self.kind == K_INF

    def is_finite(self) -> bool:
        return self.kind == K_FINITE

    def is_zero(self) -> bool:
        return self.kind == K_FINITE and self.man == 0

    def is_negative(self) -> bool:
        """True when the sign bit is set (including -0.0 and -inf)."""
        return self.sign == 1

    def is_integer(self) -> bool:
        """True for finite values with no fractional part."""
        if self.kind != K_FINITE:
            return False
        return self.man == 0 or self.exp >= 0

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def msb_exponent(self) -> int:
        """floor(log2(|self|)) for finite nonzero values."""
        if self.kind != K_FINITE or self.man == 0:
            raise ValueError(f"no msb exponent for {self!r}")
        return self.exp + self.man.bit_length() - 1

    def key(self) -> Tuple[int, int, int, int]:
        """A canonical hashable identity (distinguishes -0.0 from 0.0)."""
        return (self.kind, self.sign, self.man, self.exp)

    def neg(self) -> "BigFloat":
        """The negation (sign flip; negating NaN yields NaN)."""
        if self.kind == K_NAN:
            return _NAN
        return BigFloat(1 - self.sign, self.man, self.exp, self.kind)

    def abs(self) -> "BigFloat":
        """The absolute value (sign cleared)."""
        if self.kind == K_NAN:
            return _NAN
        return BigFloat(0, self.man, self.exp, self.kind)

    def copysign(self, other: "BigFloat") -> "BigFloat":
        """This magnitude with ``other``'s sign bit."""
        if self.kind == K_NAN:
            return _NAN
        return BigFloat(other.sign, self.man, self.exp, self.kind)

    # ------------------------------------------------------------------
    # Comparison (IEEE semantics: NaN unordered, +0 == -0)
    # ------------------------------------------------------------------

    def _compare(self, other: "BigFloat") -> Optional[int]:
        """-1/0/+1 ordering, or None when unordered (NaN involved)."""
        if self.kind == K_NAN or other.kind == K_NAN:
            return None
        if self.is_zero() and other.is_zero():
            return 0
        if self.kind == K_INF or other.kind == K_INF:
            if self.kind == K_INF and other.kind == K_INF:
                return (other.sign > self.sign) - (other.sign < self.sign)
            if self.kind == K_INF:
                return 1 if self.sign == 0 else -1
            return -1 if other.sign == 0 else 1
        if self.is_zero():
            return -1 if other.sign == 0 else 1
        if other.is_zero():
            return 1 if self.sign == 0 else -1
        if self.sign != other.sign:
            return -1 if self.sign else 1
        magnitude = _compare_magnitude(self, other)
        return -magnitude if self.sign else magnitude

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BigFloat):
            return NotImplemented
        return self._compare(other) == 0

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, BigFloat):
            return NotImplemented
        comparison = self._compare(other)
        return comparison is None or comparison != 0

    def __lt__(self, other: "BigFloat") -> bool:
        if not isinstance(other, BigFloat):
            return NotImplemented
        return self._compare(other) == -1

    def __le__(self, other: "BigFloat") -> bool:
        if not isinstance(other, BigFloat):
            return NotImplemented
        comparison = self._compare(other)
        return comparison is not None and comparison <= 0

    def __gt__(self, other: "BigFloat") -> bool:
        if not isinstance(other, BigFloat):
            return NotImplemented
        return self._compare(other) == 1

    def __ge__(self, other: "BigFloat") -> bool:
        if not isinstance(other, BigFloat):
            return NotImplemented
        comparison = self._compare(other)
        return comparison is not None and comparison >= 0

    # IEEE equality is not an equivalence relation (NaN), so BigFloats are
    # deliberately unhashable; use .key() for identity-based hashing.
    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Conversions out
    # ------------------------------------------------------------------

    def to_float(self) -> float:
        """Correctly round to the nearest binary64 value (ties to even).

        Handles overflow to ±inf, gradual underflow through subnormals,
        and total underflow to (signed) zero — without double rounding.
        """
        return self._to_hardware(_DOUBLE_MANT_BITS, _DOUBLE_EMIN, _DOUBLE_EMAX)

    def to_single(self) -> float:
        """Correctly round to the nearest binary32 value (as a double)."""
        return self._to_hardware(_SINGLE_MANT_BITS, _SINGLE_EMIN, _SINGLE_EMAX)

    def _to_hardware(self, mant_bits: int, emin: int, emax: int) -> float:
        if self.kind == K_NAN:
            return math.nan
        if self.kind == K_INF:
            return -math.inf if self.sign else math.inf
        if self.man == 0:
            return -0.0 if self.sign else 0.0
        msb = self.msb_exponent
        # Exponent of the smallest subnormal (its single significant bit):
        # for binary64 this is 2^-1074 = 2^(emin - mant_bits + 1).
        tiny_exp = emin - mant_bits + 1
        if msb >= emin:
            precision = mant_bits
        else:
            # Significant bits available between msb and the subnormal ulp.
            precision = msb - tiny_exp + 1
        if precision < 1:
            # Entirely below half the smallest subnormal => rounds to zero,
            # except exactly-half ties go to even (zero) and above-half
            # rounds up to the smallest subnormal.
            if msb == tiny_exp - 1 and self.man != 1:
                magnitude = math.ldexp(1.0, tiny_exp)
                return -magnitude if self.sign else magnitude
            return -0.0 if self.sign else 0.0
        man, exp, __ = round_mantissa(self.sign, self.man, self.exp, precision)
        if exp + man.bit_length() - 1 > emax:
            return -math.inf if self.sign else math.inf
        try:
            magnitude = math.ldexp(float(man), exp)
        except OverflowError:
            magnitude = math.inf
        return -magnitude if self.sign else magnitude

    def __float__(self) -> float:
        return self.to_float()

    def to_bigfloat(self) -> "BigFloat":
        """The value itself: the exact promotion that BigFloat and
        :class:`~repro.bigfloat.doubledouble.DoubleDouble` shadow reals
        share."""
        return self

    def to_fraction(self) -> Fraction:
        """The exact rational value (finite values only)."""
        if self.kind != K_FINITE:
            raise ValueError(f"{self!r} has no rational value")
        if self.man == 0:
            return Fraction(0)
        value = Fraction(self.man)
        scale = Fraction(2) ** self.exp
        result = value * scale
        return -result if self.sign else result

    def round_to(
        self, precision: int, rounding: str = ROUND_NEAREST_EVEN
    ) -> "BigFloat":
        """This value rounded to ``precision`` significand bits."""
        if self.kind != K_FINITE or self.man == 0:
            return self
        man, exp, __ = round_mantissa(
            self.sign, self.man, self.exp, precision, rounding
        )
        return BigFloat(self.sign, man, exp)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        if self.kind == K_NAN:
            return "BigFloat.nan()"
        if self.kind == K_INF:
            return f"BigFloat.inf({self.sign})"
        if self.man == 0:
            return f"BigFloat.zero({self.sign})"
        approx = self.to_float()
        if math.isinf(approx) or approx == 0.0:
            # Out of double range; show the exact structure instead.
            sign = "-" if self.sign else ""
            return f"BigFloat<{sign}{self.man}*2^{self.exp}>"
        return f"BigFloat({approx!r}, prec={self.man.bit_length()})"

    def __str__(self) -> str:
        if self.kind == K_NAN:
            return "nan"
        if self.kind == K_INF:
            return "-inf" if self.sign else "inf"
        return repr(self.to_float())

    # ------------------------------------------------------------------
    # Operator sugar (uses the module-default context; see arith.py)
    # ------------------------------------------------------------------

    def __add__(self, other: "BigFloat") -> "BigFloat":
        from repro.bigfloat import arith

        return arith.add(self, _coerce(other))

    def __sub__(self, other: "BigFloat") -> "BigFloat":
        from repro.bigfloat import arith

        return arith.sub(self, _coerce(other))

    def __mul__(self, other: "BigFloat") -> "BigFloat":
        from repro.bigfloat import arith

        return arith.mul(self, _coerce(other))

    def __truediv__(self, other: "BigFloat") -> "BigFloat":
        from repro.bigfloat import arith

        return arith.div(self, _coerce(other))

    def __neg__(self) -> "BigFloat":
        return self.neg()

    def __abs__(self) -> "BigFloat":
        return self.abs()


def _coerce(value: Union[int, float, BigFloat]) -> BigFloat:
    if isinstance(value, BigFloat):
        return value
    return BigFloat.exact(value)


def _compare_magnitude(a: BigFloat, b: BigFloat) -> int:
    """-1/0/+1 comparison of |a| vs |b| for finite nonzero values."""
    msb_a = a.exp + a.man.bit_length()
    msb_b = b.exp + b.man.bit_length()
    if msb_a != msb_b:
        return -1 if msb_a < msb_b else 1
    # Same binade: align mantissas exactly and compare integers.
    exp_delta = a.exp - b.exp
    if exp_delta >= 0:
        left = a.man << exp_delta
        right = b.man
    else:
        left = a.man
        right = b.man << -exp_delta
    return (left > right) - (left < right)


_NAN = BigFloat(0, 0, 0, K_NAN)
_POS_INF = BigFloat(0, 0, 0, K_INF)
_NEG_INF = BigFloat(1, 0, 0, K_INF)
_POS_ZERO = BigFloat(0, 0, 0, K_FINITE)
_NEG_ZERO = BigFloat(1, 0, 0, K_FINITE)

#: Exact BigFloat constants reused across the package.
ONE = BigFloat(0, 1, 0)
TWO = BigFloat(0, 1, 1)
HALF = BigFloat(0, 1, -1)
