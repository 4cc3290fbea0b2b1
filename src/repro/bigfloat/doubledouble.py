"""Double-double (compensated two-float) hardware shadow arithmetic.

This module is the hardware tier of the adaptive precision policy: a
:class:`DoubleDouble` value represents the exact real ``hi + lo`` where
both components are binary64 floats and the pair is *normalized*
(``hi == RN(hi + lo)``, so ``|lo| <= ulp(hi) / 2``).  All kernels are
built from the classic error-free transformations — Knuth's TwoSum and
Dekker's TwoProd (split-based; ``math.fma`` is not available on every
supported interpreter) — with the relative error bounds proven in
Joldes, Muller & Popescu, "Tight and rigorous error bounds for basic
building blocks of double-word arithmetic" (ACM TOMS 2017):

===========  =====================================  ==============
operation    algorithm                              relative bound
===========  =====================================  ==============
add / sub    AccurateDWPlusDW (Algorithm 6)         3u^2
mul          DWTimesDW, no-FMA variant              11u^2 [*]_
div          DWDivDW2 (Algorithm 17, no FMA)        15u^2
sqrt         one Newton/Karp step from sqrt(hi)     25/8 u^2
fma          mul then add, compound                 see dd_fma
===========  =====================================  ==============

with ``u = 2**-53``.  Every bound is at most ``16 u^2 = 2**-102``, which
is the single per-op drift constant the policy charges
(:data:`DD_REL_ERR_LOG2`).

Kernels return ``None`` instead of a result whenever any precondition of
the proofs could fail — non-finite inputs or outputs, magnitudes near
the overflow threshold of Dekker's splitting, or nonzero results deep in
the range where relative bounds break down (subnormals).  Callers treat
``None`` as "promote to the BigFloat working tier"; the hardware tier
never guesses.

When a kernel *can* certify that its result is the mathematically exact
value (not merely within bound), it says so: the error-free cases (sums
whose renormalization never rounds, in-range pure double products, exact
square roots, ...) keep drift at ``EXACT`` so loop counters, accumulators
and scale factors never force escalation.  Exactness claims additionally
require the result to fit the full-precision oracle tier (see
:func:`fits_precision`): a value the full tier would have to round may
not be claimed exact, or reports could diverge between tiers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

from repro.bigfloat.bigfloat import BigFloat

__all__ = [
    "DoubleDouble",
    "DD_REL_ERR_LOG2",
    "two_sum",
    "quick_two_sum",
    "two_prod",
    "dd_add",
    "dd_sub",
    "dd_mul",
    "dd_div",
    "dd_sqrt",
    "dd_fma",
    "dd_neg",
    "dd_abs",
    "DD_KERNELS",
    "fits_precision",
]

#: log2 of the worst-case per-operation relative error of any kernel in
#: this module: 16 u^2 = 2**-102 dominates every proven bound above.
DD_REL_ERR_LOG2 = -102

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker's splitting constant
# Dekker's split computes _SPLITTER * a; keep |a| comfortably below the
# 2**996 threshold where that product overflows.
_SPLIT_MAX = math.ldexp(1.0, 970)
# Below this magnitude a nonzero inexact result is too close to the
# subnormal range for the relative error bounds (and the exactness of
# TwoProd's error term) to hold.
_TINY = math.ldexp(1.0, -960)

_INF = math.inf


# ----------------------------------------------------------------------
# Error-free transformations
# ----------------------------------------------------------------------

def two_sum(a: float, b: float) -> Tuple[float, float]:
    """Knuth's TwoSum: ``s + err == a + b`` exactly, ``s = RN(a + b)``.

    Error-free for every pair of finite doubles whose sum does not
    overflow (subnormals included; no magnitude ordering required).
    """
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a: float, b: float) -> Tuple[float, float]:
    """Dekker's FastTwoSum: requires ``|a| >= |b|`` (or ``a == 0``)."""
    s = a + b
    err = b - (s - a)
    return s, err


def two_prod(a: float, b: float) -> Tuple[float, float]:
    """Dekker/Veltkamp TwoProd: ``p + err == a * b`` exactly.

    Error-free provided ``|a|, |b| < 2**970`` (splitting does not
    overflow) and the product stays clear of the subnormal range; the
    op-level kernels below enforce both guards before trusting ``err``.
    """
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


# ----------------------------------------------------------------------
# Double-word kernels
#
# Each kernel takes component pairs and returns ``(hi, lo, exact)`` —
# a normalized result plus a proven-exactness flag — or ``None`` when a
# precondition fails and the caller must promote to the working tier.
# ----------------------------------------------------------------------

def dd_add(
    xh: float, xl: float, yh: float, yl: float
) -> Optional[Tuple[float, float, bool]]:
    """AccurateDWPlusDW: relative error <= 3u^2, valid under cancellation.

    The result is flagged exact iff the kernel's two rounded sums
    ``c = RN(sl + th)`` and ``w = RN(tl + vl)`` have zero TwoSum errors
    ``ce`` and ``we``.  Its other steps (two TwoSums, two FastTwoSums)
    are error-free under the preconditions its 3u^2 bound relies on
    (Joldes, Muller & Popescu 2017, AccurateDWPlusDW), so
    ``zh + zl == xh + xl + yh + yl - ce - we`` exactly.  Accumulators
    such as ``acc + 0.1``, whose partial sums fit a double-double, thus
    keep EXACT drift after ``acc`` grows a low word.  TwoSum is
    error-free on subnormals too, so an exact sum needs no underflow
    guard.  The error terms leave ``(zh, zl)`` unchanged: TwoSum's sum
    is the same ``RN(a + b)`` as a plain add.
    """
    # Zero operands first: the renormalization steps below run through
    # hardware additions like (-0.0) + (+0.0) that erase zero signs, so
    # the IEEE sign rules are applied on the raw components instead.
    if xh == 0.0 and xl == 0.0:
        if yh == 0.0:
            return xh + yh, 0.0, True  # hardware applies the sign rule
        return yh, yl, True
    if yh == 0.0 and yl == 0.0:
        return xh, xl, True
    # The TwoSum / FastTwoSum steps are spelled out inline: this is the
    # hottest pair kernel, and six helper calls cost more than the
    # arithmetic.  Same operations in the same order, so same results.
    sh = xh + yh  # (sh, sl) = TwoSum(xh, yh)
    if sh - sh != 0.0:  # inf or nan: overflow, or nonfinite input
        return None
    bb = sh - xh
    sl = (xh - (sh - bb)) + (yh - bb)
    th = xl + yl  # (th, tl) = TwoSum(xl, yl)
    bb = th - xl
    tl = (xl - (th - bb)) + (yl - bb)
    c = sl + th  # (c, ce) = TwoSum(sl, th)
    bb = c - sl
    ce = (sl - (c - bb)) + (th - bb)
    vh = sh + c  # (vh, vl) = FastTwoSum(sh, c)
    vl = c - (vh - sh)
    w = tl + vl  # (w, we) = TwoSum(tl, vl)
    bb = w - tl
    we = (tl - (w - bb)) + (vl - bb)
    zh = vh + w  # (zh, zl) = FastTwoSum(vh, w)
    zl = w - (zh - vh)
    if zh - zh != 0.0:
        return None
    if ce == 0.0 and we == 0.0:
        # No rounding anywhere: (zh, zl) is exactly x + y.  Exact
        # cancellation comes out +0.0 here, matching the working tier's
        # round-to-nearest cancellation rule.
        return zh, zl, True
    if zh != 0.0 and -_TINY < zh < _TINY:
        # Inexact result in the deep-underflow range: the relative
        # bound no longer holds, so hand the op to the working tier.
        return None
    return zh, zl, False


def dd_sub(
    xh: float, xl: float, yh: float, yl: float
) -> Optional[Tuple[float, float, bool]]:
    """``x - y`` as ``x + (-y)`` (IEEE defines subtraction this way)."""
    return dd_add(xh, xl, -yh, -yl)


def dd_mul(
    xh: float, xl: float, yh: float, yl: float
) -> Optional[Tuple[float, float, bool]]:
    """DWTimesDW without FMA: relative error <= 11u^2 in-range."""
    if not (-_SPLIT_MAX < xh < _SPLIT_MAX and -_SPLIT_MAX < yh < _SPLIT_MAX):
        return None  # nonfinite or too large for Dekker splitting
    ph, pl = two_prod(xh, yh)
    if ph - ph != 0.0:
        return None
    if ph == 0.0:
        if xh != 0.0 and yh != 0.0:
            return None  # nonzero * nonzero underflowed to zero
        # Zero products are exact; keep the hardware's IEEE sign (the
        # renormalization sum would erase a negative zero).
        return ph, 0.0, True
    if xl == 0.0 and yl == 0.0 and not (-_TINY < ph < _TINY):
        # For pure-double operands away from the underflow range
        # TwoProd's error term is exact, so (ph, pl) is exactly xh * yh.
        zh, zl = quick_two_sum(ph, pl)
        return zh, zl, True
    t = xh * yl + xl * yh
    zh, zl = quick_two_sum(ph, pl + t)
    if zh - zh != 0.0:
        return None
    if zh != 0.0 and -_TINY < zh < _TINY:
        return None
    return zh, zl, False


def dd_div(
    xh: float, xl: float, yh: float, yl: float
) -> Optional[Tuple[float, float, bool]]:
    """DWDivDW2 without FMA: relative error <= 15u^2 in-range.

    Division by zero is not handled here — the working tier owns the
    IEEE special-value semantics for that case.
    """
    if yh == 0.0 or yh - yh != 0.0:
        return None
    if xh == 0.0 and xl == 0.0:
        # Zero dividend: exact signed zero straight from the hardware
        # (the correction chain below can flip a negative zero's sign).
        return xh / yh, 0.0, True
    th = xh / yh
    # A zero th here is *underflow* (the zero-dividend case returned
    # above): the true quotient is nonzero, so promote rather than
    # report a zero with a 2^-102 drift charge.
    if th - th != 0.0 or not _TINY < abs(th) < _SPLIT_MAX:
        return None
    if not (_TINY < abs(xh) < _SPLIT_MAX and -_SPLIT_MAX < yh < _SPLIT_MAX):
        # Besides the splitting range, ``xh`` must sit above the
        # underflow guard band: ``two_prod(th, yh)`` reconstructs a
        # product of magnitude ~xh, and when that is deep-subnormal the
        # error term ``pl`` is floor-rounded garbage, silently breaking
        # the Newton correction (observed: plain-division accuracy with
        # a 2^-102 drift charge).
        return None
    ph, pl = two_prod(th, yh)
    if ph - ph != 0.0:
        return None
    dh = xh - ph  # Sterbenz: ph agrees with xh to within a few ulps
    d = (dh - pl) + xl - th * yl
    tl = d / yh
    zh, zl = quick_two_sum(th, tl)
    if zh - zh != 0.0:
        return None
    exact = xl == 0.0 and yl == 0.0 and ph == xh and pl == 0.0 and d == 0.0
    return zh, zl, exact


def dd_sqrt(xh: float, xl: float) -> Optional[Tuple[float, float, bool]]:
    """One Newton/Karp correction of sqrt(hi): error <= (25/8) u^2."""
    if xh == 0.0 and xl == 0.0:
        return xh, 0.0, True  # sqrt(+-0) is +-0, exactly
    if not _TINY < xh < _SPLIT_MAX:
        # Negative, nonfinite, or out of the proven range (a tiny hi
        # yields r*r back in two_prod's underflow danger zone).
        return None
    r = math.sqrt(xh)
    ph, pl = two_prod(r, r)
    e = ((xh - ph) - pl) + xl
    corr = e / (2.0 * r)
    zh, zl = quick_two_sum(r, corr)
    if zh - zh != 0.0:
        return None
    exact = xl == 0.0 and ph == xh and pl == 0.0
    return zh, zl, exact


def dd_fma(
    xh: float, xl: float, yh: float, yl: float, zh: float, zl: float
) -> Optional[Tuple[float, float, bool]]:
    """Fused multiply-add as an exact-product chain.

    The product contributes at most 11u^2 relative to ``x * y`` and the
    final addition 3u^2 relative to the result, so callers charging
    drift must amplify the product term by ``2**(msb(x*y) - msb(result))``
    when the addition cancels — the same amplification the policy
    already applies to fma argument drift.  Exact only when both the
    product and the sum are error-free.
    """
    p = dd_mul(xh, xl, yh, yl)
    if p is None:
        return None
    s = dd_add(p[0], p[1], zh, zl)
    if s is None:
        return None
    return s[0], s[1], p[2] and s[2]


def dd_neg(xh: float, xl: float) -> Tuple[float, float, bool]:
    """Exact negation (component sign flips preserve normalization)."""
    return -xh, -xl, True


def dd_abs(xh: float, xl: float) -> Tuple[float, float, bool]:
    """Exact absolute value."""
    if xh < 0.0 or (xh == 0.0 and math.copysign(1.0, xh) < 0.0):
        return -xh, -xl, True
    return xh, xl, True


#: Binary kernels by operation symbol (unary kernels dispatch directly).
DD_KERNELS = {
    "+": dd_add,
    "-": dd_sub,
    "*": dd_mul,
    "/": dd_div,
}


def fits_precision(hi: float, lo: float, precision: int) -> bool:
    """True when ``hi + lo`` is representable in ``precision`` bits.

    An exactness claim must also fit the full oracle tier: a value the
    oracle would round cannot be byte-identical to the hardware tier's
    exact one.  Conservative span bound: the significand runs from
    ``msb(hi)`` down to at worst ``msb(lo) - 52``.
    """
    if lo == 0.0:
        return precision >= 53
    span = math.frexp(hi)[1] - math.frexp(lo)[1] + 53
    return span <= precision


# ----------------------------------------------------------------------
# The value type
# ----------------------------------------------------------------------

class DoubleDouble:
    """A normalized double-double value: exactly ``hi + lo``.

    Instances are always finite (kernels refuse to construct anything
    else) and immutable by convention.  The class mirrors the slice of
    the :class:`BigFloat` API the analysis touches on shadow values —
    predicates, ``msb_exponent``, ``neg``, comparisons, ``key`` — so
    policy code can hold either representation.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float = 0.0) -> None:
        self.hi = hi
        self.lo = lo

    # -- predicates (kernels guarantee finiteness) ---------------------

    def is_finite(self) -> bool:
        return True

    def is_nan(self) -> bool:
        return False

    def is_inf(self) -> bool:
        return False

    def is_zero(self) -> bool:
        return self.hi == 0.0

    def is_negative(self) -> bool:
        if self.hi == 0.0:
            return math.copysign(1.0, self.hi) < 0.0
        return self.hi < 0.0

    # -- structure -----------------------------------------------------

    @property
    def msb_exponent(self) -> int:
        """floor(log2(|value|)); exact despite rounding in ``hi``.

        ``hi = RN(value)`` can land one binade above the value only when
        it rounded up to an exact power of two, flagged by ``lo < 0``.
        """
        if self.hi == 0.0:
            raise ValueError(f"no msb exponent for {self!r}")
        mantissa, exponent = math.frexp(self.hi)
        if self.lo != 0.0 and abs(mantissa) == 0.5:
            if (self.hi > 0.0) == (self.lo < 0.0):
                return exponent - 2
        return exponent - 1

    def key(self) -> Tuple[str, float, float]:
        """Hashable identity (distinguishes zero signs via repr bits)."""
        return ("dd", self.hi, self.lo)

    def neg(self) -> "DoubleDouble":
        return DoubleDouble(-self.hi, -self.lo)

    def abs(self) -> "DoubleDouble":
        if self.is_negative():
            return DoubleDouble(-self.hi, -self.lo)
        return DoubleDouble(self.hi, self.lo)

    # -- conversions ---------------------------------------------------

    def to_float(self) -> float:
        """RN(value): the normalization invariant makes this ``hi``."""
        return self.hi

    def to_single(self) -> float:
        """Correctly round to binary32 (via the exact promotion; rare)."""
        return self.to_bigfloat().to_single()

    def to_bigfloat(self) -> BigFloat:
        """Exact conversion (both components are exact in binary)."""
        high = BigFloat.from_float(self.hi)
        if self.lo == 0.0:
            return high
        from repro.bigfloat import arith

        return arith.add_exact(high, BigFloat.from_float(self.lo))

    def to_fraction(self) -> Fraction:
        return Fraction(self.hi) + Fraction(self.lo)

    def __repr__(self) -> str:
        return f"DoubleDouble({self.hi!r}, {self.lo!r})"

    # -- comparisons (exact) -------------------------------------------
    #
    # Loop branches compare shadow counters on every iteration, so a
    # pair against another pair or a finite float is decided in
    # doubles: kernels keep every pair normalized (hi == RN(hi + lo))
    # and RN is monotone, so hi < hi' implies value < value', while
    # equal hi leaves lo to decide — the (hi, lo) tuple order is the
    # real order.  A finite float f is the normalized pair (f, 0.0).
    # BigFloat, int and non-finite operands compare through the exact
    # rational value.

    def _as_comparable(self, other: object):
        if isinstance(other, BigFloat):
            if not other.is_finite():
                return None
            return other.to_fraction()
        if isinstance(other, (int, float)):
            if isinstance(other, float) and not math.isfinite(other):
                return None
            return Fraction(other)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        pair = _pair_of(other)
        if pair is not None:
            return (self.hi, self.lo) == pair
        value = self._as_comparable(other)
        if value is NotImplemented:
            return NotImplemented
        return value is not None and self.to_fraction() == value

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return NotImplemented
        return not result

    def __lt__(self, other: object) -> bool:
        pair = _pair_of(other)
        if pair is not None:
            return (self.hi, self.lo) < pair
        value = self._as_comparable(other)
        if value is NotImplemented:
            return NotImplemented
        if value is None:  # vs inf / nan
            if isinstance(other, BigFloat) and other.is_inf():
                return other.sign == 0
            if isinstance(other, float) and math.isinf(other):
                return other > 0
            return False
        return self.to_fraction() < value

    def __gt__(self, other: object) -> bool:
        pair = _pair_of(other)
        if pair is not None:
            return (self.hi, self.lo) > pair
        value = self._as_comparable(other)
        if value is NotImplemented:
            return NotImplemented
        if value is None:
            if isinstance(other, BigFloat) and other.is_inf():
                return other.sign == 1
            if isinstance(other, float) and math.isinf(other):
                return other < 0
            return False
        return self.to_fraction() > value

    def __le__(self, other: object) -> bool:
        pair = _pair_of(other)
        if pair is not None:
            return (self.hi, self.lo) <= pair
        gt = self.__gt__(other)
        if gt is NotImplemented:
            return NotImplemented
        if isinstance(other, float) and math.isnan(other):
            return False
        if isinstance(other, BigFloat) and other.is_nan():
            return False
        return not gt

    def __ge__(self, other: object) -> bool:
        pair = _pair_of(other)
        if pair is not None:
            return (self.hi, self.lo) >= pair
        lt = self.__lt__(other)
        if lt is NotImplemented:
            return NotImplemented
        if isinstance(other, float) and math.isnan(other):
            return False
        if isinstance(other, BigFloat) and other.is_nan():
            return False
        return not lt

    # IEEE-style equality is not an equivalence relation across the
    # shadow representations; use .key() for identity-based hashing.
    __hash__ = None  # type: ignore[assignment]


def _pair_of(other: object) -> Optional[Tuple[float, float]]:
    """``other`` as a normalized ``(hi, lo)`` pair, when it has one.

    Pairs and finite floats qualify; everything else (BigFloat, int,
    inf, NaN) returns None and takes the exact rational path.
    """
    if type(other) is DoubleDouble:
        return other.hi, other.lo
    if type(other) is float and other - other == 0.0:
        return other, 0.0
    return None


def from_double(value: float) -> DoubleDouble:
    """Wrap a finite double exactly (the common leaf constructor)."""
    return DoubleDouble(value, 0.0)
