"""Correctly rounded basic arithmetic on :class:`BigFloat` values.

Every function takes an optional :class:`Context`; when omitted the
module-default context is used.  All operations follow IEEE-754 special
value semantics (signed zeros, infinities, NaN propagation) so that
shadow-real execution hits the same singularities the hardware does —
this is what lets the Gram-Schmidt case study surface its NaN.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.bigfloat.bigfloat import (
    BigFloat,
    K_FINITE,
    K_INF,
    K_NAN,
    _compare_magnitude,
)
from repro.bigfloat.context import Context, getcontext
from repro.bigfloat.rounding import (
    ROUND_DOWN,
    ROUND_NEAREST_EVEN,
    fold_sticky,
    round_mantissa,
)

#: Largest exponent-alignment shift we materialize before switching to
#: sticky-bit approximation (values further apart than this cannot
#: interact above the rounding precision anyway).
_MAX_ALIGN_SLACK = 8


def _ctx(context: Optional[Context]) -> Context:
    return context if context is not None else getcontext()


def _round(sign: int, man: int, exp: int, context: Context) -> BigFloat:
    if man == 0:
        return BigFloat.zero(sign)
    man, exp, __ = round_mantissa(sign, man, exp, context.precision, context.rounding)
    return BigFloat(sign, man, exp)


# ----------------------------------------------------------------------
# Addition / subtraction
# ----------------------------------------------------------------------

def _add_special(a: BigFloat, b: BigFloat,
                 context: Context) -> Optional[BigFloat]:
    """IEEE special/zero-operand cases of a + b (None = general path).

    Shared with the native substrate (:mod:`repro.bigfloat.backend`) so
    every backend agrees bit-for-bit on signed-zero semantics."""
    if a.kind == K_NAN or b.kind == K_NAN:
        return BigFloat.nan()
    if a.kind == K_INF or b.kind == K_INF:
        if a.kind == K_INF and b.kind == K_INF:
            if a.sign != b.sign:
                return BigFloat.nan()
            return a
        return a if a.kind == K_INF else b
    if a.man == 0 and b.man == 0:
        if a.sign == b.sign:
            return BigFloat.zero(a.sign)
        # +0 + -0 is +0 except when rounding toward -inf.
        return _cancellation_zero(context)
    if a.man == 0:
        return _round(b.sign, b.man, b.exp, context)
    if b.man == 0:
        return _round(a.sign, a.man, a.exp, context)
    return None


def _cancellation_zero(context: Context) -> BigFloat:
    """Exact cancellation: +0, or -0 when rounding toward -inf."""
    return BigFloat.zero(1 if context.rounding == ROUND_DOWN else 0)


def add(a: BigFloat, b: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """Correctly rounded a + b."""
    context = _ctx(context)
    special = _add_special(a, b, context)
    if special is not None:
        return special
    sign, man, exp = _add_magnitudes(
        a.sign, a.man, a.exp, b.sign, b.man, b.exp, context
    )
    if man == 0:
        return _cancellation_zero(context)
    return _round(sign, man, exp, context)


def sub(a: BigFloat, b: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """Correctly rounded a - b."""
    return add(a, b.neg(), context)


def add_exact(a: BigFloat, b: BigFloat) -> BigFloat:
    """Exact (unrounded) sum of two finite values.

    Used where cancellation must be captured perfectly, e.g. computing
    x - 1 before a log1p expansion.  The caller is responsible for the
    operands' binades being close enough that exact alignment is cheap.
    """
    if a.kind != K_FINITE or b.kind != K_FINITE:
        raise ValueError("add_exact requires finite operands")
    if a.man == 0:
        return b if b.man else BigFloat.zero(a.sign & b.sign)
    if b.man == 0:
        return a
    exp = min(a.exp, b.exp)
    value_a = a.man << (a.exp - exp)
    value_b = b.man << (b.exp - exp)
    total = (-value_a if a.sign else value_a) + (-value_b if b.sign else value_b)
    if total == 0:
        return BigFloat.zero(0)
    return BigFloat(1 if total < 0 else 0, abs(total), exp)


def sub_exact(a: BigFloat, b: BigFloat) -> BigFloat:
    """Exact (unrounded) difference of two finite values."""
    return add_exact(a, b.neg())


def _add_magnitudes(
    sign_a: int, man_a: int, exp_a: int, sign_b: int, man_b: int, exp_b: int,
    context: Context,
) -> Tuple[int, int, int]:
    """Signed exact sum of two nonzero finite values.

    When the operands' binades are too far apart to interact within the
    rounding precision, the smaller operand collapses to a sticky bit —
    the classic far-path optimization, which also keeps alignment shifts
    bounded for wildly different exponents.
    """
    msb_a = exp_a + man_a.bit_length()
    msb_b = exp_b + man_b.bit_length()
    if msb_a < msb_b or (msb_a == msb_b and exp_a > exp_b):
        sign_a, man_a, exp_a, sign_b, man_b, exp_b = (
            sign_b, man_b, exp_b, sign_a, man_a, exp_a,
        )
        msb_a, msb_b = msb_b, msb_a
    gap = msb_a - msb_b
    if gap > context.precision + _MAX_ALIGN_SLACK and msb_b <= exp_a:
        # Far path: b only matters as a direction hint strictly below the
        # rounding precision, so pad a out and fold b into one sticky bit.
        # b must also lie below a's last bit: a wider than the precision
        # (a double at 35 bits, an fma's exact product) keeps bits below
        # the rounding point, and b can carry into them.
        pad = context.precision + 4
        shifted = man_a << pad
        exp = exp_a - pad
        if sign_a == sign_b:
            return sign_a, shifted | 1, exp
        # |a| dominates, so the sign stays a's; nudge strictly toward zero.
        return sign_a, shifted - 1, exp
    # Near path: align exactly (shift bounded by gap + mantissa widths).
    exp = min(exp_a, exp_b)
    value_a = man_a << (exp_a - exp)
    value_b = man_b << (exp_b - exp)
    total = (-value_a if sign_a else value_a) + (-value_b if sign_b else value_b)
    if total == 0:
        return 0, 0, 0
    return (1, -total, exp) if total < 0 else (0, total, exp)


# ----------------------------------------------------------------------
# Multiplication / division / fma
# ----------------------------------------------------------------------

def _mul_special(a: BigFloat, b: BigFloat,
                 context: Context) -> Optional[BigFloat]:
    """IEEE special/zero-operand cases of a * b (None = general path)."""
    if a.kind == K_NAN or b.kind == K_NAN:
        return BigFloat.nan()
    sign = a.sign ^ b.sign
    if a.kind == K_INF or b.kind == K_INF:
        if a.is_zero() or b.is_zero():
            return BigFloat.nan()
        return BigFloat.inf(sign)
    if a.man == 0 or b.man == 0:
        return BigFloat.zero(sign)
    return None


def mul(a: BigFloat, b: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """Correctly rounded a * b."""
    context = _ctx(context)
    special = _mul_special(a, b, context)
    if special is not None:
        return special
    return _round(a.sign ^ b.sign, a.man * b.man, a.exp + b.exp, context)


def _div_special(a: BigFloat, b: BigFloat,
                 context: Context) -> Optional[BigFloat]:
    """IEEE special/zero-operand cases of a / b (None = general path)."""
    if a.kind == K_NAN or b.kind == K_NAN:
        return BigFloat.nan()
    sign = a.sign ^ b.sign
    if a.kind == K_INF:
        if b.kind == K_INF:
            return BigFloat.nan()
        return BigFloat.inf(sign)
    if b.kind == K_INF:
        return BigFloat.zero(sign)
    if b.man == 0:
        if a.man == 0:
            return BigFloat.nan()
        return BigFloat.inf(sign)
    if a.man == 0:
        return BigFloat.zero(sign)
    return None


def div(a: BigFloat, b: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """Correctly rounded a / b with IEEE zero/infinity semantics."""
    context = _ctx(context)
    special = _div_special(a, b, context)
    if special is not None:
        return special
    sign = a.sign ^ b.sign
    # Produce precision + 3 quotient bits then fold the remainder.
    shift = max(0, context.precision + 3 - a.man.bit_length() + b.man.bit_length())
    quotient, remainder = divmod(a.man << shift, b.man)
    exp = a.exp - b.exp - shift
    quotient, exp = fold_sticky(quotient, exp, remainder != 0)
    return _round(sign, quotient, exp, context)


def _fma_special(a: BigFloat, b: BigFloat, c: BigFloat,
                 context: Context) -> Optional[BigFloat]:
    """Special cases of fma — anything but a finite nonzero product."""
    if a.kind == K_NAN or b.kind == K_NAN or c.kind == K_NAN:
        return BigFloat.nan()
    if a.kind == K_INF or b.kind == K_INF or c.kind == K_INF:
        product = mul(a, b, context.widened(4))
        return add(product, c, context)
    if a.man == 0 or b.man == 0:
        return add(mul(a, b, context), c, context)
    return None


def fma(a: BigFloat, b: BigFloat, c: BigFloat,
        context: Optional[Context] = None) -> BigFloat:
    """Fused multiply-add: a*b + c with a single rounding."""
    context = _ctx(context)
    special = _fma_special(a, b, c, context)
    if special is not None:
        return special
    # Finite nonzero product: it is exact as integers, so add once.
    product_sign = a.sign ^ b.sign
    product_man = a.man * b.man
    product_exp = a.exp + b.exp
    if c.man == 0:
        result = _round(product_sign, product_man, product_exp, context)
        if result.is_zero():
            return BigFloat.zero(product_sign)
        return result
    sign, man, exp = _add_magnitudes(
        product_sign, product_man, product_exp, c.sign, c.man, c.exp, context
    )
    if man == 0:
        return BigFloat.zero(1 if context.rounding == ROUND_DOWN else 0)
    return _round(sign, man, exp, context)


# ----------------------------------------------------------------------
# Roots
# ----------------------------------------------------------------------

def sqrt(a: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """Correctly rounded square root; sqrt(-0) = -0, sqrt(x<0) = NaN."""
    context = _ctx(context)
    if a.kind == K_NAN:
        return BigFloat.nan()
    if a.is_zero():
        return a
    if a.sign == 1:
        return BigFloat.nan()
    if a.kind == K_INF:
        return BigFloat.inf(0)
    man, exp = a.man, a.exp
    if exp & 1:
        man <<= 1
        exp -= 1
    # Scale so the integer root carries precision + 3 bits.
    target_bits = 2 * (context.precision + 3)
    scale = max(0, target_bits - man.bit_length())
    scale += scale & 1
    scaled = man << scale
    root = math.isqrt(scaled)
    inexact = root * root != scaled
    result_exp = (exp - scale) // 2
    root, result_exp = fold_sticky(root, result_exp, inexact)
    return _round(0, root, result_exp, context)


def _cbrt_special(a: BigFloat, context: Context) -> Optional[BigFloat]:
    if a.kind == K_NAN:
        return BigFloat.nan()
    if a.is_zero():
        return a
    if a.kind == K_INF:
        return a
    return None


def cbrt(a: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """Correctly rounded cube root (defined for negative inputs)."""
    context = _ctx(context)
    special = _cbrt_special(a, context)
    if special is not None:
        return special
    man, exp = a.man, a.exp
    # Align the exponent to a multiple of 3 (shift the mantissa up by
    # exp mod 3 so the final exponent division by 3 is exact).
    shift = exp % 3
    man <<= shift
    exp -= shift
    target_bits = 3 * (context.precision + 3)
    scale = max(0, target_bits - man.bit_length())
    scale += (-scale) % 3
    scaled = man << scale
    root = _integer_cube_root(scaled)
    inexact = root ** 3 != scaled
    result_exp = (exp - scale) // 3
    root, result_exp = fold_sticky(root, result_exp, inexact)
    return _round(a.sign, root, result_exp, context)


def _integer_cube_root(n: int) -> int:
    """floor(n ** (1/3)) for non-negative integers, by Newton iteration."""
    if n < 0:
        raise ValueError("negative operand")
    if n == 0:
        return 0
    guess = 1 << -(-n.bit_length() // 3)
    while True:
        better = (2 * guess + n // (guess * guess)) // 3
        if better >= guess:
            break
        guess = better
    while guess ** 3 > n:
        guess -= 1
    while (guess + 1) ** 3 <= n:
        guess += 1
    return guess


def _hypot_special(a: BigFloat, b: BigFloat,
                   context: Context) -> Optional[BigFloat]:
    if a.kind == K_NAN or b.kind == K_NAN:
        if a.kind == K_INF or b.kind == K_INF:
            return BigFloat.inf(0)  # C99: hypot(inf, nan) = inf
        return BigFloat.nan()
    if a.kind == K_INF or b.kind == K_INF:
        return BigFloat.inf(0)
    return None


def hypot(a: BigFloat, b: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """sqrt(a*a + b*b) with one rounding (squares and sum are exact)."""
    context = _ctx(context)
    special = _hypot_special(a, b, context)
    if special is not None:
        return special
    wide = context.widened(8)
    squares = add(mul(a, a, wide), mul(b, b, wide), wide)
    return sqrt(squares, context)


# ----------------------------------------------------------------------
# Sign-structured operations
# ----------------------------------------------------------------------

def fmin(a: BigFloat, b: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """C99 fmin: NaN is ignored when the other operand is a number."""
    if a.kind == K_NAN:
        return b
    if b.kind == K_NAN:
        return a
    if a.is_zero() and b.is_zero():
        return a if a.sign >= b.sign else b
    return a if a <= b else b


def fmax(a: BigFloat, b: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """C99 fmax: NaN is ignored when the other operand is a number."""
    if a.kind == K_NAN:
        return b
    if b.kind == K_NAN:
        return a
    if a.is_zero() and b.is_zero():
        return a if a.sign <= b.sign else b
    return a if a >= b else b


def fdim(a: BigFloat, b: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """C99 fdim: a - b when a > b, else +0 (NaN propagates)."""
    context = _ctx(context)
    if a.kind == K_NAN or b.kind == K_NAN:
        return BigFloat.nan()
    if a > b:
        return sub(a, b, context)
    return BigFloat.zero(0)


# ----------------------------------------------------------------------
# Integer rounding
# ----------------------------------------------------------------------

def _to_integer_parts(a: BigFloat) -> Tuple[int, int]:
    """(integer part toward zero, nonzero-fraction flag) of finite a."""
    if a.exp >= 0:
        return a.man << a.exp, 0
    integral = a.man >> -a.exp
    fraction = a.man - (integral << -a.exp)
    return integral, 1 if fraction else 0


def trunc(a: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """Round toward zero to an integer."""
    if a.kind != K_FINITE or a.man == 0:
        return a
    integral, __ = _to_integer_parts(a)
    if integral == 0:
        return BigFloat.zero(a.sign)
    return BigFloat(a.sign, integral, 0)


def floor(a: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """Round toward -infinity to an integer."""
    if a.kind != K_FINITE or a.man == 0:
        return a
    integral, has_fraction = _to_integer_parts(a)
    if a.sign and has_fraction:
        integral += 1
    if integral == 0:
        return BigFloat.zero(a.sign)
    return BigFloat(a.sign, integral, 0)


def ceil(a: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """Round toward +infinity to an integer."""
    if a.kind != K_FINITE or a.man == 0:
        return a
    integral, has_fraction = _to_integer_parts(a)
    if not a.sign and has_fraction:
        integral += 1
    if integral == 0:
        return BigFloat.zero(a.sign)
    return BigFloat(a.sign, integral, 0)


def round_half_even(a: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """Round to the nearest integer, ties to even (C99 nearbyint/rint)."""
    if a.kind != K_FINITE or a.man == 0:
        return a
    if a.exp >= 0:
        return a
    shift = -a.exp
    integral = a.man >> shift
    remainder = a.man - (integral << shift)
    half = 1 << (shift - 1)
    if remainder > half or (remainder == half and integral & 1):
        integral += 1
    if integral == 0:
        return BigFloat.zero(a.sign)
    return BigFloat(a.sign, integral, 0)


def round_half_away(a: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """Round to the nearest integer, ties away from zero (C99 round)."""
    if a.kind != K_FINITE or a.man == 0:
        return a
    if a.exp >= 0:
        return a
    shift = -a.exp
    integral = a.man >> shift
    remainder = a.man - (integral << shift)
    half = 1 << (shift - 1)
    if remainder >= half:
        integral += 1
    if integral == 0:
        return BigFloat.zero(a.sign)
    return BigFloat(a.sign, integral, 0)


# ----------------------------------------------------------------------
# Remainders
# ----------------------------------------------------------------------

#: Refuse fmod/remainder when aligning the operands would materialize
#: more than this many bits (would indicate a pathological program).
_MAX_REMAINDER_SHIFT = 1 << 24


def fmod(a: BigFloat, b: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """C99 fmod: exact remainder with the sign of ``a``."""
    if a.kind == K_NAN or b.kind == K_NAN:
        return BigFloat.nan()
    if a.kind == K_INF or b.is_zero():
        return BigFloat.nan()
    if b.kind == K_INF or a.is_zero():
        return a
    remainder_man, exp = _aligned_remainder(a, b)
    if remainder_man == 0:
        return BigFloat.zero(a.sign)
    return BigFloat(a.sign, remainder_man, exp)


def remainder(a: BigFloat, b: BigFloat, context: Optional[Context] = None) -> BigFloat:
    """IEEE remainder: a - round_to_nearest(a/b) * b (exact)."""
    if a.kind == K_NAN or b.kind == K_NAN:
        return BigFloat.nan()
    if a.kind == K_INF or b.is_zero():
        return BigFloat.nan()
    if b.kind == K_INF or a.is_zero():
        return a
    remainder_man, exp = _aligned_remainder(a, b)
    # Fold into [-|b|/2, |b|/2] with ties toward the even quotient.
    man_b = b.man << (b.exp - exp)
    result = remainder_man
    quotient_odd = _remainder_quotient_parity(a, b, exp)
    double_result = 2 * result
    if double_result > man_b or (double_result == man_b and quotient_odd):
        result = result - man_b
    if result == 0:
        return BigFloat.zero(a.sign)
    sign = a.sign if result > 0 else 1 - a.sign
    return BigFloat(sign, abs(result), exp)


def _aligned_remainder(a: BigFloat, b: BigFloat) -> Tuple[int, int]:
    """(|a| mod |b|) as an integer at the common exponent."""
    exp = min(a.exp, b.exp)
    shift_a = a.exp - exp
    shift_b = b.exp - exp
    if max(shift_a, shift_b) > _MAX_REMAINDER_SHIFT:
        raise OverflowError("fmod operands too far apart to align exactly")
    man_a = a.man << shift_a
    man_b = b.man << shift_b
    return man_a % man_b, exp


def _remainder_quotient_parity(a: BigFloat, b: BigFloat, exp: int) -> bool:
    man_a = a.man << (a.exp - exp)
    man_b = b.man << (b.exp - exp)
    return bool((man_a // man_b) & 1)
