"""Differential tests of BigFloat arithmetic.

At precision 53 our exact-then-round arithmetic must agree bit-for-bit
with hardware doubles (including signed zeros, infinities and NaNs); at
high precision it must agree with mpmath (used here as a test oracle
only — the library itself depends on nothing).
"""

import math
from fractions import Fraction

import pytest

mpmath = pytest.importorskip(
    "mpmath", reason="mpmath is the arithmetic oracle"
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bigfloat import BigFloat, Context, DOUBLE_CONTEXT, ONE, arith

finite = st.floats(allow_nan=False, allow_infinity=False)
any_doubles = st.floats(allow_nan=True, allow_infinity=True)
reasonable = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e30, max_value=1e30
)


def same_double(ours: float, hardware: float) -> bool:
    if math.isnan(hardware):
        return math.isnan(ours)
    if ours != hardware:
        return False
    if hardware == 0.0:
        return math.copysign(1.0, ours) == math.copysign(1.0, hardware)
    return True


def bf(x: float) -> BigFloat:
    return BigFloat.from_float(x)


class TestDoubleAgreement:
    """Precision-53 arithmetic must exactly match the hardware."""

    @given(any_doubles, any_doubles)
    @settings(max_examples=400)
    def test_add(self, x, y):
        ours = arith.add(bf(x), bf(y), DOUBLE_CONTEXT).to_float()
        assert same_double(ours, x + y)

    @given(any_doubles, any_doubles)
    @settings(max_examples=400)
    def test_sub(self, x, y):
        ours = arith.sub(bf(x), bf(y), DOUBLE_CONTEXT).to_float()
        assert same_double(ours, x - y)

    @given(any_doubles, any_doubles)
    @settings(max_examples=400)
    def test_mul(self, x, y):
        ours = arith.mul(bf(x), bf(y), DOUBLE_CONTEXT).to_float()
        expected = x * y
        # Hardware multiply can underflow/overflow; BigFloat has unbounded
        # exponents, so only compare where the double result is faithful.
        # Results in the subnormal range are also skipped: rounding to 53
        # bits and then to the subnormal lattice double-rounds, which is
        # an artifact of this test setup, not of the library (the
        # analysis uses apply_double for hardware semantics).
        if expected == 0.0 and x != 0.0 and y != 0.0:
            return  # hardware underflew; we keep the exact tiny value
        if math.isinf(expected) and not (math.isinf(x) or math.isinf(y)):
            return  # hardware overflew
        if expected != 0.0 and abs(expected) < 2.0 ** -1021:
            return  # subnormal territory (double-rounding artifact)
        assert same_double(ours, expected)

    @given(any_doubles, any_doubles)
    @settings(max_examples=400)
    def test_div(self, x, y):
        result = arith.div(bf(x), bf(y), DOUBLE_CONTEXT)
        if (
            x not in (0.0,)
            and not math.isinf(x)
            and not math.isnan(x)
            and y not in (0.0,)
            and not math.isinf(y)
            and not math.isnan(y)
        ):
            exact = Fraction(x) / Fraction(y)
            if exact != 0 and abs(exact) < Fraction(2) ** -1021:
                return  # hardware underflow / subnormal double-rounding
            if abs(exact) >= Fraction(2) ** 1020:
                return  # hardware overflow neighbourhood
        try:
            expected = x / y
        except ZeroDivisionError:
            if x == 0.0 or math.isnan(x):
                expected = math.nan
            else:
                expected = math.copysign(math.inf, x) * math.copysign(1.0, y)
        assert same_double(result.to_float(), expected)

    @given(finite)
    @settings(max_examples=300)
    def test_sqrt(self, x):
        ours = arith.sqrt(bf(x), DOUBLE_CONTEXT).to_float()
        if x < 0:
            assert math.isnan(ours)
        else:
            assert same_double(ours, math.sqrt(x))

    def test_div_signs(self):
        assert arith.div(bf(1.0), bf(0.0)).to_float() == math.inf
        assert arith.div(bf(1.0), bf(-0.0)).to_float() == -math.inf
        assert arith.div(bf(-1.0), bf(0.0)).to_float() == -math.inf
        assert math.isnan(arith.div(bf(0.0), bf(0.0)).to_float())
        zero = arith.div(bf(0.0), bf(-3.0)).to_float()
        assert zero == 0.0 and math.copysign(1.0, zero) == -1.0

    def test_add_zero_signs(self):
        result = arith.add(bf(0.0), bf(-0.0)).to_float()
        assert result == 0.0 and math.copysign(1.0, result) == 1.0
        result = arith.add(bf(-0.0), bf(-0.0)).to_float()
        assert math.copysign(1.0, result) == -1.0

    def test_exact_cancellation_is_positive_zero(self):
        result = arith.sub(bf(5.0), bf(5.0)).to_float()
        assert result == 0.0 and math.copysign(1.0, result) == 1.0

    def test_inf_arithmetic(self):
        inf = bf(math.inf)
        assert math.isnan(arith.add(inf, inf.neg()).to_float())
        assert math.isnan(arith.mul(inf, bf(0.0)).to_float())
        assert arith.div(bf(1.0), inf).to_float() == 0.0


class TestFarPath:
    """Operands too far apart to interact still round correctly."""

    def test_tiny_addend_rounds_to_big(self):
        big = bf(1.0)
        tiny = BigFloat(0, 1, -500)
        assert arith.add(big, tiny, DOUBLE_CONTEXT).to_float() == 1.0

    def test_tiny_addend_direction_up(self):
        from repro.bigfloat import ROUND_UP

        ctx = Context(precision=53, rounding=ROUND_UP)
        result = arith.add(bf(1.0), BigFloat(0, 1, -500), ctx).to_float()
        assert result == math.nextafter(1.0, 2.0)

    def test_tiny_subtrahend_direction_down(self):
        from repro.bigfloat import ROUND_DOWN

        ctx = Context(precision=53, rounding=ROUND_DOWN)
        result = arith.sub(bf(1.0), BigFloat(0, 1, -500), ctx).to_float()
        assert result == math.nextafter(1.0, 0.0)

    def test_far_path_tie_breaking(self):
        # 1 + 2^-53 is an exact tie at precision 53 -> even (stays 1.0);
        # but with anything below, it must round up.
        ctx = DOUBLE_CONTEXT
        tie = BigFloat(0, 1, -53)
        assert arith.add(bf(1.0), tie, ctx).to_float() == 1.0
        above_tie = arith.add_exact(tie, BigFloat(0, 1, -500))
        assert arith.add(bf(1.0), above_tie, ctx).to_float() > 1.0


class TestExactHelpers:
    @given(reasonable, reasonable)
    def test_add_exact_is_exact(self, x, y):
        result = arith.add_exact(bf(x), bf(y))
        assert result.to_fraction() == Fraction(x) + Fraction(y)

    def test_add_exact_rejects_specials(self):
        with pytest.raises(ValueError):
            arith.add_exact(bf(math.inf), ONE)

    @given(reasonable, reasonable, reasonable)
    @settings(max_examples=200)
    # z lies inside the exact product's 106 bits, far below its top.
    @example(1.2480316042014408, 1.1631711483092892, -3.4120302759582336e-19)
    def test_fma_single_rounding(self, x, y, z):
        ours = arith.fma(bf(x), bf(y), bf(z), DOUBLE_CONTEXT)
        exact = Fraction(x) * Fraction(y) + Fraction(z)
        if exact != 0 and (abs(exact) < Fraction(2) ** -1080 or abs(exact) > Fraction(2) ** 1024):
            return
        expected = BigFloat.from_fraction(exact, 53).to_float() if exact else 0.0
        if exact == 0:
            assert ours.to_float() == 0.0
        else:
            assert ours.to_float() == expected


class TestRootsAndFriends:
    @given(st.integers(0, 10 ** 12))
    def test_cbrt_perfect_cubes(self, n):
        cube = BigFloat.from_int(n ** 3)
        assert arith.cbrt(cube, Context(precision=64)).to_fraction() == n

    def test_cbrt_negative(self):
        assert arith.cbrt(bf(-27.0), DOUBLE_CONTEXT).to_float() == -3.0

    def test_cbrt_specials(self):
        assert math.isnan(arith.cbrt(BigFloat.nan()).to_float())
        assert arith.cbrt(bf(-0.0)).to_float() == 0.0
        assert arith.cbrt(bf(math.inf)).to_float() == math.inf

    @given(finite, finite)
    @settings(max_examples=200)
    def test_hypot(self, x, y):
        ours = arith.hypot(bf(x), bf(y), DOUBLE_CONTEXT).to_float()
        if math.isinf(x) or math.isinf(y):
            assert ours == math.inf
            return
        exact = Fraction(x) ** 2 + Fraction(y) ** 2
        if exact and abs(exact) > Fraction(2) ** 2100:
            return
        expected = math.hypot(x, y)
        if math.isinf(expected):
            return
        # math.hypot is not always correctly rounded; allow 1 ulp.
        assert abs(ours - expected) <= math.ulp(expected)

    @given(finite, finite)
    @settings(max_examples=200)
    def test_fmod_matches_libm(self, x, y):
        ours = arith.fmod(bf(x), bf(y), DOUBLE_CONTEXT).to_float()
        expected = math.fmod(x, y) if y != 0.0 else math.nan
        assert same_double(ours, expected)

    @given(finite, finite)
    @settings(max_examples=200)
    def test_remainder_matches_libm(self, x, y):
        ours = arith.remainder(bf(x), bf(y), DOUBLE_CONTEXT).to_float()
        if y == 0.0 or math.isinf(x):
            assert math.isnan(ours)
            return
        assert same_double(ours, math.remainder(x, y))

    def test_min_max_nan_handling(self):
        nan = BigFloat.nan()
        assert arith.fmin(nan, ONE) == ONE
        assert arith.fmax(ONE, nan) == ONE
        assert arith.fmin(nan, nan).is_nan()

    def test_min_max_zero_signs(self):
        pos, neg = BigFloat.zero(0), BigFloat.zero(1)
        assert arith.fmin(pos, neg).sign == 1
        assert arith.fmax(neg, pos).sign == 0

    @given(finite)
    def test_integer_rounding(self, x):
        value = bf(x)
        assert arith.trunc(value).to_float() == math.trunc(x) if abs(x) < 1e308 else True
        assert arith.floor(value).to_float() == math.floor(x)
        assert arith.ceil(value).to_float() == math.ceil(x)

    def test_round_modes(self):
        assert arith.round_half_away(bf(2.5)).to_float() == 3.0
        assert arith.round_half_even(bf(2.5)).to_float() == 2.0
        assert arith.round_half_away(bf(-2.5)).to_float() == -3.0
        assert arith.round_half_even(bf(-2.5)).to_float() == -2.0

    def test_fdim(self):
        assert arith.fdim(bf(3.0), bf(1.0)).to_float() == 2.0
        assert arith.fdim(bf(1.0), bf(3.0)).to_float() == 0.0
        assert math.isnan(arith.fdim(BigFloat.nan(), ONE).to_float())


class TestHighPrecisionVsMpmath:
    """Arbitrary-precision results cross-checked against mpmath."""

    PRECISION = 240

    def to_mpf(self, x: BigFloat):
        sign = -1 if x.sign else 1
        return mpmath.mpf(sign * x.man) * mpmath.mpf(2) ** x.exp

    @given(finite, finite)
    @settings(max_examples=150)
    def test_add_matches(self, x, y):
        with mpmath.workprec(self.PRECISION + 20):
            expected = mpmath.mpf(x) + mpmath.mpf(y)
            ours = arith.add(bf(x), bf(y), Context(precision=self.PRECISION))
            assert mpmath.almosteq(
                self.to_mpf(ours), expected, rel_eps=mpmath.mpf(2) ** -(self.PRECISION - 2)
            ) or (ours.is_zero() and expected == 0)

    @given(st.floats(min_value=1e-100, max_value=1e100))
    @settings(max_examples=150)
    def test_sqrt_matches(self, x):
        with mpmath.workprec(self.PRECISION + 20):
            expected = mpmath.sqrt(mpmath.mpf(x))
            ours = arith.sqrt(bf(x), Context(precision=self.PRECISION))
            assert mpmath.almosteq(
                self.to_mpf(ours), expected, rel_eps=mpmath.mpf(2) ** -(self.PRECISION - 2)
            )
