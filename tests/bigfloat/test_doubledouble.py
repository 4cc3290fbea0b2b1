"""The double-double hardware tier vs exact rational ground truth.

Two families of properties pin the kernels of
:mod:`repro.bigfloat.doubledouble`:

* **Error-bound soundness** — whenever a kernel accepts an operation
  (returns a result instead of ``None``), the result's relative error
  against exact ``Fraction`` arithmetic is within the single per-op
  charge the adaptive policy books for it (``2**DD_REL_ERR_LOG2``
  relative, i.e. far inside the working tier's trust limit).  An
  understated bound here would let a wrong hardware-tier decision
  masquerade as certified, so this is the escalation-soundness
  anchor.
* **Exactness honesty** — a kernel may only set ``exact=True`` when
  the result equals the mathematical value *exactly* (checked in
  ``Fraction`` arithmetic); the policy propagates EXACT drift through
  such ops, so a false claim would silently corrupt drift accounting.

Directed cases cover the IEEE edge geography: signed zeros, exact
cancellation, subnormals, the deep-underflow guard band, overflow,
NaN/inf operands, and the Dekker-splitting range limit — each must
either produce the bit-exact IEEE answer or bail out with ``None``
(promote to the working tier); silently wrong values are the only
forbidden outcome.
"""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigfloat import BigFloat, Context
from repro.bigfloat import doubledouble as dd_module
from repro.bigfloat.doubledouble import (
    DD_KERNELS,
    DD_REL_ERR_LOG2,
    DoubleDouble,
    dd_abs,
    dd_add,
    dd_div,
    dd_fma,
    dd_mul,
    dd_neg,
    dd_sqrt,
    dd_sub,
    fits_precision,
    from_double,
    quick_two_sum,
    two_prod,
    two_sum,
)

#: The policy's per-op relative charge; every accepted inexact result
#: must land within it.
REL_BOUND = Fraction(1, 2 ** -DD_REL_ERR_LOG2)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def frac(hi: float, lo: float = 0.0) -> Fraction:
    return Fraction(hi) + Fraction(lo)


def random_double(rng: random.Random, emin: int = -300, emax: int = 300) -> float:
    mantissa = rng.random() + 0.5
    value = math.ldexp(mantissa, rng.randint(emin, emax))
    return -value if rng.random() < 0.5 else value


def random_dd(rng: random.Random, emin: int = -300, emax: int = 300):
    """A normalized (hi, lo) pair with a genuinely wide significand."""
    hi = random_double(rng, emin, emax)
    lo = math.ldexp(rng.random() - 0.5, math.frexp(hi)[1] - 54)
    hi, lo = two_sum(hi, lo)
    return hi, lo


def check_binary(op: str, xh, xl, yh, yl) -> None:
    """One kernel call against the Fraction oracle."""
    kernel = DD_KERNELS[op]
    outcome = kernel(xh, xl, yh, yl)
    if outcome is None:
        return  # a promotion is always sound
    zh, zl, exact = outcome
    x, y = frac(xh, xl), frac(yh, yl)
    truth = {
        "+": x + y, "-": x - y, "*": x * y,
        "/": x / y if y else None,
    }[op]
    if truth is None:
        return
    got = frac(zh, zl)
    if exact:
        assert got == truth, (op, xh, xl, yh, yl)
    elif truth != 0:
        assert abs(got - truth) <= REL_BOUND * abs(truth), \
            (op, xh, xl, yh, yl)
    else:
        # An inexact kernel path may not claim an exact zero result.
        assert got == 0


class TestRandomizedOracle:
    OPS = ["+", "-", "*", "/"]

    @pytest.mark.parametrize("op", OPS)
    def test_wide_range_pairs(self, op):
        rng = random.Random(0xDD00 + ord(op[0]))
        for _ in range(400):
            xh, xl = random_dd(rng)
            yh, yl = random_dd(rng)
            check_binary(op, xh, xl, yh, yl)

    @pytest.mark.parametrize("op", OPS)
    def test_pure_double_operands(self, op):
        rng = random.Random(0xDD10 + ord(op[0]))
        for _ in range(400):
            check_binary(op, random_double(rng), 0.0,
                         random_double(rng), 0.0)

    @pytest.mark.parametrize("op", OPS)
    def test_near_cancellation(self, op):
        rng = random.Random(0xDD20 + ord(op[0]))
        for _ in range(400):
            xh, xl = random_dd(rng, -4, 4)
            # y within an ulp or two of x: additions cancel almost
            # fully, divisions land near 1.
            yh = xh * (1.0 + rng.choice([0.0, 2e-16, -2e-16, 1e-13]))
            yl = rng.choice([0.0, xl, -xl, math.ldexp(xl, -1)])
            check_binary(op, xh, xl, yh, yl)
            check_binary(op, xh, xl, -yh, -yl)

    @pytest.mark.parametrize("op", OPS)
    def test_extreme_exponents(self, op):
        rng = random.Random(0xDD30 + ord(op[0]))
        for _ in range(300):
            xh, xl = random_dd(rng, -1070, -950)  # subnormal territory
            yh, yl = random_dd(rng, 900, 1023)    # near overflow
            check_binary(op, xh, xl, yh, yl)
            check_binary(op, yh, yl, xh, xl)
            check_binary(op, xh, xl, *random_dd(rng, -1070, -950))
            check_binary(op, yh, yl, *random_dd(rng, 960, 1023))

    def test_sqrt_against_squared_residual(self):
        # sqrt truth is irrational; bound the error through the square:
        # z = s(1+e) implies |z^2 - x| / x ~ 2|e|, so 2*REL_BOUND plus
        # slack covers every accepted lane.
        rng = random.Random(0xDD40)
        for _ in range(600):
            xh, xl = random_dd(rng, -900, 900)
            xh, xl = abs(xh), (xl if xh > 0 else -xl)
            outcome = dd_sqrt(xh, xl)
            if outcome is None:
                continue
            zh, zl, exact = outcome
            z, x = frac(zh, zl), frac(xh, xl)
            if exact:
                assert z * z == x, (xh, xl)
            else:
                assert abs(z * z - x) <= 4 * REL_BOUND * x, (xh, xl)

    def test_fma_oracle(self):
        rng = random.Random(0xDD50)
        for _ in range(400):
            xh, xl = random_dd(rng, -100, 100)
            yh, yl = random_dd(rng, -100, 100)
            zh, zl = random_dd(rng, -100, 100)
            outcome = dd_fma(xh, xl, yh, yl, zh, zl)
            if outcome is None:
                continue
            rh, rl, exact = outcome
            truth = frac(xh, xl) * frac(yh, yl) + frac(zh, zl)
            got = frac(rh, rl)
            if exact:
                assert got == truth
            elif truth != 0:
                # Product error can be amplified by the final
                # cancellation; without cancellation (the generic
                # random case) 3 charges cover the chain.  Cancelling
                # cases promote via the policy's msb amplification,
                # which TestExactnessHonesty pins separately.
                cancel = abs(truth) / max(
                    abs(frac(xh, xl) * frac(yh, yl)), abs(frac(zh, zl))
                )
                if cancel > Fraction(1, 2 ** 40):
                    assert abs(got - truth) <= \
                        3 * REL_BOUND * abs(truth) / cancel


class TestDirectedEdges:
    def test_signed_zero_addition(self):
        assert dd_add(0.0, 0.0, -0.0, 0.0)[:2] == (0.0, 0.0)
        zh, zl, exact = dd_add(-0.0, 0.0, -0.0, 0.0)
        assert bits(zh) == bits(-0.0) and exact
        zh, zl, exact = dd_add(-0.0, 0.0, 5.0, 1e-20)
        assert (zh, zl, exact) == (5.0, 1e-20, True)

    def test_exact_cancellation_is_positive_zero(self):
        tiny = math.ldexp(1.0, -60)
        for zh, zl, exact in (dd_add(1.5, 0.0, -1.5, 0.0),
                              dd_add(1.0, tiny, -1.0, -tiny),
                              dd_sub(1.0, tiny, 1.0, tiny),
                              dd_sub(-1.0, -tiny, -1.0, -tiny)):
            assert bits(zh) == bits(0.0) and zl == 0.0 and exact

    def test_tenth_accumulator_stays_exact(self):
        # Every partial sum k * RN(0.1) fits a double-double, including
        # the steps where the accumulator already carries a low word.
        for kernel, step in ((dd_add, 0.1), (dd_sub, -0.1)):
            hi, lo = 0.0, 0.0
            for k in range(1, 5001):
                hi, lo, exact = kernel(hi, lo, step, 0.0)
                assert exact, (kernel, k, hi, lo)
            assert frac(hi, lo) == 5000 * Fraction(0.1)
            assert lo != 0.0

    def test_rounded_pair_sum_is_not_exact(self):
        # 1 + 2**-200 + 2**-400 needs more than 106 significant bits.
        zh, zl, exact = dd_add(1.0, math.ldexp(1.0, -200),
                               math.ldexp(1.0, -400), 0.0)
        assert (zh, zl) == (1.0, math.ldexp(1.0, -200)) and not exact

    def test_zero_products_keep_ieee_sign(self):
        zh, zl, exact = dd_mul(-0.0, 0.0, 7.0, 0.0)
        assert bits(zh) == bits(-0.0) and exact
        # Nonzero operands whose product underflows to zero are NOT a
        # signed-zero case — that is precision loss, so promote.
        assert dd_mul(-1e-200, 0.0, -1e-200, 0.0) is None

    def test_zero_dividend_keeps_ieee_sign(self):
        zh, zl, exact = dd_div(-0.0, 0.0, 3.0, 0.0)
        assert bits(zh) == bits(-0.0) and exact
        zh, zl, exact = dd_div(0.0, 0.0, -3.0, 0.0)
        assert bits(zh) == bits(-0.0) and exact

    def test_division_by_zero_promotes(self):
        assert dd_div(1.0, 0.0, 0.0, 0.0) is None
        assert dd_div(1.0, 0.0, -0.0, 0.0) is None

    def test_nonfinite_operands_promote(self):
        for bad in (math.inf, -math.inf, math.nan):
            assert dd_add(bad, 0.0, 1.0, 0.0) is None
            assert dd_mul(bad, 0.0, 1.0, 0.0) is None
            assert dd_div(1.0, 0.0, bad, 0.0) is None
            assert dd_sqrt(bad, 0.0) is None

    def test_overflow_promotes(self):
        big = math.ldexp(1.0, 1023)
        assert dd_add(big, 0.0, big, 0.0) is None
        assert dd_mul(big, 0.0, big, 0.0) is None
        assert dd_mul(math.ldexp(1.0, 980), 0.0, 2.0, 0.0) is None

    def test_negative_sqrt_promotes(self):
        assert dd_sqrt(-4.0, 0.0) is None
        assert dd_sqrt(-0.0, 0.0) == (-0.0, 0.0, True)
        zh, zl, exact = dd_sqrt(0.0, 0.0)
        assert bits(zh) == bits(0.0) and exact

    def test_underflow_guard_band_promotes(self):
        tiny = math.ldexp(1.0, -980)
        assert dd_mul(tiny, 0.0, tiny, 0.0) is None
        assert dd_div(tiny, 0.0, math.ldexp(1.0, 100), 0.0) is None
        assert dd_sqrt(math.ldexp(1.0, -1000), 0.0) is None

    def test_subnormal_addition_stays_exact_or_promotes(self):
        rng = random.Random(0xDD60)
        for _ in range(300):
            xh = math.ldexp(rng.random(), -1060)
            yh = math.ldexp(rng.random(), -1060)
            check_binary("+", xh, 0.0, yh, 0.0)
            check_binary("-", xh, 0.0, yh, 0.0)

    def test_neg_abs_are_exact(self):
        assert dd_neg(1.5, -1e-20) == (-1.5, 1e-20, True)
        assert dd_abs(-1.5, 1e-20) == (1.5, -1e-20, True)
        zh, zl, exact = dd_abs(-0.0, 0.0)
        assert bits(zh) == bits(0.0) and exact


def accurate_dw_plus_dw(xh, xl, yh, yl):
    """AccurateDWPlusDW with plain rounded sums for ``c`` and ``w``: the
    pair the kernel must return for nonzero operands, whatever its flag
    says."""
    sh, sl = two_sum(xh, yh)
    th, tl = two_sum(xl, yl)
    c = sl + th
    vh, vl = quick_two_sum(sh, c)
    w = tl + vl
    return quick_two_sum(vh, w)


@st.composite
def add_operands(draw):
    """Two normalized pairs shaped toward the add kernel's exactness
    corners: wide exponent gaps, subnormal components, and ``x + (-x)``
    with nonzero (possibly perturbed) low words.  Integer significands
    make exact sums common, so both flag outcomes are exercised."""

    def pair(exponent):
        hi = math.ldexp(draw(st.integers(-2 ** 53, 2 ** 53)), exponent)
        lo = math.ldexp(draw(st.integers(-2 ** 20, 2 ** 20)),
                        exponent - draw(st.integers(1, 60)))
        return two_sum(hi, lo)

    shape = draw(st.sampled_from(["gap", "subnormal", "negation"]))
    if shape == "subnormal":
        return (*pair(draw(st.integers(-1130, -1030))),
                *pair(draw(st.integers(-1130, -1030))))
    exponent = draw(st.integers(-900, 900))
    xh, xl = pair(exponent)
    if shape == "gap":
        return (xh, xl, *pair(exponent - draw(st.integers(0, 160))))
    yl = -xl
    if draw(st.booleans()):
        yl += math.ldexp(draw(st.integers(-2 ** 10, 2 ** 10)),
                         exponent - draw(st.integers(54, 120)))
    return (xh, xl, *two_sum(-xh, yl))


class TestExactnessHonesty:
    """`exact=True` must mean bit-exact in Fraction arithmetic —
    sweeping the operand shapes most likely to produce a false claim."""

    def test_two_sum_and_two_prod_are_error_free(self):
        rng = random.Random(0xDD70)
        for _ in range(1000):
            a, b = random_double(rng), random_double(rng)
            s, e = two_sum(a, b)
            assert frac(s, e) == Fraction(a) + Fraction(b)
            a, b = random_double(rng, -400, 400), \
                random_double(rng, -400, 400)
            p, e = two_prod(a, b)
            assert frac(p, e) == Fraction(a) * Fraction(b)

    def test_exact_flags_never_lie(self):
        rng = random.Random(0xDD80)
        claims = {"+": 0, "-": 0, "*": 0, "/": 0}
        for _ in range(2000):
            # Shapes engineered toward exactness: small integers,
            # powers of two, and values sharing exponents.
            xh = float(rng.randint(-64, 64)) * math.ldexp(
                1.0, rng.randint(-30, 30))
            yh = float(rng.randint(-64, 64)) * math.ldexp(
                1.0, rng.randint(-30, 30))
            for op in claims:
                outcome = DD_KERNELS[op](xh, 0.0, yh, 0.0)
                if outcome is None:
                    continue
                zh, zl, exact = outcome
                if not exact:
                    continue
                claims[op] += 1
                x, y = Fraction(xh), Fraction(yh)
                truth = {"+": x + y, "-": x - y, "*": x * y,
                         "/": x / y if y else None}[op]
                if truth is not None:
                    assert frac(zh, zl) == truth, (op, xh, yh)
        # The sweep must actually exercise exact claims to mean much.
        assert all(count > 100 for count in claims.values()), claims

    @given(add_operands())
    @settings(max_examples=600)
    def test_pair_sum_flags_never_lie(self, operands):
        # The add kernel derives its flag from its own rounding errors,
        # so pairs with low words can be claimed exact too; the pair it
        # returns must still be the plain AccurateDWPlusDW result.
        xh, xl, yh, yl = operands
        for kernel, sign in ((dd_add, 1), (dd_sub, -1)):
            outcome = kernel(xh, xl, yh, yl)
            if outcome is None:
                continue
            zh, zl, exact = outcome
            if exact:
                truth = frac(xh, xl) + sign * frac(yh, yl)
                assert frac(zh, zl) == truth, (kernel, operands)
            if (xh, xl) != (0.0, 0.0) and (yh, yl) != (0.0, 0.0):
                expected = accurate_dw_plus_dw(xh, xl, sign * yh, sign * yl)
                assert (bits(zh), bits(zl)) == tuple(map(bits, expected)), \
                    (kernel, operands)


class TestFitsPrecision:
    def test_claimed_fits_round_trip_exactly(self):
        rng = random.Random(0xDD90)
        checked = 0
        for _ in range(500):
            hi, lo = random_dd(rng, -200, 200)
            for precision in (53, 64, 106, 144, 256):
                if not fits_precision(hi, lo, precision):
                    continue
                checked += 1
                value = DoubleDouble(hi, lo).to_bigfloat()
                rounded = value.round_to(precision)
                assert rounded.to_fraction() == value.to_fraction(), \
                    (hi, lo, precision)
        assert checked > 100

    def test_pure_double_fits_53(self):
        assert fits_precision(1.5, 0.0, 53)
        assert fits_precision(-0.0, 0.0, 53)

    def test_wide_pair_rejects_narrow_precision(self):
        assert not fits_precision(1.0, math.ldexp(1.0, -100), 64)


class TestDoubleDoubleValue:
    def test_to_bigfloat_is_exact(self):
        rng = random.Random(0xDDA0)
        for _ in range(200):
            hi, lo = random_dd(rng)
            value = DoubleDouble(hi, lo)
            assert value.to_fraction() == frac(hi, lo)
            # The promotion to BigFloat is value-exact: no rounding.
            assert value.to_bigfloat().to_fraction() == frac(hi, lo)

    def test_comparisons_match_fractions(self):
        rng = random.Random(0xDDB0)
        for _ in range(300):
            a = DoubleDouble(*random_dd(rng, -10, 10))
            b = DoubleDouble(*random_dd(rng, -10, 10))
            fa, fb = a.to_fraction(), b.to_fraction()
            assert (a < b) == (fa < fb)
            assert (a <= b) == (fa <= fb)
            assert (a == b) == (fa == fb)
            assert (a > b) == (fa > fb)

    def test_from_double_and_to_float(self):
        for value in (0.0, -0.0, 1.5, -1e308, 5e-324):
            dd = from_double(value)
            assert bits(dd.to_float()) == bits(value)

    def test_msb_exponent_matches_fraction_magnitude(self):
        rng = random.Random(0xDDC0)
        for _ in range(300):
            hi, lo = random_dd(rng, -50, 50)
            value = DoubleDouble(hi, lo)
            magnitude = abs(value.to_fraction())
            msb = value.msb_exponent
            assert Fraction(2) ** msb <= magnitude < Fraction(2) ** (msb + 1)


# ----------------------------------------------------------------------
# Ordering: pairs compare in doubles by their (hi, lo) tuple
# ----------------------------------------------------------------------

COMPARISONS = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq,
    "!=": operator.ne, ">": operator.gt, ">=": operator.ge,
}


def is_normalized(hi: float, lo: float) -> bool:
    """``hi == RN(hi + lo)``: Fraction-to-float conversion rounds
    correctly, so this is the exact normalization predicate."""
    return hi == float(frac(hi, lo))


def oracle(op: str, left: DoubleDouble, right) -> bool:
    """The comparison decided on exact rationals (IEEE for inf/NaN)."""
    if isinstance(right, float) and math.isnan(right):
        return op == "!="
    if isinstance(right, float) and math.isinf(right):
        # Every pair is finite: it sits strictly between the infinities.
        return COMPARISONS[op](0, 1 if right > 0 else -1)
    value = right.to_fraction() if isinstance(right, DoubleDouble) \
        else Fraction(right)
    return COMPARISONS[op](left.to_fraction(), value)


def check_ordering(left: DoubleDouble, right) -> None:
    for op, compare in COMPARISONS.items():
        assert compare(left, right) == oracle(op, left, right), \
            (op, left, right)
        if isinstance(right, DoubleDouble):
            continue
        # The reflected operand order dispatches to the mirrored method.
        mirrored = compare(right, left)
        truth = oracle({"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(
            op, op), left, right)
        assert mirrored == truth, (op, right, left)


@st.composite
def normalized_pairs(draw, min_exponent=-1074, max_exponent=1000):
    """A normalized pair, with a lo anywhere in the half-ulp band."""
    hi = draw(st.floats(allow_nan=False, allow_infinity=False,
                        min_value=-math.ldexp(1.0, max_exponent),
                        max_value=math.ldexp(1.0, max_exponent)))
    scale = math.frexp(hi)[1] - 53
    lo = math.ldexp(draw(st.floats(-0.5, 0.5)), max(scale, -1074))
    hi, lo = two_sum(hi, lo)
    return DoubleDouble(hi, lo)


@st.composite
def pair_and_neighbour(draw):
    """Two pairs, often sharing ``hi`` so that ``lo`` must decide."""
    left = draw(normalized_pairs())
    if draw(st.booleans()):
        lo = math.ldexp(draw(st.floats(-0.5, 0.5)),
                        max(math.frexp(left.hi)[1] - 53, -1074))
        right = DoubleDouble(*two_sum(left.hi, lo))
    else:
        right = draw(normalized_pairs())
    return left, right


class TestExactOrdering:
    @given(pair_and_neighbour())
    @settings(max_examples=400)
    def test_pair_vs_pair_matches_fractions(self, pairs):
        left, right = pairs
        assert is_normalized(left.hi, left.lo)
        assert is_normalized(right.hi, right.lo)
        check_ordering(left, right)
        check_ordering(right, left)

    @given(normalized_pairs(), st.floats())
    @settings(max_examples=400)
    def test_pair_vs_float_matches_fractions(self, left, value):
        check_ordering(left, value)

    @given(normalized_pairs())
    @settings(max_examples=200)
    def test_pair_vs_own_hi(self, left):
        # The float nearest the pair: lo alone decides the order.
        check_ordering(left, left.hi)

    def test_directed_cases(self):
        tiny = math.ldexp(1.0, -60)
        below_one = math.nextafter(1.0, 0.0)
        sub = 5e-324
        pairs = [
            DoubleDouble(0.0, 0.0),
            DoubleDouble(-0.0, 0.0),
            DoubleDouble(-0.0, -0.0),
            # Equal hi, opposite-sign lo.
            DoubleDouble(1.0, tiny),
            DoubleDouble(1.0, -tiny),
            DoubleDouble(-3.5, tiny),
            DoubleDouble(-3.5, -tiny),
            # A power-of-two hi with negative lo sits below hi, above
            # the next double down.
            DoubleDouble(1.0, -math.ldexp(1.0, -55)),
            DoubleDouble(below_one, math.ldexp(1.0, -55)),
            DoubleDouble(below_one, 0.0),
            DoubleDouble(-1.0, math.ldexp(1.0, -55)),
            # Subnormal lo under a tiny normal hi.
            DoubleDouble(math.ldexp(1.0, -1000), sub),
            DoubleDouble(math.ldexp(1.0, -1000), -sub),
            DoubleDouble(sub, 0.0),
            DoubleDouble(-sub, 0.0),
            DoubleDouble(1.7976931348623157e308, 0.0),
        ]
        floats = [0.0, -0.0, 1.0, -1.0, below_one, -3.5, sub, -sub,
                  math.ldexp(1.0, -1000), math.inf, -math.inf, math.nan,
                  1.7976931348623157e308]
        for left in pairs:
            assert is_normalized(left.hi, left.lo), left
            for right in pairs:
                check_ordering(left, right)
            for value in floats:
                check_ordering(left, value)

    def test_pairs_and_floats_never_build_fractions(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("comparison left the double domain")

        monkeypatch.setattr(DoubleDouble, "to_fraction", refuse)
        monkeypatch.setattr(dd_module, "Fraction", refuse)
        rng = random.Random(0xDDD0)
        for _ in range(200):
            left = DoubleDouble(*random_dd(rng, -20, 20))
            right = DoubleDouble(*random_dd(rng, -20, 20))
            value = random_double(rng, -20, 20)
            for compare in COMPARISONS.values():
                compare(left, right)
                compare(left, value)
                compare(value, left)
                compare(left, left.hi)

    def test_other_operands_keep_the_exact_path(self):
        pair = DoubleDouble(1.0, math.ldexp(1.0, -60))
        big = BigFloat.from_float(1.0)
        assert pair > big and pair != big and not pair <= big
        assert pair > 1 and pair != 1 and pair < 2
        huge = 2 ** 1100  # not a double: ints are compared exactly
        assert pair < huge and not pair >= huge


class TestKernelOutputsAreNormalized:
    """The ordering proof rests on ``hi == RN(hi + lo)`` for every
    pair a kernel hands out."""

    OPS = ["+", "-", "*", "/"]

    @pytest.mark.parametrize("op", OPS)
    def test_binary_kernels(self, op):
        rng = random.Random(0xDDE0 + ord(op[0]))
        kernel = DD_KERNELS[op]
        for _ in range(400):
            x = random_dd(rng, -60, 60)
            y = random_dd(rng, -60, 60)
            near = (x[0] * (1.0 + rng.choice([0.0, 2e-16, -2e-16])),
                    rng.choice([0.0, x[1], -x[1]]))
            for args in ((*x, *y), (*x, *near), (x[0], 0.0, y[0], 0.0)):
                outcome = kernel(*args)
                if outcome is not None:
                    assert is_normalized(*outcome[:2]), (op, args)

    def test_unary_and_ternary_kernels(self):
        rng = random.Random(0xDDF0)
        for _ in range(400):
            xh, xl = random_dd(rng, -60, 60)
            yh, yl = random_dd(rng, -60, 60)
            zh, zl = random_dd(rng, -60, 60)
            outcomes = [
                dd_sqrt(abs(xh), xl if xh > 0 else -xl),
                dd_fma(xh, xl, yh, yl, zh, zl),
                dd_neg(xh, xl),
                dd_abs(xh, xl),
            ]
            for outcome in outcomes:
                if outcome is not None:
                    assert is_normalized(*outcome[:2]), outcome

    @given(normalized_pairs(-400, 400), normalized_pairs(-400, 400),
           st.sampled_from(OPS))
    @settings(max_examples=400)
    def test_binary_kernels_hypothesis(self, x, y, op):
        outcome = DD_KERNELS[op](x.hi, x.lo, y.hi, y.lo)
        if outcome is not None:
            assert is_normalized(*outcome[:2]), (op, x, y)
