"""Property-based tests of the rounding-mode contract.

The bracket property is the heart of correct rounding: for any exact
value v, RDN(v) <= v <= RUP(v), RTZ shrinks magnitude, and RNE lands on
whichever neighbour is closer.  These properties are what the Verrou
comparison tool relies on when it perturbs rounding.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bigfloat import (
    BigFloat,
    Context,
    ROUND_DOWN,
    ROUND_NEAREST_EVEN,
    ROUND_TOWARD_ZERO,
    ROUND_UP,
    arith,
)

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e200, max_value=1e200
)
precisions = st.integers(min_value=4, max_value=120)


def exact_product(x: float, y: float) -> Fraction:
    return Fraction(x) * Fraction(y)


def rounded_product(x: float, y: float, precision: int, mode: str) -> Fraction:
    context = Context(precision=precision, rounding=mode)
    result = arith.mul(
        BigFloat.from_float(x), BigFloat.from_float(y), context
    )
    return result.to_fraction()


class TestBracketProperty:
    @given(finite, finite, precisions)
    @settings(max_examples=200)
    def test_down_up_bracket(self, x, y, precision):
        exact = exact_product(x, y)
        down = rounded_product(x, y, precision, ROUND_DOWN)
        up = rounded_product(x, y, precision, ROUND_UP)
        assert down <= exact <= up

    @given(finite, finite, precisions)
    @settings(max_examples=200)
    def test_toward_zero_shrinks(self, x, y, precision):
        exact = exact_product(x, y)
        truncated = rounded_product(x, y, precision, ROUND_TOWARD_ZERO)
        assert abs(truncated) <= abs(exact)
        assert truncated == 0 or (truncated > 0) == (exact > 0)

    @given(finite, finite, precisions)
    @settings(max_examples=200)
    def test_nearest_within_half_ulp_bracket(self, x, y, precision):
        exact = exact_product(x, y)
        nearest = rounded_product(x, y, precision, ROUND_NEAREST_EVEN)
        down = rounded_product(x, y, precision, ROUND_DOWN)
        up = rounded_product(x, y, precision, ROUND_UP)
        # Nearest is one of the two brackets, and the closer one.
        assert nearest in (down, up)
        if down != up:
            distance = abs(exact - nearest)
            other = up if nearest == down else down
            assert distance <= abs(exact - other)

    @given(finite, finite, precisions)
    @settings(max_examples=100)
    def test_modes_agree_when_exact(self, x, y, precision):
        exact = exact_product(x, y)
        results = {
            mode: rounded_product(x, y, precision, mode)
            for mode in (ROUND_NEAREST_EVEN, ROUND_DOWN, ROUND_UP,
                         ROUND_TOWARD_ZERO)
        }
        down, up = results[ROUND_DOWN], results[ROUND_UP]
        if down == up:
            # The product was exactly representable: all modes agree.
            assert set(results.values()) == {exact}


class TestAdditionBracket:
    @given(finite, finite, precisions)
    @settings(max_examples=200)
    # y's mantissa is wider than the precision, and x carries into the
    # bits of y below the rounding point.
    @example(997.0, 1.9372344152685596e16, 35)
    def test_add_bracket(self, x, y, precision):
        exact = Fraction(x) + Fraction(y)
        down = arith.add(
            BigFloat.from_float(x), BigFloat.from_float(y),
            Context(precision=precision, rounding=ROUND_DOWN),
        ).to_fraction()
        up = arith.add(
            BigFloat.from_float(x), BigFloat.from_float(y),
            Context(precision=precision, rounding=ROUND_UP),
        ).to_fraction()
        assert down <= exact <= up

    @given(finite, precisions)
    @settings(max_examples=100)
    def test_sqrt_bracket(self, x, precision):
        if x < 0:
            return
        exact_squared = Fraction(x)
        down = arith.sqrt(
            BigFloat.from_float(x),
            Context(precision=precision, rounding=ROUND_DOWN),
        ).to_fraction()
        up = arith.sqrt(
            BigFloat.from_float(x),
            Context(precision=precision, rounding=ROUND_UP),
        ).to_fraction()
        assert down * down <= exact_squared
        assert up * up >= exact_squared
