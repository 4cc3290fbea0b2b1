"""Unit tests for the precision-tier policies."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigfloat import BigFloat
from repro.bigfloat.doubledouble import (
    DoubleDouble,
    dd_add,
    dd_div,
    dd_fma,
    dd_mul,
    two_sum,
)
from repro.bigfloat.policy import (
    EXACT,
    UNTRUSTED,
    AdaptivePrecisionPolicy,
    PrecisionPolicy,
    available_policies,
    make_policy,
)


def adaptive(full=1000, working=192):
    return AdaptivePrecisionPolicy(full, working_precision=working)


def pair(hi, lo=0.0):
    return DoubleDouble(hi, lo)


def kernel_result(kernel, *args):
    """Run a pair kernel on ``args``: the result and its error-free flag."""
    parts = []
    for arg in args:
        parts += [arg.hi, arg.lo]
    hi, lo, exact_op = kernel(*parts)
    return DoubleDouble(hi, lo), exact_op


class TestRegistry:
    def test_available(self):
        assert {"fixed", "adaptive"} <= set(available_policies())

    def test_make_fixed(self):
        policy = make_policy("fixed", 1000)
        assert type(policy) is PrecisionPolicy
        assert policy.context.precision == 1000
        assert not policy.escalates

    def test_make_adaptive(self):
        policy = make_policy("adaptive", 1000, working_precision=192)
        assert policy.context.precision == 192
        assert policy.full_context.precision == 1000
        assert policy.escalates

    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="unknown precision policy"):
            make_policy("nope", 1000)

    def test_working_precision_floor(self):
        with pytest.raises(ValueError, match="too small"):
            AdaptivePrecisionPolicy(1000, working_precision=64)


class TestContext:
    def test_adaptive_runs_at_working_tier(self):
        policy = adaptive()
        assert policy.context is policy.working_context
        assert policy.context.precision == 192
        assert policy.full_context.precision == 1000

    def test_fixed_runs_at_full_tier(self):
        policy = make_policy("fixed", 777)
        assert policy.context is policy.full_context
        assert policy.context.precision == 777

    def test_working_tier_capped_at_full(self):
        policy = adaptive(full=150, working=192)
        assert policy.context.precision == 150


class TestDriftPropagation:
    def test_exact_addition_stays_exact(self):
        policy = adaptive()
        a = BigFloat.from_float(1e16)
        b = BigFloat.from_float(1.0)
        result = BigFloat.from_float(1e16 + 1)
        assert policy.propagate(
            "+", [a, b], [EXACT, EXACT], result, False
        ) == EXACT

    def test_inexact_division_gets_one_ulp(self):
        policy = adaptive()
        a, b = BigFloat.from_float(1.0), BigFloat.from_float(3.0)
        result = a  # placeholder value; only msb matters
        drift = policy.propagate("/", [a, b], [EXACT, EXACT], result, False)
        assert drift == 1.0

    def test_cancellation_amplifies(self):
        policy = adaptive()
        a = BigFloat.from_float(1.0 + 2 ** -40)
        b = BigFloat.from_float(1.0)
        result = BigFloat.from_float(2.0 ** -40)
        drift = policy.propagate("-", [a, b], [2.0, EXACT], result, False)
        # 2 ulps at msb 0 amplified by the 40-bit exponent drop.
        assert drift == pytest.approx(2.0 * 2 ** 40 + 1.0)

    def test_zero_from_inexact_operands_is_untrusted(self):
        policy = adaptive()
        a = BigFloat.from_float(1.5)
        drift = policy.propagate(
            "-", [a, a], [1.0, 1.0], BigFloat.zero(), False
        )
        assert drift == UNTRUSTED

    def test_exact_zero_factor_forces_exact_zero(self):
        policy = adaptive()
        a = BigFloat.from_float(1.5)
        zero = BigFloat.zero()
        drift = policy.propagate(
            "*", [a, zero], [5.0, EXACT], BigFloat.zero(), False
        )
        assert drift == EXACT

    def test_benign_accumulation_grows_linearly_not_exponentially(self):
        # acc += 1/i style loops: drift must stay ~#terms ulps, far
        # from the untrusted limit even after thousands of terms.
        policy = adaptive()
        acc = BigFloat.from_float(3.7)
        term = BigFloat.from_float(0.001)
        drift = 1.0
        for __ in range(5000):
            drift = policy.propagate(
                "+", [acc, term], [drift, 1.0], acc, False
            )
        assert drift < 2.0 * 5000 + 10
        assert drift < policy._ulps_limit

    def test_untrusted_input_stays_untrusted(self):
        policy = adaptive()
        a = BigFloat.from_float(2.0)
        drift = policy.propagate("+", [a, a], [UNTRUSTED, EXACT], a, False)
        assert drift == UNTRUSTED

    def test_sign_ops_pass_drift_through(self):
        policy = adaptive()
        a = BigFloat.from_float(2.0)
        assert policy.propagate("neg", [a], [7.5, ], a, False) == 7.5

    def test_fmod_with_inexact_operands_untrusted(self):
        policy = adaptive()
        a = BigFloat.from_float(10.0)
        b = BigFloat.from_float(3.0)
        result = BigFloat.from_float(1.0)
        assert policy.propagate(
            "fmod", [a, b], [1.0, EXACT], result, False
        ) == UNTRUSTED
        assert policy.propagate(
            "fmod", [a, b], [EXACT, EXACT], result, False
        ) == 1.0

    def test_star_doubles_a_drift(self):
        policy = adaptive()
        a, b = BigFloat.from_float(1.5), BigFloat.from_float(3.0)
        result = BigFloat.from_float(4.5)
        # One ulp of the op's own rounding plus the doubled drift.
        assert policy.propagate(
            "*", [a, b], [8.0, EXACT], result, False
        ) == 17.0

    # -- the pair (double-double) tier ---------------------------------

    def test_exact_pair_add_stays_exact(self):
        policy = adaptive()
        a, b = pair(1e16), pair(1.0)
        result, exact_op = kernel_result(dd_add, a, b)
        assert exact_op
        assert policy.propagate(
            "+", [a, b], [EXACT, EXACT], result, exact_op
        ) == EXACT

    def test_inexact_pair_op_charges_the_pair_bound(self):
        policy = adaptive()
        a, b = pair(1.0), pair(3.0)
        result, exact_op = kernel_result(dd_div, a, b)
        assert not exact_op
        assert policy.propagate(
            "/", [a, b], [EXACT, EXACT], result, exact_op
        ) == policy._hw_op_ulps

    def test_error_free_pair_wider_than_full_tier_charges_one_ulp(self):
        policy = adaptive()
        a, b = pair(1.0), pair(2.0 ** -1000)
        result, exact_op = kernel_result(dd_add, a, b)
        assert exact_op  # 1 + 2^-1000 is exact as a pair...
        # ...but needs 1001 bits, more than the 1000-bit full tier.
        assert policy.propagate(
            "+", [a, b], [EXACT, EXACT], result, exact_op
        ) == 1.0

    def test_pair_zero_from_inexact_operands_is_untrusted(self):
        policy = adaptive()
        a = pair(1.5)
        assert policy.propagate(
            "-", [a, a], [1.0, 1.0], pair(0.0), True
        ) == UNTRUSTED

    def test_pair_exact_zero_factor_forces_exact_zero(self):
        policy = adaptive()
        assert policy.propagate(
            "*", [pair(1.5), pair(0.0)], [5.0, EXACT], pair(0.0), True
        ) == EXACT

    def test_pair_star_doubles_a_drift(self):
        policy = adaptive()
        a, b = pair(1.5), pair(3.0)
        result, exact_op = kernel_result(dd_mul, a, b)
        assert exact_op
        assert policy.propagate(
            "*", [a, b], [8.0, EXACT], result, exact_op
        ) == 16.0

    def test_pair_cancellation_term_amplifies_a_drifted_addend(self):
        policy = adaptive()
        a, b = pair(1.0), pair(-1.0 + 2 ** -50)
        result, exact_op = kernel_result(dd_add, a, b)
        assert exact_op
        assert policy.propagate(
            "+", [a, b], [4.0, EXACT], result, exact_op
        ) == 4.0 * 2 ** 50

    def test_pair_fma_charges_its_product_stage(self):
        policy = adaptive()
        third, __ = kernel_result(dd_div, pair(1.0), pair(3.0))
        x, y, z = third, pair(3.0), pair(-1.0, 2.0 ** -60)
        result, exact_op = kernel_result(dd_fma, x, y, z)
        assert not exact_op
        assert result.msb_exponent == -60
        # The product (msb -1) rounds before the addition cancels 60
        # bits of it: the product stage's charge is amplified by
        # msb(x*y) - msb(result) + 1 bits on top of the sum's own.
        hw = policy._hw_op_ulps
        assert policy.propagate(
            "fma", [x, y, z], [EXACT, EXACT, EXACT], result, exact_op
        ) == hw + math.ldexp(hw, -1 + 60 + 1)


class TestRoundingUnsafe:
    def test_exact_values_always_safe(self):
        policy = adaptive()
        tie = BigFloat(0, (1 << 53) + 1, -53)  # exactly between doubles
        assert not policy.rounding_unsafe(tie, EXACT)

    def test_fixed_policy_never_escalates(self):
        policy = make_policy("fixed", 1000)
        tie = BigFloat(0, (1 << 53) + 1, -53)
        assert not policy.rounding_unsafe(tie, 1e30)

    def test_exact_tie_with_drift_is_unsafe(self):
        policy = adaptive()
        tie = BigFloat(0, (1 << 53) + 1, -53)
        assert policy.rounding_unsafe(tie, 1.0)

    def test_near_tie_within_band_is_unsafe(self):
        policy = adaptive()
        # A value 2^-180 above a rounding tie of 1.xxx: inside the
        # guarded band of a 1-ulp (2^-191) drift with 16 guard bits.
        man = ((1 << 53) + 1 << 127) + 1
        value = BigFloat(0, man, -180)
        assert policy.rounding_unsafe(value, 1.0)

    def test_value_far_from_ties_is_safe(self):
        policy = adaptive()
        value = BigFloat.from_float(1.0 + 2 ** -30)
        # Representable exactly, but pretend it carries a few ulps of
        # drift: nearest tie is half a double-ulp away, far beyond the
        # band.
        assert not policy.rounding_unsafe(value, 8.0)

    def test_drifted_specials_are_unsafe(self):
        policy = adaptive()
        assert policy.rounding_unsafe(BigFloat.zero(), 1.0)
        assert policy.rounding_unsafe(BigFloat.nan(), UNTRUSTED)
        assert policy.rounding_unsafe(BigFloat.inf(0), 1.0)

    def test_deep_subnormal_region_is_confirmed(self):
        policy = adaptive()
        tiny = BigFloat(0, 3, -1076)
        assert policy.rounding_unsafe(tiny, 1.0)

    def test_near_tie_pair_is_unsafe_and_far_one_safe(self):
        policy = adaptive()
        drift = policy._hw_op_ulps  # 2^90 ulps: a band of 2^-84 at 1.0
        # 2^-100 below the tie between 1 and its successor double.
        near = pair(1.0, 2.0 ** -53 - 2.0 ** -100)
        assert policy.rounding_unsafe(near, drift)
        assert not policy.rounding_unsafe(pair(1.5), drift)
        assert not policy.rounding_unsafe(near, EXACT)

    def test_pair_exactly_on_a_tie_is_unsafe(self):
        policy = adaptive()
        assert policy.rounding_unsafe(pair(1.0, 2.0 ** -53), 1.0)

    def test_drifted_pair_zero_is_unsafe(self):
        policy = adaptive()
        assert policy.rounding_unsafe(pair(0.0), 1.0)

    def test_pair_single_precision_target(self):
        policy = adaptive()
        # 2^-40 above the binary32 tie 1 + 2^-24, far outside the
        # 2^-84 band of 2^90 ulps at 1.0.
        value = pair(1.0 + 2.0 ** -24 + 2.0 ** -40)
        assert not policy.rounding_unsafe(
            value, policy._hw_op_ulps, mant_bits=24, emin=-126
        )
        assert policy.rounding_unsafe(
            pair(1.0 + 2.0 ** -24), 1.0, mant_bits=24, emin=-126
        )


class TestComparisonUnsafe:
    def test_exact_pair_safe(self):
        policy = adaptive()
        a, b = BigFloat.from_float(1.0), BigFloat.from_float(1.0)
        assert not policy.comparison_unsafe(a, EXACT, b, EXACT)

    def test_equal_with_drift_unsafe(self):
        policy = adaptive()
        a = BigFloat.from_float(1.0)
        assert policy.comparison_unsafe(a, 1.0, a, EXACT)

    def test_distant_values_safe_despite_drift(self):
        policy = adaptive()
        a = BigFloat.from_float(1.0)
        b = BigFloat.from_float(2.0)
        assert not policy.comparison_unsafe(a, 100.0, b, 100.0)

    def test_within_band_unsafe(self):
        policy = adaptive()
        a = BigFloat.from_float(1.0)
        b = BigFloat(0, (1 << 180) + 1, -180)  # 1 + 2^-180
        assert policy.comparison_unsafe(a, 4.0, b, 4.0)

    def test_pair_against_pair(self):
        policy = adaptive()
        drift = policy._hw_op_ulps  # guarded band 2^-84 at 1.0
        one = pair(1.0)
        assert not policy.comparison_unsafe(one, EXACT, one, EXACT)
        assert policy.comparison_unsafe(one, drift, one, EXACT)
        assert policy.comparison_unsafe(
            one, drift, pair(1.0, 2.0 ** -100), EXACT
        )
        assert not policy.comparison_unsafe(
            one, drift, pair(1.0, 2.0 ** -60), drift
        )

    def test_pair_against_bigfloat(self):
        policy = adaptive()
        drift = policy._hw_op_ulps
        close = BigFloat(0, (1 << 100) + 1, -100)  # 1 + 2^-100
        assert policy.comparison_unsafe(pair(1.0), drift, close, EXACT)
        assert policy.comparison_unsafe(close, EXACT, pair(1.0), drift)
        far = BigFloat.from_float(2.0)
        assert not policy.comparison_unsafe(pair(1.0), drift, far, 1.0)
        assert not policy.comparison_unsafe(far, 1.0, pair(1.0), drift)


class TestIntegerUnsafe:
    def test_exact_safe(self):
        policy = adaptive()
        assert not policy.integer_unsafe(BigFloat.from_float(2.5), EXACT)

    def test_integral_with_drift_unsafe(self):
        policy = adaptive()
        assert policy.integer_unsafe(BigFloat.from_float(3.0), 1.0)

    def test_midway_fraction_safe(self):
        policy = adaptive()
        assert not policy.integer_unsafe(BigFloat.from_float(3.5), 4.0)

    def test_near_integer_within_band_unsafe(self):
        policy = adaptive()
        value = BigFloat(0, (3 << 180) + 1, -180)  # 3 + 2^-180
        assert policy.integer_unsafe(value, 2.0)

    def test_pairs(self):
        policy = adaptive()
        drift = policy._hw_op_ulps
        assert not policy.integer_unsafe(pair(3.0), EXACT)
        assert policy.integer_unsafe(pair(3.0), drift)
        assert policy.integer_unsafe(pair(3.0, 2.0 ** -100), drift)
        assert not policy.integer_unsafe(pair(3.5), drift)


class TestAdditionPassthrough:
    def test_exact_zero_other_is_equal(self):
        policy = adaptive()
        c = BigFloat.from_float(1.5)
        assert policy.addition_passthrough(
            c, 1.0, BigFloat.zero(), EXACT
        ) is True

    def test_comparable_magnitudes_cannot_pass_through(self):
        policy = adaptive()
        c = BigFloat.from_float(1.5)
        o = BigFloat.from_float(2 ** -60)
        assert policy.addition_passthrough(c, 1.0, o, 1.0) is False

    def test_far_below_full_ulp_passes_through(self):
        policy = adaptive()
        c = BigFloat.from_float(1.5)
        o = BigFloat(0, 1, -1200)  # << 2^-1000 relative
        assert policy.addition_passthrough(c, 1.0, o, 1.0) is True

    def test_boundary_window_is_undecided(self):
        policy = adaptive()
        c = BigFloat.from_float(1.5)
        o = BigFloat(0, 1, -1000)  # right at the half-ulp_full scale
        assert policy.addition_passthrough(c, 1.0, o, 1.0) is None


class TestEscalationStats:
    def test_stats_count_each_reason(self):
        policy = adaptive()
        policy.note_escalation("rounding")
        policy.note_escalation("comparison")
        assert policy.stats["escalations"] == 2
        assert policy.stats["rounding"] == 1
        assert policy.stats["comparison"] == 1

    def test_base_policy_is_fixed_behaviour(self):
        policy = PrecisionPolicy(256)
        value = BigFloat.from_float(1.5)
        assert policy.propagate(
            "+", [value, value], [1.0, 1.0], value, False
        ) == EXACT
        assert not policy.rounding_unsafe(value, math.inf)
        assert policy.addition_passthrough(value, 0.0, value, 0.0) is None


@st.composite
def pairs(draw):
    """A normalized pair, often within a few ulps of a round-to-double
    tie (where the rounding check has something to decide)."""
    hi = draw(st.floats(allow_nan=False, allow_infinity=False,
                        min_value=-1e300, max_value=1e300))
    half_ulp = math.ldexp(1.0, math.frexp(hi)[1] - 54)
    if hi != 0.0 and draw(st.booleans()):
        offset = draw(st.sampled_from([1.0, -1.0, 0.5, -0.5]))
        lo = half_ulp * offset + math.ldexp(
            draw(st.floats(-1.0, 1.0)), math.frexp(half_ulp)[1]
            - draw(st.integers(1, 120))
        )
    else:
        lo = half_ulp * draw(st.floats(-1.0, 1.0))
    return DoubleDouble(*two_sum(hi, lo))


def drifts():
    return st.one_of(
        st.sampled_from([EXACT, 1.0, 2.0 ** 90, 2.0 ** 120, UNTRUSTED]),
        st.floats(min_value=0.0, max_value=2.0 ** 200),
    )


class TestPairChecksCoverTheirPromotion:
    """A pair's check may escalate more often than the same check on
    the pair's exact BigFloat promotion, never less: the pair reads its
    tie distance and differences in floats, with slack for their
    rounding."""

    @given(pairs(), drifts())
    @settings(max_examples=500)
    def test_rounding(self, value, drift):
        policy = adaptive(working=144)
        if policy.rounding_unsafe(value.to_bigfloat(), drift):
            assert policy.rounding_unsafe(value, drift)

    @given(pairs(), pairs(), st.integers(0, 120), st.booleans(),
           drifts(), drifts())
    @settings(max_examples=500)
    def test_comparison(self, a, other, gap, near, drift_a, drift_b):
        policy = adaptive(working=144)
        # Half the draws compare ``a`` with a neighbour 2^-gap ulps of
        # its hi away, where the difference decides.
        b = other
        if near and a.hi != 0.0:
            step = math.ldexp(a.hi, -52 - gap)
            b = DoubleDouble(*two_sum(a.hi, a.lo + step))
        if policy.comparison_unsafe(
            a.to_bigfloat(), drift_a, b.to_bigfloat(), drift_b
        ):
            assert policy.comparison_unsafe(a, drift_a, b, drift_b)
