"""Unit tests for the precision-tier policies."""

import math

import pytest

from repro.bigfloat import BigFloat
from repro.bigfloat.policy import (
    EXACT,
    UNTRUSTED,
    AdaptivePrecisionPolicy,
    FixedPrecisionPolicy,
    PrecisionPolicy,
    available_policies,
    make_policy,
)


def adaptive(full=1000, working=192):
    return AdaptivePrecisionPolicy(full, working_precision=working)


class TestRegistry:
    def test_available(self):
        assert {"fixed", "adaptive"} <= set(available_policies())

    def test_make_fixed(self):
        policy = make_policy("fixed", 1000)
        assert isinstance(policy, FixedPrecisionPolicy)
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
        assert policy.propagate("+", [a, b], [EXACT, EXACT], result) == EXACT

    def test_inexact_division_gets_one_ulp(self):
        policy = adaptive()
        a, b = BigFloat.from_float(1.0), BigFloat.from_float(3.0)
        result = a  # placeholder value; only msb matters
        drift = policy.propagate("/", [a, b], [EXACT, EXACT], result)
        assert drift == 1.0

    def test_cancellation_amplifies(self):
        policy = adaptive()
        a = BigFloat.from_float(1.0 + 2 ** -40)
        b = BigFloat.from_float(1.0)
        result = BigFloat.from_float(2.0 ** -40)
        drift = policy.propagate("-", [a, b], [2.0, EXACT], result)
        # 2 ulps at msb 0 amplified by the 40-bit exponent drop.
        assert drift == pytest.approx(2.0 * 2 ** 40 + 1.0)

    def test_zero_from_inexact_operands_is_untrusted(self):
        policy = adaptive()
        a = BigFloat.from_float(1.5)
        drift = policy.propagate(
            "-", [a, a], [1.0, 1.0], BigFloat.zero()
        )
        assert drift == UNTRUSTED

    def test_exact_zero_factor_forces_exact_zero(self):
        policy = adaptive()
        a = BigFloat.from_float(1.5)
        zero = BigFloat.zero()
        drift = policy.propagate(
            "*", [a, zero], [5.0, EXACT], BigFloat.zero()
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
            drift = policy.propagate("+", [acc, term], [drift, 1.0], acc)
        assert drift < 2.0 * 5000 + 10
        assert drift < policy._ulps_limit

    def test_untrusted_input_stays_untrusted(self):
        policy = adaptive()
        a = BigFloat.from_float(2.0)
        drift = policy.propagate("+", [a, a], [UNTRUSTED, EXACT], a)
        assert drift == UNTRUSTED

    def test_sign_ops_pass_drift_through(self):
        policy = adaptive()
        a = BigFloat.from_float(2.0)
        assert policy.propagate("neg", [a], [7.5, ], a) == 7.5

    def test_fmod_with_inexact_operands_untrusted(self):
        policy = adaptive()
        a = BigFloat.from_float(10.0)
        b = BigFloat.from_float(3.0)
        result = BigFloat.from_float(1.0)
        assert policy.propagate("fmod", [a, b], [1.0, EXACT], result) \
            == UNTRUSTED
        assert policy.propagate("fmod", [a, b], [EXACT, EXACT], result) \
            == 1.0


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
        assert policy.propagate("+", [value, value], [1.0, 1.0], value) \
            == EXACT
        assert not policy.rounding_unsafe(value, math.inf)
        assert policy.addition_passthrough(value, 0.0, value, 0.0) is None
