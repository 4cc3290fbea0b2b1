"""Adaptive-vs-fixed precision equivalence (the tiering acceptance).

The adaptive policy's contract is *report-identical output*: same
candidates, same root causes, same error statistics — byte-identical
result JSON — as a fixed run at the full ``shadow_precision``.  These
tests pin that over a corpus slice, the paper's case-study apps, and
targeted escalation scenarios; ``benchmarks/bench_precision_tiers.py``
extends the check to the full corpus.
"""

import math

import pytest

from repro.api import AnalysisSession, results_to_json
from repro.bigfloat import BigFloat
from repro.core import AnalysisConfig, analyze_program
from repro.core.shadow import ShadowEscalator
from repro.core import trace as trace_mod
from repro.bigfloat.policy import AdaptivePrecisionPolicy
from repro.fpcore import corpus_by_name, load_corpus, parse_fpcore
from repro.machine import compile_fpcore

FIXED = AnalysisConfig(shadow_precision=1000)
ADAPTIVE = AnalysisConfig(shadow_precision=1000, precision_policy="adaptive")


def analysis_signature(analysis):
    """Everything the report is built from, in comparable form."""
    signature = []
    for record in analysis.candidate_records():
        signature.append((
            record.site_id, record.op, record.loc, record.executions,
            record.candidate_executions, record.max_local_error,
            record.sum_local_error, record.compensations_detected,
        ))
    for spot in sorted(
        analysis.spot_records.values(), key=lambda s: s.site_id
    ):
        signature.append((
            spot.site_id, spot.kind, spot.loc, spot.executions,
            spot.erroneous, spot.max_error, spot.sum_error,
            sorted(r.site_id for r in spot.influences),
        ))
    return signature


class TestCorpusEquivalence:
    def test_corpus_slice_byte_identical(self):
        corpus = load_corpus()[::4]
        fixed = AnalysisSession(config=FIXED, num_points=4, seed=11)
        adaptive = AnalysisSession(config=ADAPTIVE, num_points=4, seed=11)
        fixed_results = fixed.analyze_batch(corpus)
        adaptive_results = adaptive.analyze_batch(corpus)
        assert results_to_json(fixed_results) == \
            results_to_json(adaptive_results)

    def test_cancellation_benchmark_identical(self):
        source = "(FPCore (x) :pre (<= 1e16 x 1e17) (- (+ x 1) x))"
        fixed = AnalysisSession(config=FIXED, num_points=8).analyze(source)
        adaptive = AnalysisSession(config=ADAPTIVE, num_points=8).analyze(
            source
        )
        assert fixed.to_json() == adaptive.to_json()
        assert adaptive.detected


class TestAppEquivalence:
    def test_pid_case_study(self):
        from repro.apps.pid import build_pid_program

        program = build_pid_program()
        inputs = [[10.0], [4.0], [7.2]]
        fixed, fixed_outs = analyze_program(program, inputs, config=FIXED)
        adaptive, adaptive_outs = analyze_program(
            program, inputs, config=ADAPTIVE
        )
        assert fixed_outs == adaptive_outs
        assert analysis_signature(fixed) == analysis_signature(adaptive)

    def test_plotter_case_study(self):
        from repro.apps.plotter import PAPER_REGION, build_plotter_program

        program = build_plotter_program(6, 6)
        fixed, __ = analyze_program(
            program, [list(PAPER_REGION)], config=FIXED
        )
        adaptive, __ = analyze_program(
            program, [list(PAPER_REGION)], config=ADAPTIVE
        )
        assert analysis_signature(fixed) == analysis_signature(adaptive)


class TestEscalation:
    def test_escalation_fires_and_output_matches(self):
        # (1/3 + 1e-300) - 1/3: the inexact thirds cancel to ~1e-300,
        # far below the working tier's trusted band -> the output spot
        # must escalate, and still match fixed mode exactly.
        source = "(FPCore (x) :pre (<= 1 x 2) (- (+ (/ 1 x) 1e-300) (/ 1 x)))"
        fixed_session = AnalysisSession(config=FIXED, num_points=4)
        adaptive_session = AnalysisSession(config=ADAPTIVE, num_points=4)
        fixed = fixed_session.analyze(source)
        adaptive = adaptive_session.analyze(source)
        assert fixed.to_json() == adaptive.to_json()
        assert adaptive.raw.policy.stats["escalations"] > 0

    def test_no_escalations_on_benign_arithmetic(self):
        source = "(FPCore (x) :pre (<= 1 x 2) (+ (* x x) 1))"
        session = AnalysisSession(config=ADAPTIVE, num_points=4)
        result = session.analyze(source)
        assert result.raw.policy.stats["escalations"] == 0

    def test_exact_accumulator_never_escalates(self):
        # Every partial sum k * 0.1 fits a double-double exactly, so the
        # pair kernel certifies each `+ 0.1` exact and the accumulator
        # keeps EXACT drift: no rounding escalation, no working-tier
        # re-execution (a low-word-only exactness test gave 74).
        core = corpus_by_name()["loop-tenth-accumulate"]
        hw_on, hw_off = (
            AnalysisConfig(shadow_precision=1000,
                           precision_policy="adaptive", hw_tier=flag)
            for flag in (True, False)
        )
        reports = {}
        for name, config in (("adaptive", hw_on), ("fixed", FIXED),
                             ("hw-off", hw_off)):
            result = AnalysisSession(config=config, num_points=8,
                                     seed=0).analyze(core)
            reports[name] = result.to_json()
            if name == "adaptive":
                residency = result.raw.tier_residency()
        assert residency["hw_kernel_ops"] > 0
        assert residency["escalation_rounding"] == 0
        assert residency["working_certified"] == 0
        assert reports["adaptive"] == reports["fixed"] == reports["hw-off"]

    def test_branch_divergence_matches_fixed(self):
        # The PID drift phenomenon reduced to a benchmark: t drifts
        # below its real value, so the float takes one extra iteration.
        from repro.apps.pid import build_pid_program, run_pid

        fixed = run_pid(10.0, config=FIXED)
        adaptive = run_pid(10.0, config=ADAPTIVE)
        assert fixed.iterations == adaptive.iterations
        assert fixed.branch_divergences == adaptive.branch_divergences


class TestCopysignDrift:
    def test_drifted_sign_source_matches_fixed(self):
        # Regression: copysign must not drop its *sign* operand's
        # drift.  (x + y) - x - y cancels to a working-tier zero whose
        # sign is pure noise; routing it through copysign used to
        # launder the uncertainty into an EXACT-drift shadow, breaking
        # report-identity with fixed mode.
        source = "(FPCore (x y) (copysign 1 (- (- (+ x y) x) y)))"
        points = [[1.0, 2.0 ** -150], [1.0, 2.0 ** -80]]
        fixed = AnalysisSession(config=FIXED).analyze(
            source, points=points
        )
        adaptive = AnalysisSession(config=ADAPTIVE).analyze(
            source, points=points
        )
        assert fixed.to_json() == adaptive.to_json()

    def test_certain_sign_source_stays_cheap(self):
        from repro.bigfloat.policy import AdaptivePrecisionPolicy, EXACT

        policy = AdaptivePrecisionPolicy(1000, working_precision=144)
        magnitude = BigFloat.from_float(1.0)
        sign = BigFloat.from_float(-2.0)
        drift = policy.propagate(
            "copysign", [magnitude, sign], [3.0, 5.0], magnitude.neg()
        )
        assert drift == 3.0  # sign is decisively negative: no penalty


class TestSpecialArgumentExactness:
    def test_transcendental_of_zero_is_not_exact(self):
        # Regression: acos(0) = pi/2 is *rounded* at the working tier;
        # claiming exactness for any op with a zero argument exempted
        # it from escalation and tan amplified the tier difference
        # into a different report.
        source = "(FPCore (x) :pre (<= 0 x 0) (tan (acos x)))"
        points = [[0.0]]
        fixed = AnalysisSession(config=FIXED).analyze(source, points=points)
        adaptive = AnalysisSession(config=ADAPTIVE).analyze(
            source, points=points
        )
        assert fixed.to_json() == adaptive.to_json()

    def test_atan2_on_zero_axis_matches_fixed(self):
        source = "(FPCore (x) :pre (<= 1 x 2) (tan (atan2 x 0)))"
        fixed = AnalysisSession(config=FIXED, num_points=4).analyze(source)
        adaptive = AnalysisSession(config=ADAPTIVE, num_points=4).analyze(
            source
        )
        assert fixed.to_json() == adaptive.to_json()


class TestAdaptiveConfigValidation:
    def test_undersized_working_precision_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="too small"):
            AnalysisConfig(
                precision_policy="adaptive", working_precision=64
            )

    def test_fixed_policy_unconstrained(self):
        AnalysisConfig(precision_policy="fixed", working_precision=64)


class TestConfirmTier:
    def test_moderate_cancellation_certified_without_full_tier(self):
        # atan(N+1) - atan(N) at large N cancels ~2 log2(N) bits: too
        # deep for the working tier's guard band, easily decided at
        # the confirm tier without a 1000-bit re-execution.
        source = (
            "(FPCore (N) :pre (<= 1e6 N 1e7)"
            " (- (atan (+ N 1)) (atan N)))"
        )
        cfg = AnalysisConfig(
            shadow_precision=1000, precision_policy="adaptive",
            working_precision=64 + 16 + 8,  # minimal legal working tier
        )
        session = AnalysisSession(config=cfg, num_points=8)
        result = session.analyze(source)
        fixed = AnalysisSession(config=FIXED, num_points=8).analyze(source)
        assert result.to_json() == fixed.to_json()
        escalator = result.raw.escalator
        assert result.raw.policy.stats["escalations"] > 0
        assert escalator.confirm_certified > 0
        # certification avoided the exact tier entirely
        assert escalator.recomputed_nodes == 0

    def test_total_cancellation_skips_confirm_tier(self):
        # sin^2 + cos^2 - 1: the true value lives ~2^-999, rounding
        # noise at *every* intermediate tier; the escalator must go
        # straight to the full tier (no confirm-tier triple-pay) and
        # still match fixed mode.
        source = (
            "(FPCore (x) :pre (<= 0.1 x 1)"
            " (- (+ (* (sin x) (sin x)) (* (cos x) (cos x))) 1))"
        )
        adaptive = AnalysisSession(config=ADAPTIVE, num_points=4).analyze(
            source
        )
        fixed = AnalysisSession(config=FIXED, num_points=4).analyze(source)
        assert adaptive.to_json() == fixed.to_json()
        raw = adaptive.raw
        assert raw.policy.stats["escalations"] > 0
        assert raw.escalator.confirm_certified == 0
        assert raw.escalator.recomputed_nodes > 0


class TestShadowEscalator:
    def test_reexecution_matches_full_tier_computation(self):
        from repro.bigfloat import Context, apply

        policy = AdaptivePrecisionPolicy(1000, working_precision=192)
        escalator = ShadowEscalator(policy)
        full = Context(precision=1000)
        working = Context(precision=192)
        x = trace_mod.input_leaf(3.0, 0)
        third = trace_mod.op_node(
            "/", (trace_mod.const_leaf(1.0), x), 1.0 / 3.0
        )
        expr = trace_mod.op_node("sin", (third,), math.sin(1.0 / 3.0))
        expected = apply(
            "sin",
            [apply("/", [BigFloat.from_float(1.0),
                         BigFloat.from_float(3.0)], full)],
            full,
        )
        low = apply(
            "sin",
            [apply("/", [BigFloat.from_float(1.0),
                         BigFloat.from_float(3.0)], working)],
            working,
        )
        escalated = escalator.exact_node(expr)
        assert escalated.key() == expected.key()
        assert escalated.key() != low.key()

    def test_memoization_shares_nodes(self):
        policy = AdaptivePrecisionPolicy(1000, working_precision=192)
        escalator = ShadowEscalator(policy)
        x = trace_mod.input_leaf(7.0, 0)
        shared = trace_mod.op_node(
            "/", (trace_mod.const_leaf(2.0), x), 2.0 / 7.0
        )
        left = trace_mod.op_node("sqrt", (shared,), math.sqrt(2.0 / 7.0))
        right = trace_mod.op_node("exp", (shared,), math.exp(2.0 / 7.0))
        escalator.exact_node(left)
        nodes_after_left = escalator.recomputed_nodes
        escalator.exact_node(right)
        # `shared` is reused from the memo: only `right` itself is new.
        assert escalator.recomputed_nodes == nodes_after_left + 1

    def test_leaf_override_for_wide_integers(self):
        # 2^60 + 1 is not a double; the escalator must see the exact
        # integer, not the rounded float leaf value.
        policy = AdaptivePrecisionPolicy(1000, working_precision=192)
        escalator = ShadowEscalator(policy)
        wide = (1 << 60) + 1
        leaf = trace_mod.const_leaf(float(wide))
        escalator.register_leaf(leaf, BigFloat.from_int(wide))
        assert escalator.exact_node(leaf).key() == \
            BigFloat.from_int(wide).key()

    def test_deep_trace_does_not_recurse(self):
        # Loop traces grow thousands of levels; re-execution must be
        # iterative (a recursive walk would blow the stack).
        policy = AdaptivePrecisionPolicy(1000, working_precision=192)
        escalator = ShadowEscalator(policy)
        node = trace_mod.const_leaf(1.0)
        for __ in range(5000):
            node = trace_mod.op_node("+", (node, trace_mod.const_leaf(1.0)),
                                     0.0)
        value = escalator.exact_node(node)
        assert value.key() == BigFloat.from_int(5001).key()


class TestIntToFloatTier:
    def test_wide_integer_conversion_identical(self):
        # A program that converts a wide integer (> 2^53) to float:
        # the conversion itself is the error source, and adaptive mode
        # must agree with fixed mode on the bits.
        from repro.machine.builder import FunctionBuilder
        from repro.machine import Program

        def build():
            fn = FunctionBuilder("main")
            wide = fn.const_int((1 << 60) + 1)
            as_float = fn.int_to_float(wide)
            fn.out(as_float)
            fn.ret(fn.const(0.0))
            return Program(functions={"main": fn.build()}, entry="main")

        fixed, __ = analyze_program(build(), [[]], config=FIXED)
        adaptive, __ = analyze_program(build(), [[]], config=ADAPTIVE)
        assert analysis_signature(fixed) == analysis_signature(adaptive)
