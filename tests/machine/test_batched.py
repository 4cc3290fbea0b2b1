"""Lockstep batched execution: grouping, divergence, byte-identity.

The batched engine's one contract is that turning it on is invisible:
reports are byte-identical to the sequential per-point loop for every
lane pattern — uniform batches, divergent branches splitting the lanes
into sub-batches, loop programs falling back entirely, and the
degenerate one-lane batch — and for every lane value, down to signed
zeros, NaN, subnormals and wide double-double operands on every
operation the batched lane loops handle.
"""

import math
import os
import struct
import subprocess
import sys
import textwrap

import pytest

from repro.bigfloat.functions import DOUBLE_HANDLERS
from repro.core import AnalysisConfig, HerbgrindAnalysis, analyze_program
from repro.core.trace import P_OPAQUE
from repro.fpcore.parser import parse_fpcore
from repro.machine import (
    BatchedProgram,
    FunctionBuilder,
    Program,
    Tracer,
    compile_fpcore,
)
from repro.machine.interpreter import MachineError

STRAIGHT = parse_fpcore("(FPCore (x y) (- (+ x y) x))")
BRANCHY = parse_fpcore(
    "(FPCore (x) (if (< x 1.0) (+ x 1e16) (- x 1e16)))"
)
LOOP = parse_fpcore(
    "(FPCore (x) (while (< i 3.0) "
    "([i 0.0 (+ i 1.0)] [acc x (+ acc x)]) acc))"
)


def signature(analysis):
    """Every externally observable per-site statistic."""
    rows = []
    for record in analysis.candidate_records():
        rows.append((
            record.site_id, record.op, record.loc, record.executions,
            record.candidate_executions, record.max_local_error,
            record.sum_local_error, record.compensations_detected,
            str(record.symbolic_expression),
            sorted(record.node_locations().items()),
        ))
    for spot in sorted(
        analysis.spot_records.values(), key=lambda s: s.site_id
    ):
        rows.append((
            spot.site_id, spot.kind, spot.loc, spot.executions,
            spot.erroneous, spot.max_error, spot.sum_error,
            sorted(r.site_id for r in spot.influences),
        ))
    return rows


def run_both(core, points, policy="adaptive"):
    config = AnalysisConfig(precision_policy=policy)
    program = compile_fpcore(core)
    batched, out_b = analyze_program(
        program, points, config=config.with_(batched=True)
    )
    sequential, out_s = analyze_program(
        program, points, config=config.with_(batched=False)
    )
    assert out_b == out_s
    assert batched.runs == sequential.runs == len(points)
    assert signature(batched) == signature(sequential)
    return batched


class TestLockstepParity:
    @pytest.mark.parametrize("policy", ["fixed", "adaptive"])
    def test_uniform_batch_single_group(self, policy):
        points = [[1e16, 1.5], [2e16, 2.5], [3.0, 4.0], [5.0, 0.5]]
        analysis = run_both(STRAIGHT, points, policy)
        assert analysis.batched_groups == 1
        assert analysis.batched_lanes == 4

    @pytest.mark.parametrize("policy", ["fixed", "adaptive"])
    def test_divergent_lanes_split_into_groups(self, policy):
        # Signatures T F T T F: maximal *consecutive* runs give four
        # sub-batches ([0], [1], [2,3], [4]) — never a reordering.
        points = [[0.5], [2.0], [0.25], [0.75], [3.0]]
        analysis = run_both(BRANCHY, points, policy)
        assert analysis.batched_groups == 4
        assert analysis.batched_lanes == 5

    def test_lane_diverging_mid_program(self):
        # Both branches agree on the first comparison but not the
        # second: grouping is by the *whole* signature.
        core = parse_fpcore(
            "(FPCore (x) (if (< x 10.0) "
            "(if (< x 1.0) (+ x 1e16) (- x 1e16)) (* x 2.0)))"
        )
        points = [[0.5], [5.0], [0.25]]
        analysis = run_both(core, points)
        assert analysis.batched_groups == 3

    def test_lane_count_one_degenerate(self):
        # A divergence pattern that isolates every lane: each runs as
        # a one-lane batch and must still be byte-identical.
        points = [[0.5], [2.0], [0.75]]
        analysis = run_both(BRANCHY, points)
        assert analysis.batched_groups == 3
        assert analysis.batched_lanes == 3

    def test_loop_program_falls_back_to_sequential(self):
        analysis = run_both(LOOP, [[1.0], [2.0], [3.0]])
        assert analysis.batched_groups == 0

    def test_single_point_uses_sequential_path(self):
        analysis = run_both(STRAIGHT, [[1e16, 1.5]])
        assert analysis.batched_groups == 0


class TestStaticEligibility:
    def test_loop_program_is_ineligible(self):
        program = compile_fpcore(LOOP)
        assert BatchedProgram.compile(program, Tracer()) is None

    def test_straight_line_is_eligible(self):
        program = compile_fpcore(STRAIGHT)
        batched = BatchedProgram.compile(program, Tracer())
        assert batched is not None
        # Lane 0 exhibits the rounding the analysis exists to find:
        # (1e16 + 1.5) - 1e16 is 2.0 in doubles.
        assert batched.run_points([[1e16, 1.5], [3.0, 4.0]]) == [
            [2.0], [4.0]
        ]

    def test_forward_branches_are_eligible(self):
        program = compile_fpcore(BRANCHY)
        batched = BatchedProgram.compile(program, Tracer())
        assert batched is not None
        out = batched.run_points([[0.5], [2.0]])
        assert out == [[0.5 + 1e16], [2.0 - 1e16]]
        assert batched.groups_run == 2

    def test_empty_point_list(self):
        program = compile_fpcore(STRAIGHT)
        batched = BatchedProgram.compile(program, Tracer())
        assert batched.run_points([]) == []


class TestErrorFallback:
    def test_probe_failure_returns_none(self):
        # Too few inputs: the probe lane raises, run_points reports
        # None, and nothing was aggregated.
        program = compile_fpcore(BRANCHY)
        batched = BatchedProgram.compile(program, Tracer())
        assert batched.run_points([[0.5], []]) is None

    def test_ragged_inputs_match_sequential_error(self):
        # Straight-line programs skip the probe, so the failure
        # surfaces mid-batch; the driver must reproduce the
        # sequential behaviour (raise on the short lane).
        program = compile_fpcore(STRAIGHT)
        with pytest.raises(MachineError) as batched_err:
            analyze_program(
                program, [[1.0, 2.0], [1.0]],
                config=AnalysisConfig(batched=True),
            )
        with pytest.raises(MachineError) as sequential_err:
            analyze_program(
                program, [[1.0, 2.0], [1.0]],
                config=AnalysisConfig(batched=False),
            )
        assert str(batched_err.value) == str(sequential_err.value)


class TestEnvironmentSwitch:
    def test_repro_batched_off_disables_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCHED", "0")
        assert AnalysisConfig().batched is False
        assert not HerbgrindAnalysis(AnalysisConfig())._batched

    def test_explicit_switch_overrides_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCHED", "0")
        assert HerbgrindAnalysis(AnalysisConfig(batched=True))._batched
        monkeypatch.delenv("REPRO_BATCHED", raising=False)
        assert not HerbgrindAnalysis(AnalysisConfig(batched=False))._batched

    def test_resource_guard_forces_sequential(self):
        # Budgets need per-op ticks, which only the sequential path has.
        guarded = AnalysisConfig(op_budget=10 ** 9, batched=True)
        assert not HerbgrindAnalysis(guarded)._batched

    def test_repro_batched_on_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCHED", raising=False)
        assert AnalysisConfig().batched is True
        assert HerbgrindAnalysis(AnalysisConfig())._batched
        assert not HerbgrindAnalysis(
            AnalysisConfig(engine="reference")
        )._batched


class TestImportFootprint:
    def test_batched_adaptive_analysis_never_imports_numpy(self):
        # A fresh interpreter, since other test modules import NumPy as
        # an oracle.  The batched engine loops lanes in pure Python, so
        # neither the library, the server, nor an adaptive batched
        # run with the double-double tier may load NumPy.
        script = textwrap.dedent("""
            import sys
            import repro.api
            import repro.serve
            from repro.api import AnalysisSession
            from repro.core import AnalysisConfig

            session = AnalysisSession(
                config=AnalysisConfig(precision_policy="adaptive"),
                num_points=8, seed=3,
            )
            result = session.analyze(
                "(FPCore (x y) :pre (and (<= 1 x 2) (<= 1 y 2))"
                " (- (* x x) (* y y)))"
            )
            assert result.raw.batched_lanes == 8, result.raw.batched_lanes
            assert result.raw.hw_kernel_ops > 0
            assert "numpy" not in sys.modules, "numpy was imported"
        """)
        env = dict(os.environ)
        # The run must batch even on a test leg that switches batching
        # off with REPRO_BATCHED.
        env.pop("REPRO_BATCHED", None)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


# Adversarial lane values: signed zeros, infinities, NaN, subnormals,
# the edges of the normal range, the Dekker splitting limit, and values
# an ulp apart.  The batched engine loops these lanes through the same
# scalar handlers and double-double kernels as the sequential engine,
# so every lane must come out bit for bit the same.
EDGE_VALUES = [
    0.0, -0.0, 1.0, -1.0, 1.5, -2.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    math.ldexp(1.0, 970), math.ldexp(1.0, -960), math.ldexp(1.0, -1060),
    1e16, 1.0 + 2 ** -52,
]

# Every rotation pairs each edge value with a different partner.
EDGE_PAIRS = [
    [EDGE_VALUES[i], EDGE_VALUES[(i + k) % len(EDGE_VALUES)]]
    for k in (0, 1, 5, 11)
    for i in range(len(EDGE_VALUES))
]

BINARY_OPS = sorted(
    ("+", "-", "*", "/", "atan2", "copysign", "fdim", "fmax", "fmin",
     "fmod", "hypot", "pow", "remainder")
)
UNARY_OPS = sorted(
    op for op in DOUBLE_HANDLERS if op not in BINARY_OPS and op != "fma"
)

CONFIGS = {
    "fixed": AnalysisConfig(precision_policy="fixed"),
    "adaptive": AnalysisConfig(precision_policy="adaptive"),
}


def raw_bits(rows):
    """Outputs as IEEE encodings: tells -0.0 from 0.0 and NaN == NaN."""
    return [[struct.pack("<d", value) for value in row] for row in rows]


def run_both_bitwise(core, points, config):
    program = compile_fpcore(core)
    batched, out_b = analyze_program(
        program, points, config=config.with_(batched=True)
    )
    sequential, out_s = analyze_program(
        program, points, config=config.with_(batched=False)
    )
    assert raw_bits(out_b) == raw_bits(out_s)
    assert batched.runs == sequential.runs == len(points)
    # repr() so that NaN statistics compare by their spelling.
    assert repr(signature(batched)) == repr(signature(sequential))
    assert batched.batched_groups == 1
    assert batched.batched_lanes == len(points)
    return batched


class TestEdgeLanes:
    def test_every_batched_operation_is_covered(self):
        assert "fma" in DOUBLE_HANDLERS
        assert len(BINARY_OPS) + len(UNARY_OPS) + 1 == len(DOUBLE_HANDLERS)

    @pytest.mark.parametrize("policy", sorted(CONFIGS))
    @pytest.mark.parametrize("op", BINARY_OPS)
    def test_binary_edge_lanes_match_sequential(self, op, policy):
        core = parse_fpcore(f"(FPCore (x y) ({op} x y))")
        run_both_bitwise(core, EDGE_PAIRS, CONFIGS[policy])

    @pytest.mark.parametrize("policy", sorted(CONFIGS))
    @pytest.mark.parametrize("op", UNARY_OPS)
    def test_unary_edge_lanes_match_sequential(self, op, policy):
        core = parse_fpcore(f"(FPCore (x) ({op} x))")
        run_both_bitwise(
            core, [[value] for value in EDGE_VALUES], CONFIGS[policy]
        )

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_wide_double_double_operands(self, op):
        # (+ x y) leaves a double-double shadow with a nonzero low word
        # on most lanes, so the outer operation runs the pair kernels
        # on operands wider than a double.
        core = parse_fpcore(f"(FPCore (x y z) ({op} (+ x y) z))")
        points = [
            [1e16, 1.5, 3.0], [1.0, 2 ** -60, -1.0], [1e300, 1e284, 1e-10],
            [3.0, 1e-17, 7.0], [-2.0, 2 ** -70, 2.0 ** 600],
            [1.0, -2 ** -53, 1.0 + 2 ** -52], [5e-324, 1.0, 1e16],
            [0.1, 0.2, 0.3],
        ]
        analysis = run_both_bitwise(core, points, CONFIGS["adaptive"])
        assert analysis.hw_kernel_ops > 0

    def test_cancellation_lanes(self):
        # x + (-x) cancels exactly in the high word; with a low word
        # left over, the result is that low word alone.
        core = parse_fpcore("(FPCore (x y) (+ (+ x y) (- x)))")
        points = [
            [math.ldexp(1.0 + k / 16, e), math.ldexp(1.0, e - 60 - k)]
            for k in range(4) for e in (-40, 0, 40)
        ]
        analysis = run_both_bitwise(core, points, CONFIGS["adaptive"])
        assert analysis.hw_kernel_ops > 0

    def test_division_by_zero_lanes(self):
        core = parse_fpcore("(FPCore (x y) (/ x y))")
        points = [
            [1.0, 0.0], [-1.0, -0.0], [0.0, 0.0], [-0.0, -0.0],
            [math.nan, 0.0], [math.inf, 0.0], [2.0, -0.0], [3.0, 1.0],
        ]
        for config in CONFIGS.values():
            run_both_bitwise(core, points, config)

    def test_negative_sqrt_lanes(self):
        core = parse_fpcore("(FPCore (x) (sqrt x))")
        points = [
            [-1.0], [4.0], [-0.0], [0.0], [-math.inf], [math.inf], [2.0],
            [-4.0],
        ]
        for config in CONFIGS.values():
            run_both_bitwise(core, points, config)


def run_three_ways(program, points, policy):
    """Reference, compiled sequential and compiled batched analyses."""
    reference, out_r = analyze_program(
        program, points,
        config=AnalysisConfig(precision_policy=policy, engine="reference"),
    )
    config = AnalysisConfig(precision_policy=policy)
    sequential, out_s = analyze_program(
        program, points, config=config.with_(batched=False)
    )
    batched, out_b = analyze_program(
        program, points, config=config.with_(batched=True)
    )
    assert raw_bits(out_r) == raw_bits(out_s) == raw_bits(out_b)
    assert signature(reference) == signature(sequential) \
        == signature(batched)
    assert batched.batched_lanes == len(points)
    return reference, sequential, batched


class TestSharedSiteSteps:
    """Both compiled engines run the same per-site steps, so they share
    the per-ident memo and the lazily created opaque shadows."""

    @pytest.mark.parametrize("policy", ["fixed", "adaptive"])
    def test_batched_lanes_use_the_memo(self, policy):
        # The third point repeats the first: both of its operations
        # replay their memoized shadows, in either engine.
        points = [[1.5, 1e16], [2.25, 1e17], [1.5, 1e16]]
        __, sequential, batched = run_three_ways(
            compile_fpcore(STRAIGHT), points, policy
        )
        assert sequential.memo_hits == 2
        assert batched.memo_hits == sequential.memo_hits

    @pytest.mark.parametrize("policy", ["fixed", "adaptive"])
    def test_opaque_shadow_is_shared_by_its_consumers(self, policy):
        # z is a bitcast of x, so it reaches the analysis unshadowed;
        # it feeds two binary ops and one unary op.  (z + y) - z
        # cancels a large z against a small y, which makes the
        # subtraction a candidate.
        fn = FunctionBuilder("main")
        x = fn.read()
        y = fn.read()
        z = fn.bitcast_to_float(fn.bitcast_to_int(x))
        total = fn.op("+", z, y, loc="sum")
        fn.out(fn.op("-", total, z, loc="cancel"))
        fn.out(fn.op("sqrt", z, loc="root"))
        fn.halt()
        program = Program()
        program.add(fn.build())
        points = [[1e16, 1.5], [1e17, 2.25], [1e16, 3.0], [4e16, 0.5]]
        for analysis in run_three_ways(program, points, policy):
            by_loc = {
                record.loc: record for record in analysis.op_records.values()
            }
            assert by_loc["cancel"].candidate_executions > 0
            pool = analysis.pool
            leaves = []
            for loc, index in (("sum", 0), ("cancel", 1), ("root", 0)):
                leaf = pool.args[by_loc[loc].last_trace][index]
                leaves.append((pool.kinds[leaf] == P_OPAQUE, leaf))
            assert all(opaque for opaque, __ in leaves)
            assert len({ident for __, ident in leaves}) == 1
