"""Tests for per-node source locations (paper footnote 5)."""

from repro.core import AnalysisConfig, analyze_program
from repro.core.locations import format_located_expression
from repro.machine import FunctionBuilder, Program

FAST = AnalysisConfig(shadow_precision=192)


def analysed_record():
    """A cross-file computation: (a+b at f1.c) - (a at f2.c) at f3.c."""
    fn = FunctionBuilder("main")
    a = fn.read()
    b = fn.read()
    total = fn.op("+", a, b, loc="f1.c:10")
    diff = fn.op("-", total, a, loc="f3.c:30")
    fn.out(diff, loc="f3.c:31")
    fn.halt()
    program = Program()
    program.add(fn.build())
    analysis, __ = analyze_program(program, [[1e16, 1.0]], config=FAST)
    causes = analysis.reported_root_causes()
    assert causes
    return causes[0]


class TestNodeLocations:
    def test_locations_per_operator(self):
        record = analysed_record()
        locations = record.node_locations()
        assert locations[()] == "f3.c:30"  # the root subtraction
        assert locations[(0,)] == "f1.c:10"  # the inner addition

    def test_located_rendering(self):
        record = analysed_record()
        text = record.located_expression()
        assert "f3.c:30" in text
        assert "f1.c:10" in text
        lines = text.splitlines()
        assert lines[0].startswith("(-")
        assert lines[1].strip().startswith("(+")

    def test_variables_have_no_location_entries(self):
        record = analysed_record()
        locations = record.node_locations()
        # Only the two operator positions are mapped.
        assert set(locations) == {(), (0,)}

    def test_empty_for_missing_trace(self):
        from repro.core.records import OpRecord

        record = OpRecord(site_id=1, op="+", loc=None, config=FAST)
        assert record.node_locations() == {}
        assert record.located_expression() == "<no expression>"

    def test_format_handles_leaf_expression(self):
        from repro.fpcore.ast import Var

        assert format_located_expression(Var("x"), {}) == "x"


class TestEngineLocationParity:
    def test_branch_divergent_locations_match_reference(self):
        """The most-recent-trace contract across engines.

        A site fed through *different branch arms* computing
        structurally identical subexpressions at different source
        lines must report the last run's locations under both engines
        — the compiled engine's lazy end-of-run materialization may
        not serve a stale earlier trace.
        """
        from repro.fpcore import parse_fpcore
        from repro.machine import compile_fpcore

        core = parse_fpcore(
            "(FPCore (x) (* (if (< x 0) (+ x 1.5) (+ x 1.5)) 2.0))"
        )
        program = compile_fpcore(core)
        points = [[-1.0], [1.0]]
        locations = {}
        for engine in ("compiled", "reference"):
            analysis, __ = analyze_program(
                program, points, config=FAST.with_(engine=engine)
            )
            records = sorted(
                analysis.op_records.values(), key=lambda r: r.site_id
            )
            locations[engine] = [r.node_locations() for r in records]
        assert locations["compiled"] == locations["reference"]
