"""Deep traces must never hit Python's recursion limit.

Loop programs grow concrete-trace DAGs thousands of levels deep — far
beyond the default recursion limit — while the *visible* (depth-
bounded) expression stays small.  Every trace traversal
(``structural_key``, ``node_count``, deep-marking, the initial
conversion, the merge, value collection) is iterative; these tests
pin that, at and beyond the bound, under both engines.
"""

import sys

import pytest

from repro.core import AnalysisConfig, analyze_program
from repro.core.antiunify import Generalization, collect_variable_values
from repro.core.trace import (
    TracePool,
    const_leaf,
    input_leaf,
    node_count,
    op_node,
    structural_key,
)
from repro.machine import FunctionBuilder, Program


def chain(depth, leaf=None, op="+", salt=0.0):
    """A trace chain `op(op(... leaf ...), c)` of the given depth."""
    node = leaf if leaf is not None else input_leaf(1.0, 0)
    for level in range(depth - 1):
        node = op_node(
            op, (node, const_leaf(0.5)), float(level) + salt, loc=f"l:{level}"
        )
    return node


def pooled_chain(pool, depth, salt=0.0):
    """:func:`chain` interned in ``pool``; returns the root ident.  The
    salt picks the op sites, so chains differing only in their values
    stay distinct entries."""
    ident = pool.input_ident(1.0, 0)
    half = pool.const_ident(0.5)
    base = int(salt * 4) << 32
    for level in range(depth - 1):
        ident = pool.op_ident(
            "+", (ident, half), float(level) + salt, loc=f"l:{level}",
            site=base + level,
        )
    return ident


def update(site, depth, pool=None, salt=0.0):
    """One update with bindings: the pooled (compiled engine) walk when
    ``pool`` is given, the reference merge over nodes otherwise."""
    if pool is not None:
        return site.update_with_bindings_pooled(
            pool, pooled_chain(pool, depth, salt)
        )
    return site.update_with_bindings(chain(depth, salt=salt))


DEEP = sys.getrecursionlimit() * 3


class TestIterativeTraversals:
    def test_structural_key_beyond_recursion_limit(self):
        node = chain(DEEP)
        key = structural_key(node, DEEP)
        assert isinstance(key, tuple)
        # Cached second call returns the identical object.
        assert structural_key(node, DEEP) is key

    def test_node_count_beyond_recursion_limit(self):
        assert node_count(chain(DEEP)) == DEEP - 1

    def test_collect_variable_values_deep_expression(self):
        # An expression as deep as the trace: the collect walk spans it.
        node = chain(DEEP)
        site = Generalization(max_depth=DEEP + 1)
        expression = site.update(node)
        out = {}
        collect_variable_values(expression, node, out)
        assert out["x0"] == 1.0

    @pytest.mark.parametrize("pooled", [False, True])
    def test_initial_and_merge_with_huge_depth_bound(self, pooled):
        # max_depth at the trace's own scale: _initial and _merge must
        # walk the whole chain without recursing.
        pool = TracePool() if pooled else None
        site = Generalization(max_depth=DEEP + 1)
        first, __ = update(site, DEEP, pool)
        assert first is not None
        merged, bindings = update(site, DEEP, pool, salt=0.25)
        assert merged is not None
        assert bindings["x0"] == 1.0

    @pytest.mark.parametrize("pooled", [False, True])
    def test_deep_trace_with_default_bound(self, pooled):
        # The everyday case: a trace far beyond max_depth=20.
        pool = TracePool() if pooled else None
        site = Generalization()
        update(site, DEEP, pool)
        expression, bindings = update(site, DEEP, pool, salt=0.25)
        assert expression is not None
        assert "x0" not in bindings  # the input sits beyond the bound


class TestBoundaryParity:
    """Pooled and reference walks agree exactly at the truncation
    bound."""

    @pytest.mark.parametrize("depth", [18, 19, 20, 21, 22, 40])
    def test_expression_identical_at_and_past_the_bound(self, depth):
        for salts in ([0.0, 0.0], [0.0, 0.25], [0.25, 0.5, 0.25]):
            pool = TracePool()
            reference = Generalization(max_depth=20)
            pooled = Generalization(max_depth=20)
            for salt in salts:
                expected = update(reference, depth, salt=salt)
                got = update(pooled, depth, pool, salt=salt)
                assert str(got[0]) == str(expected[0])
                assert got[1] == expected[1]


class TestDeepLoopPrograms:
    def run_deep_loop(self, engine, iterations=None):
        if iterations is None:
            iterations = sys.getrecursionlimit() * 2
        fn = FunctionBuilder("main")
        total = fn.const(0.0)
        one = fn.const(1.0)
        count = fn.read()
        i = fn.const(0.0)
        head = fn.label()
        done = fn.fresh_label("done")
        fn.branch("ge", i, count, done)
        fn.mov_to(total, fn.op("+", total, fn.op("/", one, fn.op("+", i, one))))
        fn.mov_to(i, fn.op("+", i, one))
        fn.jump(head)
        fn.label(done)
        fn.out(total)
        fn.halt()
        program = Program()
        program.add(fn.build())
        config = AnalysisConfig(engine=engine)
        return analyze_program(program, [[float(iterations)]], config=config)

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_deep_loop_analysis_and_report(self, engine):
        analysis, outputs = self.run_deep_loop(engine)
        assert outputs[0][0] > 1.0
        # Report generation touches node_count/locations on the last
        # (deep) trace; it must not recurse either.
        from repro.core import generate_report

        report = generate_report(analysis)
        assert report.format()
