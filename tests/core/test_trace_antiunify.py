"""Tests for trace nodes and anti-unification."""

import itertools

from repro.core.antiunify import Generalization, collect_variable_values
from repro.core.trace import KIND_OP, TracePool, structural_key
from repro.fpcore import parse_expr
from repro.fpcore.ast import Num, Op, Var, expression_depth

#: The pool the module's hand-built traces intern in.  Every builder
#: call interns at a site of its own, so each call is a distinct node,
#: and returns the node the pool materializes for it.
POOL = TracePool()
_SITES = itertools.count(1)


def input_leaf(value, index):
    return POOL.node(POOL.input_ident(value, index, site=next(_SITES)))


def const_leaf(value):
    return POOL.node(POOL.const_ident(value, site=next(_SITES)))


def opaque_leaf(value):
    return POOL.node(POOL.opaque_ident(value))


def op_node(op, args, value, loc=None):
    return POOL.node(POOL.op_ident(
        op, tuple(a.ident for a in args), value, loc, site=next(_SITES)
    ))


def add(a, b, value=0.0):
    return op_node("+", (a, b), value, None)


def node_count(node):
    """Number of distinct operation nodes in the trace DAG.

    Iterative, so deep traces (long loop chains) cannot overflow the
    recursion limit.
    """
    seen = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current.kind != KIND_OP or current.ident in seen:
            continue
        seen.add(current.ident)
        stack.extend(current.args)
    return len(seen)


class TestTraceNodes:
    def test_depth(self):
        x = input_leaf(1.0, 0)
        assert x.depth == 1
        assert add(x, x).depth == 2
        assert add(add(x, x), x).depth == 3

    def test_traces_are_full_dags(self):
        # Construction never truncates; the bound applies at
        # generalization time.
        x = input_leaf(1.0, 0)
        deep = x
        for __ in range(30):
            deep = op_node("+", (deep, x), 0.0, None)
        assert deep.depth == 31

    def test_node_count_dag(self):
        x = input_leaf(1.0, 0)
        square = add(x, x)
        # Sharing: the same node used twice counts once.
        doubled = add(square, square)
        assert node_count(doubled) == 2

    def test_structural_key_depth(self):
        x = input_leaf(1.0, 0)
        a = add(add(x, x), x)
        b = add(add(x, const_leaf(2.0)), x)
        assert structural_key(a, 1)[1] == structural_key(b, 1)[1]
        assert structural_key(a, 3) != structural_key(b, 3)

    def test_opaque_keys_by_identity(self):
        a = opaque_leaf(1.0)
        b = opaque_leaf(1.0)
        assert structural_key(a, 5) != structural_key(b, 5)
        assert structural_key(a, 5) == structural_key(a, 5)


class TestGeneralization:
    def test_first_trace_structure(self):
        g = Generalization()
        x = input_leaf(2.0, 0)
        trace = add(op_node("*", (x, x), 4.0, None), const_leaf(1.0), 5.0)
        expr = g.update(trace)
        assert expr == parse_expr("(+ (* x0 x0) 1)")

    def test_opaque_becomes_variable(self):
        g = Generalization()
        t = opaque_leaf(7.0)
        expr = g.update(add(t, const_leaf(1.0), 8.0))
        assert isinstance(expr.args[0], Var)

    def test_shared_opaque_same_variable(self):
        g = Generalization()
        t = opaque_leaf(7.0)
        expr = g.update(op_node("*", (t, t), 49.0, None))
        assert expr.args[0] == expr.args[1]

    def test_distinct_opaques_distinct_variables(self):
        g = Generalization()
        expr = g.update(
            op_node("*", (opaque_leaf(7.0), opaque_leaf(7.0)), 49.0, None)
        )
        assert expr.args[0] != expr.args[1]

    def test_differing_constants_generalize(self):
        g = Generalization()
        x = input_leaf(0.0, 0)
        g.update(add(x, const_leaf(1.0), 1.0))
        expr = g.update(add(x, const_leaf(2.0), 2.0))
        assert isinstance(expr.args[1], Var)
        assert expr.args[0] == Var("x0")

    def test_same_constants_stay(self):
        g = Generalization()
        x = input_leaf(0.0, 0)
        g.update(add(x, const_leaf(1.0), 1.0))
        expr = g.update(add(x, const_leaf(1.0), 1.0))
        assert expr == parse_expr("(+ x0 1)")

    def test_operator_mismatch_generalizes_subtree(self):
        g = Generalization()
        x = input_leaf(0.0, 0)
        g.update(add(op_node("*", (x, x), 0.0, None), x, 0.0))
        expr = g.update(add(op_node("/", (x, x), 1.0, None), x, 1.0))
        assert isinstance(expr.args[0], Var)
        assert expr.args[1] == Var("x0")

    def test_equivalent_pairs_get_same_variable(self):
        # The same (old, new) subtree pair at two positions must yield
        # the same variable — that is what makes ranges meaningful.
        g = Generalization()
        one = const_leaf(1.0)
        two = const_leaf(2.0)
        # (1 + 1) first, then (2 + 2): both positions change identically.
        g.update(add(one, one, 2.0))
        expr = g.update(add(two, two, 4.0))
        assert isinstance(expr.args[0], Var)
        assert expr.args[0] == expr.args[1]

    def test_different_pairs_get_different_variables(self):
        g = Generalization()
        g.update(add(const_leaf(1.0), const_leaf(1.0), 2.0))
        expr = g.update(add(const_leaf(2.0), const_leaf(3.0), 5.0))
        assert expr.args[0] != expr.args[1]

    def test_monotone_generalization(self):
        """Once a position is a variable it never re-specializes."""
        g = Generalization()
        x = input_leaf(0.0, 0)
        g.update(add(x, const_leaf(1.0), 1.0))
        g.update(add(x, const_leaf(2.0), 2.0))
        expr = g.update(add(x, const_leaf(1.0), 1.0))
        assert isinstance(expr.args[1], Var)

    def test_deep_sharing_is_fast(self):
        """Repeated squaring (DAG) must not blow up exponentially."""
        g = Generalization(max_depth=50)
        for run in range(3):
            node = input_leaf(float(run + 2), 0)
            for __ in range(40):
                # value saturates to inf quickly; that is fine here.
                node = op_node("*", (node, node), node.value * node.value, None)
            g.update(node)
        assert g.expression is not None

    def test_csqrt_fragment_shape(self):
        """The paper's Section 3 extraction: differing pixel-coordinate
        computations generalize to variables, shared ones to the same."""
        g = Generalization()
        for i in range(4):
            # x and y come from opaque per-pixel computations; x is used
            # both inside the sqrt and as the subtrahend (shared node).
            x = opaque_leaf(0.1 * (i + 1))
            y = opaque_leaf(1e-9 * (i + 1))
            xx = op_node("*", (x, x), x.value ** 2, None)
            yy = op_node("*", (y, y), y.value ** 2, None)
            total = op_node("+", (xx, yy), xx.value + yy.value, None)
            root = op_node("sqrt", (total,), total.value ** 0.5, None)
            g.update(op_node("-", (root, x), root.value - x.value, None))
        expr = g.expression
        assert isinstance(expr, Op) and expr.op == "-"
        sqrt_node = expr.args[0]
        assert sqrt_node.op == "sqrt"
        sum_node = sqrt_node.args[0]
        x_var = sum_node.args[0].args[0]
        y_var = sum_node.args[1].args[0]
        assert isinstance(x_var, Var) and isinstance(y_var, Var)
        assert x_var != y_var
        # the x inside sqrt is the same variable as the trailing x
        assert expr.args[1] == x_var


class TestDepthBound:
    def chain(self, levels, leaf_value=1.0):
        node = input_leaf(leaf_value, 0)
        for __ in range(levels):
            node = op_node("+", (node, const_leaf(1.0)), node.value + 1, None)
        return node

    def test_initial_trace_depth_bounded(self):
        g = Generalization(max_depth=3)
        expr = g.update(self.chain(10))
        # 3 operator levels plus the leaf level.
        assert expression_depth(expr) <= 4

    def test_depth_one_single_operation(self):
        """Depth 1 'effectively disables symbolic expression tracking'
        (paper Section 8.2): only the erroneous op itself survives."""
        g = Generalization(max_depth=1)
        expr = g.update(self.chain(10))
        assert isinstance(expr, Op)
        assert all(isinstance(a, (Var, Num)) for a in expr.args)

    def test_merge_respects_bound(self):
        g = Generalization(max_depth=3)
        g.update(self.chain(10, 1.0))
        expr = g.update(self.chain(10, 2.0))
        assert expression_depth(expr) <= 4

    def test_large_depth_keeps_everything(self):
        g = Generalization(max_depth=64)
        expr = g.update(self.chain(10))
        assert expression_depth(expr) == 11

    def test_truncated_positions_are_variables(self):
        g = Generalization(max_depth=2)
        expr = g.update(self.chain(5))
        assert isinstance(expr, Op)
        inner = expr.args[0]
        assert isinstance(inner, Op)
        assert isinstance(inner.args[0], Var)


class TestCollectVariableValues:
    def test_values_recorded_per_variable(self):
        g = Generalization()
        x = input_leaf(3.0, 0)
        trace = add(x, const_leaf(1.0), 4.0)
        sym = g.update(trace)
        out = {}
        collect_variable_values(sym, trace, out)
        assert out == {"x0": 3.0}

    def test_generalized_position_values(self):
        g = Generalization()
        g.update(add(const_leaf(1.0), const_leaf(1.0), 2.0))
        trace = add(const_leaf(5.0), const_leaf(5.0), 10.0)
        sym = g.update(trace)
        out = {}
        collect_variable_values(sym, trace, out)
        assert list(out.values()) == [5.0]

    def test_truncated_variable_gets_subtree_value(self):
        g = Generalization(max_depth=1)
        x = input_leaf(3.0, 0)
        inner = op_node("*", (x, x), 9.0, None)
        trace = op_node("+", (inner, const_leaf(1.0)), 10.0, None)
        sym = g.update(trace)
        out = {}
        collect_variable_values(sym, trace, out)
        # The truncated (* x x) position reports its runtime value 9.0.
        assert 9.0 in out.values()

    def test_shared_node_truncates_everywhere(self):
        """A node shallow in one position but deep in another collapses
        to the SAME variable at both — the plotter-fragment mechanism."""
        g = Generalization(max_depth=4)
        coordinate = op_node(
            "+", (opaque_leaf(0.1), const_leaf(0.5)), 0.6, None
        )
        xx = op_node("*", (coordinate, coordinate), 0.36, None)
        yy = op_node("*", (opaque_leaf(1e-9), opaque_leaf(1e-9)), 1e-18, None)
        total = op_node("+", (xx, yy), 0.36, None)
        root = op_node("sqrt", (total,), 0.6, None)
        # coordinate occurs at depth 5 (inside sqrt) and depth 2 (arg).
        expr = g.update(op_node("-", (root, coordinate), 0.0, None))
        assert isinstance(expr.args[1], Var)
        inner_x = expr.args[0].args[0].args[0].args[0]
        assert inner_x == expr.args[1]

    def test_fast_path_bindings_match_collect(self):
        """A variable bound to two values at once: the pooled fast path
        must report what ``collect_variable_values`` reports, not the
        value its own walk happened to visit last."""
        x = input_leaf(2.5, 1)
        first = op_node("*", (op_node("-", (x, x), 0.0, None), x), 0.0, None)
        y = input_leaf(2.5, 1)
        second = op_node(
            "*",
            (op_node("-", (y, const_leaf(0.5)), 2.0, None), y),
            5.0, None,
        )
        g = Generalization()
        g.update_with_bindings(first)
        expr, bindings = g.update_with_bindings(second)
        reference = (str(expr), bindings)
        # The x1 facing 0.5 keeps its name (one sub-tree per update).
        assert reference == ("(* (- x1 x1) x1)", {"x1": 0.5})

        pool = TracePool()
        px = pool.input_ident(2.5, 1)
        pfirst = pool.op_ident(
            "*", (pool.op_ident("-", (px, px), 0.0, site=1), px), 0.0,
            site=2,
        )
        psecond = pool.op_ident(
            "*",
            (pool.op_ident("-", (px, pool.const_ident(0.5)), 2.0, site=3),
             px),
            5.0, site=4,
        )
        g = Generalization()
        g.update_with_bindings_pooled(pool, pfirst)
        expr, bindings = g.update_with_bindings_pooled(pool, psecond)
        assert (str(expr), bindings) == reference
