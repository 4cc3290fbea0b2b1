"""The fast anti-unification paths' truncation check, against oracles.

A fast update may only succeed when the full merge would leave the
expression unchanged.  Deep traces add one way to fail: an operator
position the expression expands can lie on the *truncation frontier*,
``max_depth`` edges below the root through some path of the DAG, and
the merge turns such a position into a variable.  The fast paths only
look for frontier positions among the ops whose height is at most
``depth(root) - max_depth`` and confirm them with one frontier walk
after an otherwise successful walk.

These tests feed random pooled DAGs (shared sub-traces, up to a few
times ``max_depth`` deep) to the fast path — the interpreted flat walk
and the generated verifier over the pool's arrays — and to a pooled
site whose flat program is disabled (``FLAT_LIMIT = 0``), and check:

* expressions and bindings equal those of the reference
  generalization fed the materialized nodes (the merge-only walk),
* each fast update succeeds exactly when a brute-force oracle says it
  should: the expression matches the trace and no op position it
  expands is on the frontier, computed as the set of ops some path of
  exactly ``max_depth`` edges reaches,
* an expression too large for the flat program never takes the fast
  path: it bails straight to the full merge.
"""

import itertools
import math

from hypothesis import event, given, settings
from hypothesis import strategies as st
import pytest

from repro.core.antiunify import Generalization
from repro.core.trace import P_CONST, P_INPUT, P_OP, TracePool
from repro.fpcore.ast import Num, Var

THRESHOLD = Generalization.VERIFIER_THRESHOLD


class _Counters:
    """The two verdict counters :class:`Generalization` records."""

    def __init__(self):
        self.antiunify_fast = 0
        self.antiunify_merge = 0


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def frontier_oracle(pool, root, max_depth):
    """Op idents reachable from ``root`` by a path of exactly
    ``max_depth`` edges (breadth-first, level by level)."""
    level = {root}
    for __ in range(max_depth):
        level = {
            child for ident in level for child in pool.args[ident]
            if pool.kinds[child] == P_OP
        }
    return level


def shape_oracle(pool, root, expression, eq_depth):
    """Whether ``expression`` matches the trace at ``root`` position by
    position (ignoring truncation), and the op idents it expands.

    A variable must stand for one bounded-depth key at every position
    it does not face its own input, and bind one value at every
    position — otherwise the value collected for it would depend on the
    walk order, so the fast paths leave it to the full merge.
    """
    expanded = set()
    keys = {}
    values = {}

    def walk(sym, ident):
        kind = pool.kinds[ident]
        if isinstance(sym, Var):
            value = pool.values[ident]
            bits = (value, math.copysign(1.0, value))
            if values.setdefault(sym.name, bits) != bits:
                return False
            if kind == P_INPUT and pool.ops[ident] == sym.name:
                return True
            key = pool.structural_key_of(ident, eq_depth)
            return keys.setdefault(sym.name, key) == key
        if isinstance(sym, Num):
            return kind == P_CONST and pool.values[ident] == sym.as_float()
        args = pool.args[ident]
        if kind != P_OP or pool.ops[ident] != sym.op \
                or len(args) != len(sym.args):
            return False
        expanded.add(ident)
        return all(walk(s, a) for s, a in zip(sym.args, args))

    return walk(expression, root), expanded


def check_gate_bound(pool, root, frontier, max_depth):
    """The height bound the fast paths gate on admits every frontier op."""
    lim = pool.depths[root] - max_depth
    assert all(pool.depths[ident] <= lim for ident in frontier)


# ----------------------------------------------------------------------
# Pooled DAGs with shared sub-traces
# ----------------------------------------------------------------------

OPS = {
    "+": lambda a, b: (a + b) % 8.0,
    "-": lambda a, b: (a - b) % 8.0,
    "*": lambda a, b: (a * b) % 8.0,
    "neg": lambda a: -a,
}

ARITY = {"+": 2, "-": 2, "*": 2, "neg": 1}
BINARY = ["+", "-", "*"]

#: Argument-slot kinds of :func:`draw_spec`, weighted: the levels the
#: expression expands branch more and hold more choices.
SLOTS = ["op", "op", "op", "leaf", "link", "choice", "choice"]
DEEP_SLOTS = ["op", "leaf", "link", "choice"]


def draw_spec(data, max_depth):
    """Draw a random DAG spec: ops listed in pre-order of a random tree
    (height at most ``3 * max_depth``) whose argument slots are

    * ``("op", i)`` — the tree child, spec entry ``i``,
    * ``("leaf", j)`` — leaf ``j`` of ``x0``, ``x1``, ``0.5``, ``2.0``,
    * ``("link", t, r)`` — a shared op with a larger pre-order index
      (a node of its own subtree or of a later branch), preferably one
      at tree level ``t`` or above,
    * ``("choice", t, r, bit)`` — the link if ``bit`` of the trace's
      mask is set, else a fresh input leaf.

    The root is binary over two subtrees.  Links only point forward in
    pre-order, so every spec is acyclic.  A link from one branch to a
    shallow node of a later branch is how a shared op gets a second,
    longer path — onto the frontier when its length is ``max_depth`` —
    so link targets favour the levels the expression expands.
    """
    budget = data.draw(st.integers(1, 4 * max_depth))
    spec = []
    levels = []
    bits = itertools.count()

    def grow(level):
        index = len(spec)
        op = data.draw(st.sampled_from(sorted(OPS) if level else BINARY))
        slots = []
        spec.append((op, slots))
        levels.append(level)
        for __ in range(ARITY[op]):
            kind = "op" if not level else data.draw(st.sampled_from(
                SLOTS if level < max_depth else DEEP_SLOTS
            ))
            if kind == "op" and (len(spec) >= budget
                                 or level >= 3 * max_depth - 1):
                kind = "leaf"
            if kind == "op":
                slots.append((kind, grow(level + 1)))
            elif kind == "leaf":
                slots.append((kind, data.draw(st.integers(0, 3))))
            else:
                slot = (kind, data.draw(st.integers(1, max_depth)),
                        data.draw(st.integers(0, 63)))
                slots.append(slot + (next(bits),) if kind == "choice"
                             else slot)
        return index

    grow(0)
    return spec, levels


def build_dag(pool, drawn, mask, seed):
    """Intern a :func:`draw_spec` spec in a new pool epoch and return
    the root ident.  Each spec entry is one site; ``seed`` varies the
    input values, so traces of one shape still bind different values."""
    spec, levels = drawn
    pool.begin_execution()
    leaves = [
        pool.input_ident(1.0 + 0.25 * (seed % 7), 0),
        pool.input_ident(3.0 - 0.5 * (seed % 5), 1),
        pool.const_ident(0.5, site=-1),
        pool.const_ident(2.0, site=-2),
    ]
    idents = [None] * len(spec)
    for index in range(len(spec) - 1, -1, -1):
        op, slots = spec[index]
        later = len(spec) - index - 1
        args = []
        for slot in slots:
            kind = slot[0]
            if kind == "op":
                args.append(idents[slot[1]])
            elif kind == "leaf":
                args.append(leaves[slot[1]])
            elif kind == "choice" and not (mask >> slot[3]) & 1:
                args.append(pool.input_ident(0.125 * seed, 2 + slot[3]))
            elif later:
                targets = [
                    i for i in range(index + 1, len(spec))
                    if levels[i] <= slot[1]
                ] or range(index + 1, len(spec))
                args.append(idents[targets[slot[2] % len(targets)]])
            else:
                args.append(leaves[slot[2] % 2])
        value = OPS[op](*(pool.values[a] for a in args))
        idents[index] = pool.op_ident(op, tuple(args), value, site=index)
    return idents[0]


def mask_sequences(max_size):
    """Mask sequences starting from the all-leaf shape: the expression
    a shallow shape leaves behind is the one a later link can drag onto
    the frontier."""
    return st.lists(
        st.integers(0, 2 ** 16 - 1), min_size=1, max_size=max_size - 1
    ).map(lambda rest: [0] + rest)


# ----------------------------------------------------------------------
# The differential driver
# ----------------------------------------------------------------------


def variants(max_depth, eq_depth):
    """The reference, the pooled fast path, and a pooled site whose
    every expression is oversized, keyed by name.

    ``oversized`` disables the flat program (``FLAT_LIMIT = 0``), so
    its pooled updates must bail to the full merge every time.
    """
    sites = {}
    for name, pooled, oversized in (
        ("reference", False, False),
        ("pooled", True, False),
        ("oversized", True, True),
    ):
        site = Generalization(
            equivalence_depth=eq_depth, max_depth=max_depth,
            stats=_Counters(),
        )
        if oversized:
            site.FLAT_LIMIT = 0
        sites[name] = (site, pooled)
    return sites


def feed(sites, pool, root, max_depth, eq_depth):
    """One update of every variant; returns the oracle's verdict
    (``first``, ``fast``, ``shape-bail`` or ``frontier-bail``).

    Asserts the variants agree with the reference and that each fast
    verdict is the oracle's.
    """
    node = pool.node(root)
    expression = sites["reference"][0].expression
    frontier = frontier_oracle(pool, root, max_depth)
    check_gate_bound(pool, root, frontier, max_depth)
    expect_fast = None
    if expression is not None:
        shape_ok, expanded = shape_oracle(pool, root, expression, eq_depth)
        expect_fast = shape_ok and not (expanded & frontier)
    results = {}
    for name, (site, pooled) in sites.items():
        merges = site.stats.antiunify_merge
        if pooled:
            results[name] = site.update_with_bindings_pooled(pool, root)
        else:
            results[name] = site.update_with_bindings(node)
        fast = site.stats.antiunify_merge == merges
        if name == "oversized":
            assert not fast, name
        elif name != "reference" and expect_fast is not None:
            assert fast == expect_fast, name
    reference = results.pop("reference")
    for name, (expr, bindings) in results.items():
        assert str(expr) == str(reference[0]), name
        assert bindings == reference[1], name
    if expect_fast is None:
        return "first"
    if shape_ok and not expect_fast:
        return "frontier-bail"
    return "fast" if expect_fast else "shape-bail"


def verifier_ready(sites):
    """Whether the pooled variant's next update runs a generated
    verifier."""
    site = sites["pooled"][0]
    return site._verifier_expr is site.expression \
        and site._verifier not in (None, False)


@pytest.mark.parametrize("max_depth", [1, 2, 3, 5])
class TestFrontierGate:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), eq_depth=st.sampled_from([2, 5]))
    def test_interpreted_walks(self, max_depth, data, eq_depth):
        spec = draw_spec(data, max_depth)
        masks = data.draw(mask_sequences(8))
        sites = variants(max_depth, eq_depth)
        pool = TracePool()
        for seed, mask in enumerate(masks):
            root = build_dag(pool, spec, mask, seed)
            event(feed(sites, pool, root, max_depth, eq_depth))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), eq_depth=st.sampled_from([2, 5]))
    def test_generated_verifier(self, max_depth, data, eq_depth):
        # Each shape is repeated past VERIFIER_THRESHOLD, so the next
        # shape's first trace meets the generated verifier.
        spec = draw_spec(data, max_depth)
        masks = data.draw(mask_sequences(3))
        sites = variants(max_depth, eq_depth)
        pool = TracePool()
        seed = 0
        for mask in masks:
            for __ in range(THRESHOLD + 4):
                ready = verifier_ready(sites)
                root = build_dag(pool, spec, mask, seed)
                outcome = feed(sites, pool, root, max_depth, eq_depth)
                if ready:
                    event(f"verifier: {outcome}")
                seed += 1


# ----------------------------------------------------------------------
# Directed case: a shared op expanded shallow, truncated through a
# longer path
# ----------------------------------------------------------------------


def shared_frontier_traces(pool, seed, deep):
    """``(+ S (neg (neg L)))`` with ``S = (* x0 x1)``.

    The shallow trace puts the input ``x2`` at ``L``; the deep one puts
    ``S`` itself there, so ``S`` — expanded by the expression at
    position depth 2 — is also three edges below the root.
    """
    pool.begin_execution()
    x0 = pool.input_ident(1.5 + seed, 0)
    x1 = pool.input_ident(2.5 + seed, 1)
    shared = pool.op_ident("*", (x0, x1), (1.5 + seed) * (2.5 + seed), site=1)
    leaf = shared if deep else pool.input_ident(0.5 + seed, 2)
    value = pool.values[leaf]
    inner = pool.op_ident("neg", (leaf,), -value, site=2)
    outer = pool.op_ident("neg", (inner,), value, site=3)
    return pool.op_ident(
        "+", (shared, outer), pool.values[shared] + value, site=4
    )


@pytest.mark.parametrize("repeats", [1, THRESHOLD + 2])
def test_shared_op_on_the_frontier_bails(repeats):
    sites = variants(max_depth=3, eq_depth=5)
    pool = TracePool()
    for seed in range(repeats):
        root = shared_frontier_traces(pool, seed, deep=False)
        feed(sites, pool, root, 3, 5)
    assert str(sites["pooled"][0].expression) == \
        "(+ (* x0 x1) (neg (neg x2)))"
    assert verifier_ready(sites) == (repeats > THRESHOLD)
    root = shared_frontier_traces(pool, repeats, deep=True)
    shared = pool.args[root][0]
    assert frontier_oracle(pool, root, 3) == {shared}
    assert feed(sites, pool, root, 3, 5) == "frontier-bail"
    for name, (site, __) in sites.items():
        assert str(site.expression) == "(+ v0 (neg (neg x2)))", name
