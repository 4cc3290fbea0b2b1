"""Anti-unification of concrete traces into symbolic expressions.

Herbgrind generalizes the concrete expression recorded at each
operation site into a *symbolic expression*: the most-specific
generalization (Plotkin [30]) of every concrete expression seen there.
Sub-trees that differ between executions become variables; sub-trees
that are equivalent get the *same* variable, which is what lets input
characteristics speak about "the x in sqrt(x+1) - sqrt(x)".

Three refinements the implementation needs (paper Sections 4.3/6/6.1):

* **Incrementality** — the site keeps one symbolic expression and
  anti-unifies each new concrete trace into it (associative, so this
  equals batch generalization).
* **Depth bounding** — only ``max_depth`` operator levels survive;
  anything deeper becomes a variable.  Truncation is decided per trace
  *node* (maximum depth over all of its DAG occurrences), so a shared
  sub-computation that appears both shallow and deep — like the pixel
  coordinate in the plotter's ``sqrt(x^2+y^2) - x`` — collapses to the
  *same* variable at every occurrence.  That is how the paper's compact
  Section 3 fragment arises.
* **Bounded equivalence** — sub-tree equivalence is compared only to
  ``equivalence_depth`` levels (Section 6.1), a sound approximation.

Variable names persist across updates: a position that was variable
``v3`` keeps the name as long as each update brings one consistent
sub-tree to it, so input characteristics accumulate per variable; when
one old variable faces two different new sub-trees, it splits.

Symbolic expressions reuse the FPCore AST (Num/Var/Op), which is also
how they are reported and fed to the improver.

**The steady-state fast path** (the compiled engine's pooled traces):
in loops, almost every update leaves the symbolic expression unchanged
— the site saw this shape before and only the leaf values moved.  The
fast path runs one allocation-free walk of the *existing* expression
against the incoming trace's pool arrays that simultaneously (a)
verifies the expression already generalizes the trace — operator by
operator, constant by constant, with variable-consistency checked
through the same bounded-depth structural keys the full walk uses —
and (b) collects the per-variable values in exactly the order
:func:`collect_variable_values` would.  Any discrepancy bails out to
the unmodified full merge, so results are *identical* to the reference
path by construction; the fast path only skips work whose outcome it
has proved.  Deep-trace truncation is checked on demand: an op on the
truncation frontier lies ``max_depth`` edges below the root, so its
height is at most the root's height minus ``max_depth``.  The walk
records the visited op positions passing that height test and, only
if there are any, runs the frontier walk
(:meth:`~repro.core.trace.TracePool.deep_marks`) once at the end.
Steady-state loop expressions are shallow, so that walk almost never
runs.

All traversals are iterative (explicit stacks), so traces and depth
bounds far beyond Python's recursion limit are safe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.core.trace import (
    KIND_CONST,
    KIND_INPUT,
    KIND_OP,
    P_CONST,
    P_INPUT,
    P_OP,
    TraceNode,
    structural_key,
)
from repro.fpcore.ast import Expr, Num, Op, Var, num


class _UpdateState:
    """Book-keeping for one update() call."""

    __slots__ = ("truncated", "var_bindings", "node_vars", "memo")

    def __init__(self) -> None:
        #: idents of op nodes beyond the depth bound (by max occurrence).
        self.truncated: Set[int] = set()
        #: old variable name -> the trace key it stands for this update.
        self.var_bindings: Dict[str, tuple] = {}
        #: trace key -> variable name chosen this update (consistency of
        #: fresh variables across positions).
        self.node_vars: Dict[tuple, str] = {}
        #: merge memo keyed by (id(sym), trace ident).
        self.memo: Dict[tuple, Expr] = {}


@dataclass
class Generalization:
    """The evolving symbolic expression of one operation site."""

    equivalence_depth: int = 5
    #: Operator levels kept in the symbolic expression (Figures 5c/5d's
    #: axis; at 1 only the operation itself survives — the FpDebug-like
    #: configuration of Section 8.2).
    max_depth: int = 20
    expression: Expr = None  # None until the first trace arrives
    #: Optional per-stage counter sink (a
    #: :class:`repro.core.analysis.PipelineStageCounters`); when set,
    #: every update records its verdict (``antiunify_fast`` /
    #: ``antiunify_merge``) here — counted at this layer so fused and
    #: generic callers report uniformly.
    stats: object = None
    _fresh: itertools.count = field(default_factory=itertools.count)
    #: Flat pre-order verification program compiled from ``expression``
    #: (fast path); False = not compiled yet / expression changed,
    #: None = expression too large or unusual, use the full merge.
    _flat: object = field(default=False, init=False, repr=False)
    _flat_expr: object = field(default=None, init=False, repr=False)
    #: Site-compiled verifier: the flat program unrolled into one
    #: straight-line generated function (False = not built yet, None =
    #: not compilable, use the interpreted walk).
    _verifier: object = field(default=False, init=False, repr=False)
    _verifier_expr: object = field(default=None, init=False, repr=False)
    #: Steady-state detection: consecutive interpreted fast-path
    #: successes for the current expression object.  The generated
    #: verifier is only built past :data:`VERIFIER_THRESHOLD` — code
    #: generation costs tens of microseconds, which loop sites amortize
    #: over thousands of iterations and straight-line sites never
    #: would.
    _steady_expr: object = field(default=None, init=False, repr=False)
    _steady_hits: int = field(default=0, init=False, repr=False)

    #: Positions cap for the flattened (tree-unfolded) expression; a
    #: heavily shared expression DAG bails to the full merge instead
    #: of unrolling.
    FLAT_LIMIT = 4096

    #: Entry cap for the generated straight-line verifier; larger
    #: expressions keep the interpreted flat-program walk.
    VERIFIER_LIMIT = 160

    #: Interpreted successes (for one expression object) before the
    #: verifier is generated.
    VERIFIER_THRESHOLD = 32

    # ------------------------------------------------------------------

    def update(self, trace: TraceNode) -> Expr:
        """Anti-unify ``trace`` into the current symbolic expression."""
        state = _UpdateState()
        if trace.depth > self.max_depth:
            # A node's depth-from-root never exceeds the root's height,
            # so a shallow trace cannot contain truncated occurrences —
            # the deep-mark walk is pure overhead for it.
            self._mark_deep_nodes(trace, state)
        return self._apply(trace, state)

    def _apply(self, trace: TraceNode, state: _UpdateState) -> Expr:
        """The first-trace / full-merge step under a marked ``state``."""
        if self.expression is None:
            self.expression = self._initial(trace, state)
        else:
            self.expression = self._merge(self.expression, trace, state)
        return self.expression

    def update_with_bindings(
        self, trace: TraceNode
    ) -> Tuple[Expr, Dict[str, float]]:
        """Anti-unify ``trace`` and collect its per-variable values:
        :meth:`update` followed by :func:`collect_variable_values` (the
        reference engine's merge-only path)."""
        self.update(trace)
        if self.stats is not None:
            self.stats.antiunify_merge += 1
        bindings = {}
        collect_variable_values(self.expression, trace, bindings)
        return self.expression, bindings

    # ------------------------------------------------------------------
    # Depth marking: a node is truncated when ANY occurrence lies beyond
    # the depth bound; being a DAG walk over (node, depth) pairs, the
    # cost is bounded by (visible nodes) x (max_depth).
    # ------------------------------------------------------------------

    def _mark_deep_nodes(self, trace: TraceNode, state: _UpdateState) -> None:
        max_depth = self.max_depth
        seen: Set[Tuple[int, int]] = set()
        stack = [(trace, 1)]
        while stack:
            node, depth = stack.pop()
            if node.kind != KIND_OP:
                continue
            key = (node.ident, depth)
            if key in seen:
                continue
            seen.add(key)
            if depth > max_depth:
                state.truncated.add(node.ident)
                continue  # children are invisible anyway
            if depth + node.depth <= max_depth:
                # The whole subtree fits under the bound via this path;
                # deeper occurrences re-enter through their own paths.
                continue
            for child in node.args:
                stack.append((child, depth + 1))

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------

    def _trace_key(self, node: TraceNode) -> tuple:
        return structural_key(node, self.equivalence_depth)

    def _fresh_name(self) -> str:
        return f"v{next(self._fresh)}"

    def _variable_at(
        self, symbolic: Optional[Expr], trace: TraceNode, state: _UpdateState
    ) -> Var:
        """The variable generalizing (symbolic, trace) at this position.

        Keeps old variable names stable when each update binds them to
        one consistent sub-tree; assigns the same fresh name to
        equivalent new sub-trees within an update.
        """
        trace_key = self._trace_key(trace)
        if isinstance(symbolic, Var):
            bound = state.var_bindings.get(symbolic.name)
            if bound is None:
                state.var_bindings[symbolic.name] = trace_key
                state.node_vars.setdefault(trace_key, symbolic.name)
                return symbolic
            if bound == trace_key:
                return symbolic
            # The old variable faces a second, different sub-tree: split.
        name = state.node_vars.get(trace_key)
        if name is None:
            name = self._fresh_name()
            state.node_vars[trace_key] = name
        return Var(name)

    # ------------------------------------------------------------------
    # The steady-state fast path: one fused verify-and-collect walk over
    # the pool's flat arrays (no materialized nodes)
    # ------------------------------------------------------------------

    def _flat_program(self):
        """The expression compiled to a flat pre-order check list.

        Entries: ``(0, op, argcount)`` for operators, ``(1, name,
        is_multi)`` for variables, ``(2, float_value)`` for literals.
        Interpreting this list against a trace (one node stack, no
        pair memo, no ``id()`` calls) is the cheapest sound
        verification.  It is result-equivalent to the memoized walk
        because a multi-occurrence variable must bind the same value at
        every position (or the walk bails): the value
        :func:`collect_variable_values` keeps then cannot depend on
        which repeated (position, node) pairs its memo skips.
        Expressions whose tree unfolding exceeds :data:`FLAT_LIMIT`
        positions get None: the caller bails to the full merge.
        """
        expression = self.expression
        if self._flat_expr is expression and self._flat is not False:
            return self._flat
        counts: Dict[str, int] = {}
        entries = []
        stack = [expression]
        flat: object = None
        while stack:
            node = stack.pop()
            cls = node.__class__
            if cls is Var:
                name = node.name
                counts[name] = counts.get(name, 0) + 1
                entries.append((1, name, False))
            elif cls is Op:
                entries.append((0, node.op, len(node.args)))
                stack.extend(reversed(node.args))
            elif cls is Num:
                entries.append((2, node.as_float()))
            else:
                entries = None  # give the full merge the oddity
                break
            if entries is not None and len(entries) > self.FLAT_LIMIT:
                entries = None
                break
        if entries is not None:
            multi = frozenset(n for n, c in counts.items() if c > 1)
            flat = [
                (1, entry[1], entry[1] in multi) if entry[0] == 1 else entry
                for entry in entries
            ]
        self._flat = flat
        self._flat_expr = expression
        return flat

    def update_with_bindings_pooled(
        self, pool, ident: int
    ) -> Tuple[Expr, Dict[str, float]]:
        """The ident-first mirror of :meth:`update_with_bindings`.

        ``ident`` names a trace in ``pool``'s flat arrays.  In the
        steady state the fused walk verifies and collects directly off
        the arrays — no :class:`TraceNode` is materialized.  Any
        discrepancy materializes the node once and falls back to the
        unmodified full merge, so results are identical to the
        reference merge by construction.
        """
        if self.expression is not None:
            bindings = self._fast_update_pooled(pool, ident)
            if bindings is not None:
                return self.expression, bindings
        return self.bail_update_pooled(pool, ident)

    def bail_update_pooled(
        self, pool, ident: int
    ) -> Tuple[Expr, Dict[str, float]]:
        """The non-steady half of the pooled update: materialize the
        node once and run the unmodified first-trace / full-merge walk
        plus value collection.  Callers that already ran (and failed)
        :meth:`_fast_update_pooled` jump straight here."""
        node = pool.node(ident)
        state = _UpdateState()
        if pool.depths[ident] > self.max_depth:
            state.truncated = pool.deep_marks(ident, self.max_depth)
        self._apply(node, state)
        if self.stats is not None:
            self.stats.antiunify_merge += 1
        bindings = {}
        collect_variable_values(self.expression, node, bindings)
        return self.expression, bindings

    def _compiled_verifier(self):
        """The flat program unrolled into one generated function.

        This is the *site-compiled* steady-state path: the expression's
        shape is static between merges, so the verify-and-collect walk
        can be straight-line code — no dispatch loop, no entry tuples,
        no traversal stack.  The generated function takes the pool's
        flat arrays and returns the bindings dict or None, with exactly
        the interpreted walk's decisions (the parity suites enforce
        it).  Rebuilt whenever the expression object changes; None when
        the expression is too large or contains non-finite literals.
        """
        if self._verifier_expr is self.expression \
                and self._verifier is not False:
            return self._verifier
        program = self._flat_program()
        verifier = None
        if program is not None and len(program) <= self.VERIFIER_LIMIT:
            verifier = _generate_verifier(program, self.max_depth)
        self._verifier = verifier
        self._verifier_expr = self.expression
        return verifier

    def _fast_update_pooled(
        self, pool, ident: int
    ) -> Optional[Dict[str, float]]:
        """Verify the expression already generalizes the trace
        ``ident``; on success return the variable bindings, else None
        (the caller falls back to the full merge).

        The check mirrors the full merge decision-for-decision — same
        variable-consistency rule, same truncation handling — except
        that instead of *building* the merged expression it *bails*
        the moment the merge would return anything but the existing
        node.  Truncation: an operator position whose height is at
        most ``depths[ident] - max_depth`` *could* lie on the
        truncation frontier, so it is recorded as a suspect; after an
        otherwise successful walk, one frontier walk
        (:meth:`~repro.core.trace.TracePool.deep_marks`) decides
        whether any suspect is truncated.  Deferring that bail changes
        no outcome (every bail means "run the full merge").  The root
        never passes the height test, and positions that are already
        variables are indifferent to truncation — the merge computes
        the same bounded-depth key either way.  Expressions too large
        for the flat program bail straight away.
        """
        # Inline the warm case of _flat_program (one call per op).
        if self._flat_expr is self.expression and self._flat is not False:
            program = self._flat
        else:
            program = self._flat_program()
        if program is None:
            return None
        depths = pool.depths
        lim = depths[ident] - self.max_depth
        expression = self.expression
        verifier = None
        if self._verifier_expr is expression:
            verifier = self._verifier
        elif self._steady_expr is not expression:
            self._steady_expr = expression
            self._steady_hits = 0
        elif self._steady_hits >= self.VERIFIER_THRESHOLD:
            verifier = self._compiled_verifier()
        if verifier is not None:
            bindings = verifier(
                pool.kinds, pool.ops, pool.args, pool.values, depths,
                pool.structural_key_of, self.equivalence_depth,
                pool.deep_marks, ident, lim,
            )
            if bindings is not None and self.stats is not None:
                self.stats.antiunify_fast += 1
            return bindings
        eq_depth = self.equivalence_depth
        kinds = pool.kinds
        opsA = pool.ops
        argsA = pool.args
        valsA = pool.values
        skey = pool.structural_key_of
        suspects = []
        bindings: Dict[str, float] = {}
        var_keys: Dict[str, tuple] = {}
        stack = [ident]
        pop = stack.pop
        for entry in program:
            cur = pop()
            tag = entry[0]
            if tag == 0:
                if kinds[cur] != P_OP or opsA[cur] != entry[1]:
                    return None
                cargs = argsA[cur]
                count = entry[2]
                if len(cargs) != count:
                    return None
                if depths[cur] <= lim:
                    suspects.append(cur)
                if count == 2:
                    stack.append(cargs[1])
                    stack.append(cargs[0])
                elif count == 1:
                    stack.append(cargs[0])
                else:
                    stack.extend(cargs[::-1])
            elif tag == 1:
                name = entry[1]
                value = valsA[cur]
                if entry[2]:  # multi-occurrence: keys and values agree
                    if kinds[cur] != P_INPUT or opsA[cur] != name:
                        trace_key = skey(cur, eq_depth)
                        bound = var_keys.get(name)
                        if bound is None:
                            var_keys[name] = trace_key
                        elif bound != trace_key:
                            return None  # the variable would split
                    prev = bindings.get(name, value)
                    if prev is not value and not _same_value(prev, value):
                        return None  # collect's pick depends on order
                bindings[name] = value
            else:
                if kinds[cur] != P_CONST or valsA[cur] != entry[1]:
                    return None
        if suspects and \
                not pool.deep_marks(ident, self.max_depth).isdisjoint(suspects):
            return None  # an expanded position is truncated: full merge
        self._steady_hits += 1
        if self.stats is not None:
            self.stats.antiunify_fast += 1
        return bindings

    # ------------------------------------------------------------------
    # First trace: concrete -> symbolic, sharing-aware, depth-bounded
    # ------------------------------------------------------------------

    def _initial(self, trace: TraceNode, state: _UpdateState) -> Expr:
        memo: Dict[int, Expr] = {}
        truncated = state.truncated
        stack = [trace]
        while stack:
            node = stack[-1]
            ident = node.ident
            if ident in memo:
                stack.pop()
                continue
            if node.kind == KIND_OP and ident not in truncated:
                pending = [a for a in node.args if a.ident not in memo]
                if pending:
                    stack.extend(reversed(pending))
                    continue
                memo[ident] = Op(
                    node.op, tuple(memo[a.ident] for a in node.args)
                )
            elif node.kind == KIND_INPUT:
                memo[ident] = Var(node.op)
            elif node.kind == KIND_CONST and math.isfinite(node.value):
                memo[ident] = num(node.value)
            else:
                memo[ident] = self._variable_at(None, node, state)
            stack.pop()
        return memo[trace.ident]

    # ------------------------------------------------------------------
    # Subsequent traces: pairwise lgg
    # ------------------------------------------------------------------

    def _merge(self, symbolic: Expr, trace: TraceNode, state: _UpdateState) -> Expr:
        memo = state.memo
        root_key = (id(symbolic), trace.ident)
        cached = memo.get(root_key)
        if cached is not None:
            return cached
        truncated = state.truncated
        stack = [(symbolic, trace)]
        while stack:
            sym, node = stack[-1]
            key = (id(sym), node.ident)
            if key in memo:
                stack.pop()
                continue
            if (
                node.kind == KIND_OP
                and node.ident not in truncated
                and isinstance(sym, Op)
                and sym.op == node.op
                and len(sym.args) == len(node.args)
            ):
                pairs = [
                    (s, t) for s, t in zip(sym.args, node.args)
                    if (id(s), t.ident) not in memo
                ]
                if pairs:
                    stack.extend(reversed(pairs))
                    continue
                merged = tuple(
                    memo[(id(s), t.ident)]
                    for s, t in zip(sym.args, node.args)
                )
                if all(m is s for m, s in zip(merged, sym.args)):
                    result = sym  # unchanged: keep the existing object
                else:
                    result = Op(sym.op, merged)
            elif node.kind == KIND_OP and node.ident in truncated:
                result = self._variable_at(sym, node, state)
            elif isinstance(sym, Num) and node.kind == KIND_CONST \
                    and sym.as_float() == node.value:
                result = sym
            elif isinstance(sym, Var) and node.kind == KIND_INPUT \
                    and sym.name == node.op:
                result = sym
            else:
                result = self._variable_at(sym, node, state)
            memo[key] = result
            stack.pop()
        return memo[root_key]


def _same_value(a: float, b: float) -> bool:
    """Bitwise float equality short of NaN payloads (``-0.0`` differs
    from ``0.0``; a NaN equals nothing, so the caller bails)."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _generate_verifier(program, max_depth):
    """Generate the straight-line verify-and-collect function of one
    flat program (see :meth:`Generalization._compiled_verifier`).

    The traversal stack is simulated at *generation* time, so the
    emitted code is pure straight-line: one kind/op check, an argument
    unpack and (below the root) one height test per operator position,
    one dict store per variable position, one constant compare per
    literal.  Positions passing the height test (``depths[n] <= lim``)
    are truncation suspects, confirmed by one ``deep(root, max_depth)``
    frontier walk at the end.  Multi-occurrence variables keep the
    structural-key consistency check; non-finite literals are not
    generatable (their interpreted compare is always-False, which
    straight-line code happily mirrors, but the interpreted walk is
    rare enough there).
    """
    lines = [
        "def _verify(kinds, ops, argsA, vals, depths, skey, eqd, deep,"
        " root, lim):",
        "    b = {}",
    ]
    emit = lines.append
    has_multi = any(e[0] == 1 and e[2] for e in program)
    if has_multi:
        emit("    vk = {}")
    has_suspects = sum(e[0] == 0 for e in program) > 1
    if has_suspects:
        emit("    s = ()")
    counter = 0
    stack = ["root"]
    for entry in program:
        var = stack.pop()
        tag = entry[0]
        if tag == 0:
            emit(f"    if kinds[{var}] != 0 or ops[{var}] != {entry[1]!r}:")
            emit("        return None")
            count = entry[2]
            args_var = f"a{counter}"
            emit(f"    {args_var} = argsA[{var}]")
            emit(f"    if len({args_var}) != {count}:")
            emit("        return None")
            children = [f"n{counter}_{i}" for i in range(count)]
            counter += 1
            if count == 1:
                emit(f"    {children[0]}, = {args_var}")
            elif count > 1:
                emit(f"    {', '.join(children)} = {args_var}")
            if var != "root":
                emit(f"    if depths[{var}] <= lim:")
                emit(f"        s += ({var},)")
            stack.extend(reversed(children))
        elif tag == 1:
            name = entry[1]
            if entry[2]:  # multi-occurrence: keys and values agree
                emit(f"    if kinds[{var}] != 1 or ops[{var}] != {name!r}:")
                emit(f"        k = skey({var}, eqd)")
                emit(f"        prev = vk.get({name!r})")
                emit("        if prev is None:")
                emit(f"            vk[{name!r}] = k")
                emit("        elif prev != k:")
                emit("            return None")
                emit(f"    v = vals[{var}]")
                emit(f"    p = b.get({name!r}, v)")
                emit("    if p is not v and not _same_value(p, v):")
                emit("        return None")
                emit(f"    b[{name!r}] = v")
            else:
                emit(f"    b[{name!r}] = vals[{var}]")
        else:
            value = entry[1]
            if value != value or value in (math.inf, -math.inf):
                return None  # non-finite literal: keep the interpreter
            emit(f"    if kinds[{var}] != 2 or vals[{var}] != {value!r}:")
            emit("        return None")
    if has_suspects:
        emit(f"    if s and not deep(root, {max_depth}).isdisjoint(s):")
        emit("        return None")
    emit("    return b")
    namespace: Dict[str, object] = {"_same_value": _same_value}
    exec("\n".join(lines), namespace)  # noqa: S102 — generated from our own AST
    return namespace["_verify"]


def collect_variable_values(
    symbolic: Expr, trace: TraceNode, out: Dict[str, float]
) -> None:
    """Record, for each variable of ``symbolic``, the value the matching
    sub-tree of ``trace`` took in this execution.

    Called right after :meth:`Generalization.update`, so ``symbolic``
    generalizes ``trace`` position-wise.  When the same variable appears
    at several positions the values agree by construction (up to the
    bounded-depth approximation); the last one wins.  The walk is
    memoized on node identity because traces are DAGs, and iterative so
    deep traces cannot overflow the recursion limit.
    """
    seen = set()
    stack = [(symbolic, trace)]
    while stack:
        sym, node = stack.pop()
        key = (id(sym), node.ident)
        if key in seen:
            continue
        seen.add(key)
        if isinstance(sym, Var):
            out[sym.name] = node.value
            continue
        if isinstance(sym, Op) and node.kind == KIND_OP \
                and sym.op == node.op and len(sym.args) == len(node.args):
            for index in range(len(sym.args) - 1, -1, -1):
                stack.append((sym.args[index], node.args[index]))
