"""Concrete-expression traces (paper Section 4.3, Section 6).

Every shadowed float value carries a trace: an integer ident into the
analysis's :class:`TracePool`, recording the floating-point computation
that produced it.  Copies through registers, the heap, and function
boundaries *share* idents (the DAG mirrors the sharing of shadow
values), so a single trace can span multiple functions and data
structures — that is what makes the extracted expressions non-local.
Both engines intern through the pool; :class:`TraceNode` is the
structured view the pool materializes on demand
(:meth:`TracePool.node`) for the walks that need a tree.

Function boundaries, loads and stores are deliberately *not* recorded:
a trace contains only floating-point operations, constants, program
inputs, and opaque leaves (values whose float origin the analysis
cannot see: integer conversions, unrecognized bit manipulations,
truncation at the depth bound).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.ieee.float64 import double_to_bits as _bits

#: Node kinds.
KIND_OP = "op"
KIND_INPUT = "input"
KIND_CONST = "const"
KIND_OPAQUE = "opaque"


class TraceNode:
    """An immutable node of the concrete-expression DAG, materialized
    from the pool entry ``ident`` (whose identity it carries)."""

    __slots__ = ("kind", "op", "args", "value", "loc", "depth", "ident",
                 "_keys")

    def __init__(
        self,
        ident: int,
        kind: str,
        value: float,
        op: Optional[str] = None,
        args: Tuple["TraceNode", ...] = (),
        loc: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.op = op
        self.args = args
        self.value = value
        self.loc = loc
        self.depth = 1 + max((a.depth for a in args), default=0)
        self.ident = ident
        #: Lazy cache of structural keys by depth (nodes are immutable,
        #: so a key never changes once computed).
        self._keys: Optional[dict] = None

    def __repr__(self) -> str:
        if self.kind == KIND_OP:
            return f"<{self.op} depth={self.depth} value={self.value!r}>"
        return f"<{self.kind} value={self.value!r}>"


def _leaf_key(node: TraceNode) -> tuple:
    """The (depth-independent) structural key of a non-op node."""
    kind = node.kind
    if kind == KIND_INPUT:
        return (KIND_INPUT, node.op)
    if kind == KIND_CONST:
        return (KIND_CONST, node.value)
    # Opaque leaves are only equivalent when they are the *same* shared
    # leaf (same box copied around) — compare by identity.
    return (KIND_OPAQUE, node.ident)


def structural_key(node: TraceNode, depth: int) -> tuple:
    """A hashable key identifying ``node`` up to ``depth`` levels.

    This is the Section 6.1 approximation: equivalence of sub-trees is
    computed exactly only to a bounded depth, so keys of two nodes are
    equal iff the nodes agree structurally (ops, leaf kinds, values) to
    that depth.

    The walk is iterative (an explicit post-order stack), so arbitrarily
    large ``depth`` bounds cannot hit Python's recursion limit, and the
    key of every visited (node, depth) pair is cached — with hash-consed
    traces, a key is computed once per *unique* sub-DAG.
    """
    if node.kind != KIND_OP:
        return _leaf_key(node)
    cache = node._keys
    if cache is not None:
        cached = cache.get(depth)
        if cached is not None:
            return cached
    stack = [(node, depth)]
    while stack:
        current, d = stack[-1]
        cache = current._keys
        if cache is None:
            cache = current._keys = {}
        elif d in cache:
            stack.pop()
            continue
        if d <= 1:
            cache[d] = (KIND_OP, current.op, current.value)
            stack.pop()
            continue
        child_depth = d - 1
        missing = [
            (a, child_depth) for a in current.args
            if a.kind == KIND_OP
            and (a._keys is None or child_depth not in a._keys)
        ]
        if missing:
            stack.extend(missing)
            continue
        cache[d] = (
            KIND_OP,
            current.op,
            tuple(
                a._keys[child_depth] if a.kind == KIND_OP else _leaf_key(a)
                for a in current.args
            ),
        )
        stack.pop()
    return node._keys[depth]


#: Integer kind tags of the pool's flat arrays (dense idents index
#: parallel arrays; string kinds stay on materialized nodes).
P_OP = 0
P_INPUT = 1
P_CONST = 2
P_OPAQUE = 3

_P_KIND_NAMES = {
    P_OP: KIND_OP,
    P_INPUT: KIND_INPUT,
    P_CONST: KIND_CONST,
    P_OPAQUE: KIND_OPAQUE,
}


def trace_view(pool: "TracePool"):
    """Accessor returning ``(is_op, op, args, value, loc)`` of a trace
    ident into ``pool``: the one view the escalator and the location
    walk read traces through."""
    kinds, ops, args = pool.kinds, pool.ops, pool.args
    values, locs = pool.values, pool.locs

    def view(ident: int):
        return (kinds[ident] == P_OP, ops[ident], args[ident],
                values[ident], locs[ident])

    return view


#: Packing stride for the pool's (ident, depth) structural-key cache.
#: Depths are bounded by the configured equivalence/expression depths;
#: anything larger falls back to tuple keys.
_KEY_STRIDE = 4096


class TracePool:
    """Ident-first hash-consing of traces: the trace store of both
    engines.

    The pool *is* the trace store: every trace is an integer ident
    indexing parallel flat arrays (kind, op name, argument idents,
    value, source location, depth).  The compiled engine's hot path —
    tracer callbacks, the shadow memo, the steady-state
    anti-unification walk — operates on idents and these arrays only;
    no :class:`TraceNode` objects are allocated per operation.
    Structured nodes are materialized *lazily* (:meth:`node`) at the
    places that genuinely need a tree: anti-unification bail-outs (the
    full merge), and every walk of the reference engine, whose
    merge-only anti-unification runs on the materialized node of each
    executed operation.  Interning is the same for both engines, so
    they see the same sharing and truncate the same nodes.  Re-execution
    (:class:`repro.core.shadow.ShadowEscalator`) and per-node source
    locations (:func:`repro.core.locations.map_node_locations`) walk the
    arrays directly.

    Hash-consing semantics:

    * interning keys include the creating instruction (``site``), so
      idents from different program sites never merge; two executions
      share an ident only when the *same site* recomputed over the same
      argument idents — operations are deterministic, so the value is
      implied and the trace is exactly the paper's concrete expression,
      maximally shared across loop iterations,
    * opaque leaves are **never** interned: their structural identity
      is their ident (see :func:`structural_key`),
    * one epoch normally spans a whole analysis: idents stay valid
      from one sampled point to the next, so a loop iteration that an
      earlier point already executed interns to the same ident.
      :meth:`begin_execution` resets the whole store (arrays and
      interning tables) and bumps :attr:`epoch`; the analysis calls it
      only at a run boundary, once the pool holds more than
      ``repro.core.analysis.POOL_EPOCH_IDENTS`` entries.  Every
      ident-keyed cache (the :attr:`memo` column, the escalator memos)
      resets with it.

    ``memo`` holds, per op ident, the ``(shadow, local error bits,
    compensation verdict)`` the compiled engine's fused pipeline
    computed for it, or None (always None under the reference
    engine).  Those are pure functions of the ident — same site, same
    argument idents, hence the same real and float computation — so a
    later execution of the ident replays them instead of re-running
    the shadow pipeline.  A fourth element is the site's symbolic
    expression object the ident's last anti-unification walk verified
    on the fast path with no NaN binding, or None: while the site's
    expression is still that object, the walk would return the same
    bindings, so a hit also skips the walk and the characteristic
    updates (a *tail replay*).  A memoized shadow may afterwards be promoted
    in place from a hardware pair to the working tier; a later hit
    then starts from that working-tier real, which the hardware-tier
    parity invariant makes invisible in the report bytes (only the
    tier-residency counters see it).

    Retained memory at the cap, measured with ``tracemalloc`` (Python
    3.11, x86-64) on one run of each corpus loop sized to ~16,700
    idents, both policies: 560–780 bytes per ident, 220–380 of them
    the memo entry; the worst case (``loop-geometric``, adaptive) holds
    13.0 MB, so an epoch peaks at roughly 13 MB plus one run's idents.

    ``depths`` (the height of each ident's trace) doubles as the
    anti-unification walks' truncation bound: an op ``max_depth`` edges
    below a root has ``depths[op] <= depths[root] - max_depth``, so
    only positions passing that test need the on-demand
    :meth:`deep_marks` frontier walk.
    """

    __slots__ = ("kinds", "ops", "args", "values", "locs", "depths",
                 "nodes", "memo", "epoch",
                 "_keys", "_consts", "_inputs", "_ints", "_ops_table")

    def __init__(self) -> None:
        #: Parallel arrays indexed by ident.
        self.kinds: list = []
        self.ops: list = []          # op name / input name / None
        self.args: list = []         # tuple of argument idents
        self.values: list = []
        self.locs: list = []
        self.depths: list = []
        self.nodes: list = []        # lazily materialized TraceNodes
        self.memo: list = []         # fused-pipeline results, or None
        #: Bumped by :meth:`begin_execution`; callers caching shadows
        #: of interned leaves key their caches by this.
        self.epoch = 0
        #: (ident * stride + depth) -> structural key, for op idents.
        self._keys: dict = {}
        self._consts: dict = {}
        self._inputs: dict = {}
        self._ints: dict = {}
        self._ops_table: dict = {}

    def __len__(self) -> int:
        """Number of live entries (this epoch's unique nodes)."""
        return len(self.kinds)

    def begin_execution(self) -> None:
        """Start a fresh epoch: reset every array and table.

        Idents restart from zero, so every cache keyed by them must be
        dropped at the same time.  ``clear()`` (not reassignment) keeps
        the array/table objects identical, so closures that pre-bound
        them stay valid.
        """
        self.kinds.clear()
        self.ops.clear()
        self.args.clear()
        self.values.clear()
        self.locs.clear()
        self.depths.clear()
        self.nodes.clear()
        self.memo.clear()
        self._keys.clear()
        self._consts.clear()
        self._inputs.clear()
        self._ints.clear()
        self._ops_table.clear()
        self.epoch += 1

    # ------------------------------------------------------------------
    # Ident allocation
    # ------------------------------------------------------------------

    def _append(
        self, kind: int, op: Optional[str], arg_idents: tuple,
        value: float, loc: Optional[str],
    ) -> int:
        ident = len(self.kinds)
        self.kinds.append(kind)
        self.ops.append(op)
        self.args.append(arg_idents)
        self.values.append(value)
        self.locs.append(loc)
        depths = self.depths
        if not arg_idents:
            depths.append(1)
        elif len(arg_idents) == 2:
            da = depths[arg_idents[0]]
            db = depths[arg_idents[1]]
            depths.append((da if da >= db else db) + 1)
        elif len(arg_idents) == 1:
            depths.append(depths[arg_idents[0]] + 1)
        else:
            depths.append(1 + max(depths[a] for a in arg_idents))
        self.nodes.append(None)
        self.memo.append(None)
        return ident

    def const_ident(
        self, value: float, loc: Optional[str] = None, site: int = 0
    ) -> int:
        # The value participates in the key even though a site's
        # constant is fixed: `site` is an id(), and ids can be recycled
        # if a caller outlives the program it analysed — a collision
        # must never hand back a different constant.
        key = (site, _bits(value))
        ident = self._consts.get(key)
        if ident is None:
            ident = self._consts[key] = self._append(
                P_CONST, None, (), value, loc
            )
        return ident

    def input_ident(
        self, value: float, index: int, loc: Optional[str] = None,
        site: int = 0,
    ) -> int:
        key = (site, index, _bits(value))
        ident = self._inputs.get(key)
        if ident is None:
            ident = self._inputs[key] = self._append(
                P_INPUT, f"x{index}", (), value, loc
            )
        return ident

    def int_ident(
        self, value: float, int_value: int, loc: Optional[str] = None,
        site: int = 0,
    ) -> int:
        """A constant leaf for an int→float conversion, keyed by the
        *exact* integer: two integers rounding to the same double stay
        distinct leaves, because the escalator pins a different exact
        value on each."""
        key = (site, int_value)
        ident = self._ints.get(key)
        if ident is None:
            ident = self._ints[key] = self._append(
                P_CONST, None, (), value, loc
            )
        return ident

    def opaque_ident(self, value: float, loc: Optional[str] = None) -> int:
        """A fresh opaque leaf (never interned: identity = ident)."""
        return self._append(P_OPAQUE, None, (), value, loc)

    def op_ident(
        self,
        op: str,
        arg_idents: tuple,
        value: float,
        loc: Optional[str] = None,
        site: int = 0,
    ) -> int:
        key = (site,) + arg_idents
        ident = self._ops_table.get(key)
        if ident is None:
            ident = self.new_op(key, op, arg_idents, value, loc)
        return ident

    def new_op(
        self,
        key: tuple,
        op: str,
        arg_idents: tuple,
        value: float,
        loc: Optional[str],
    ) -> int:
        """Intern a *new* op entry under ``key`` (the cold half of
        :meth:`op_ident`; fused pipelines inline the warm dict probe
        and call this only on a miss).  ``key`` must be
        ``(site,) + arg_idents``."""
        ident = self._ops_table[key] = self._append(
            P_OP, op, arg_idents, value, loc
        )
        return ident

    # ------------------------------------------------------------------
    # Ident-based walks (the hot-path views the fused pipeline uses)
    # ------------------------------------------------------------------

    def _leaf_key(self, ident: int) -> tuple:
        kind = self.kinds[ident]
        if kind == P_INPUT:
            return (KIND_INPUT, self.ops[ident])
        if kind == P_CONST:
            return (KIND_CONST, self.values[ident])
        return (KIND_OPAQUE, ident)

    def structural_key_of(self, ident: int, depth: int) -> tuple:
        """The Section 6.1 bounded-depth key of an ident.

        Produces exactly the tuples :func:`structural_key` computes on
        materialized nodes (idents are shared between the two views),
        so keys from either path have one equality relation.
        """
        if self.kinds[ident] != P_OP:
            return self._leaf_key(ident)
        if depth >= _KEY_STRIDE:  # pathological bound: no packing
            return structural_key(self.node(ident), depth)
        cache = self._keys
        packed = ident * _KEY_STRIDE + depth
        cached = cache.get(packed)
        if cached is not None:
            return cached
        kinds = self.kinds
        ops = self.ops
        argsA = self.args
        values = self.values
        stack = [(ident, depth)]
        while stack:
            cur, d = stack[-1]
            key = cur * _KEY_STRIDE + d
            if key in cache:
                stack.pop()
                continue
            if d <= 1:
                cache[key] = (KIND_OP, ops[cur], values[cur])
                stack.pop()
                continue
            child_depth = d - 1
            missing = [
                (a, child_depth) for a in argsA[cur]
                if kinds[a] == P_OP
                and (a * _KEY_STRIDE + child_depth) not in cache
            ]
            if missing:
                stack.extend(missing)
                continue
            cache[key] = (
                KIND_OP,
                ops[cur],
                tuple(
                    cache[a * _KEY_STRIDE + child_depth]
                    if kinds[a] == P_OP else self._leaf_key(a)
                    for a in argsA[cur]
                ),
            )
            stack.pop()
        return cache[packed]

    def deep_marks(self, ident: int, max_depth: int) -> set:
        """Idents at the truncation frontier (depth ``max_depth + 1``)
        of the trace rooted at ``ident``: the op idents some path of
        exactly ``max_depth`` edges reaches — the same set as the
        reference walk
        :meth:`repro.core.antiunify.Generalization._mark_deep_nodes`."""
        marked: set = set()
        kinds = self.kinds
        if kinds[ident] != P_OP:
            return marked
        argsA = self.args
        depths = self.depths
        stride = max_depth + 2
        seen = {ident * stride + 1}
        stack = [(ident, 1)]
        pop = stack.pop
        push = stack.append
        while stack:
            cur, depth = pop()
            child_depth = depth + 1
            for child in argsA[cur]:
                if kinds[child] != P_OP or depth + depths[child] <= max_depth:
                    continue  # leaf, or the whole subtree fits the bound
                if child_depth > max_depth:
                    marked.add(child)
                    continue  # children are invisible anyway
                key = child * stride + child_depth
                if key in seen:
                    continue
                seen.add(key)
                push((child, child_depth))
        return marked

    # ------------------------------------------------------------------
    # Lazy materialization
    # ------------------------------------------------------------------

    def node(self, ident: int) -> TraceNode:
        """Materialize the full structured node of ``ident`` (memoized).

        The node carries the pool ident and its pooled depth, so every
        consumer of materialized nodes — structural keys, merge
        memos — sees one consistent identity space.
        """
        nodes = self.nodes
        cached = nodes[ident]
        if cached is not None:
            return cached
        kinds = self.kinds
        ops = self.ops
        argsA = self.args
        values = self.values
        locs = self.locs
        stack = [ident]
        while stack:
            cur = stack[-1]
            if nodes[cur] is not None:
                stack.pop()
                continue
            pending = [a for a in argsA[cur] if nodes[a] is None]
            if pending:
                stack.extend(pending)
                continue
            node = TraceNode(
                cur,
                _P_KIND_NAMES[kinds[cur]],
                values[cur],
                op=ops[cur],
                args=tuple(nodes[a] for a in argsA[cur]),
                loc=locs[cur],
            )
            nodes[cur] = node
            stack.pop()
        return nodes[ident]
