"""Shadow values: the per-value state of the analysis.

Each program float is shadowed by (paper Figure 3):

* ``real`` — its value under exact real-number execution (M_R),
* ``trace`` — the concrete expression that produced it (M_E),
* ``influences`` — the candidate root causes that taint it (M_I).

A shadow is attached to the interpreter's :class:`FloatBox`, so copies
of the value automatically share it (Section 6's sharing optimization).
Shadows are created *lazily*: a value that existed before the analysis
could observe its creation (or that came from integer/bit-level code)
gets an opaque shadow the first time an instrumented operation touches
it (Section 6's laziness).

Under an adaptive :class:`~repro.bigfloat.policy.PrecisionPolicy` the
``real`` is a *working-tier* value and ``drift`` bounds its error in
working-tier ulps (``policy.EXACT`` for exactly-represented values).
:class:`ShadowEscalator` recovers the full-tier value on demand by
re-executing the concrete trace at the full precision: because the
trace records exactly the operations the fixed-tier analysis would
have run, the escalated value is bit-identical to what a fixed
full-precision run computes.  Re-execution is memoized per trace node,
so shared sub-computations (the trace is a DAG) are escalated once.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.bigfloat import BigFloat, apply
from repro.bigfloat.doubledouble import DoubleDouble
from repro.bigfloat.policy import EXACT, UNTRUSTED, PrecisionPolicy
from repro.core.records import OpRecord
from repro.core.trace import KIND_OP, P_OP, TraceNode

EMPTY_INFLUENCES: FrozenSet[OpRecord] = frozenset()


class ShadowValue:
    """The analysis state shadowing one float value."""

    __slots__ = ("real", "trace", "influences", "drift", "rounded",
                 "total_error")

    def __init__(
        self,
        real: BigFloat,
        trace,  # TraceNode, or an int pool ident under the compiled engine
        influences: FrozenSet[OpRecord] = EMPTY_INFLUENCES,
        drift: float = EXACT,
    ) -> None:
        self.real = real
        self.trace = trace
        self.influences = influences
        #: Accumulated error bound in working-tier ulps (policy.EXACT
        #: when ``real`` is exact; always EXACT under the fixed policy).
        self.drift = drift
        #: Cached escalation-checked correctly rounded double of
        #: ``real`` (None until first requested).
        self.rounded: Optional[float] = None
        #: Cached bits-of-error of the shadowed float against
        #: ``rounded`` (None until first requested); a pure function of
        #: the shadow, so compensation checks pay for it once.
        self.total_error: Optional[float] = None

    def __repr__(self) -> str:
        return (
            f"<ShadowValue real={self.real!s}"
            f" influences={len(self.influences)}>"
        )


class ShadowEscalator:
    """Recovers full-tier shadow reals by re-executing concrete traces.

    The escalation mechanism of the adaptive precision tiers: when the
    policy reports a decision as precision-sensitive, the analysis asks
    the escalator for the exact full-tier value of the shadows
    involved.  Leaves evaluate to their recorded doubles exactly
    (``BigFloat.from_float``) unless an override was registered —
    int→float conversions register the exact integer, which the float
    leaf value cannot always represent.

    Escalation itself is tiered, Ziv style: a *rounding* escalation
    first re-executes at the cheap **confirm tier** (roughly twice the
    working precision) with its own drift bookkeeping; when the
    decision is decisive there — almost always, since the band shrank
    by a couple hundred bits — the full tier is never touched.  Only a
    still-ambiguous decision pays for the exact full-precision
    re-execution.
    """

    def __init__(self, policy: PrecisionPolicy, backend=None,
                 pool=None) -> None:
        self.policy = policy
        #: Kernel substrate for trace re-execution; defaults to the
        #: python reference.  The analysis passes its own backend so
        #: escalated values are computed by the same substrate as the
        #: working-tier values they replace.
        self._apply = backend.apply if backend is not None else apply
        #: Ident-first trace pool: when set, shadows carry integer
        #: idents instead of structured nodes and re-execution walks
        #: the pool's flat arrays directly — no node is materialized to
        #: escalate.  Memo keys are idents in both representations
        #: (materialized nodes carry their pool ident).
        self._pool = pool
        self._memo: Dict[int, BigFloat] = {}
        self._leaves: Dict[int, BigFloat] = {}
        #: Operation nodes recomputed at the full tier (for reporting).
        self.recomputed_nodes = 0
        #: Confirm-tier state: a second adaptive policy whose "working"
        #: precision is the confirm tier, reusing all drift machinery.
        self._confirm_policy: Optional[PrecisionPolicy] = None
        self._confirm_memo: Dict[int, "Tuple[BigFloat, float]"] = {}
        self.confirm_certified = 0
        #: Hardware-tier rung: when the shadow real is a double-double
        #: pair, an uncertifiable rounding first re-executes at the
        #: plain working tier (the rung the hardware tier replaced)
        #: before touching the confirm tier.
        self._working_memo: Dict[int, "Tuple[BigFloat, float]"] = {}
        self.working_certified = 0
        if policy.escalates:
            full = policy.full_context.precision
            working = policy.context.precision
            confirm = min(full, working * 2 + 64)
            if confirm > working + 32 and confirm < full:
                self._confirm_policy = type(policy)(
                    full,
                    working_precision=confirm,
                    guard_bits=getattr(policy, "guard_bits", 16),
                    rounding=policy.full_context.rounding,
                )

    def register_leaf(self, node, real: BigFloat) -> None:
        """Pin the exact full-tier value of a trace leaf (a
        :class:`TraceNode` or a pool ident)."""
        self._leaves[node if type(node) is int else node.ident] = real

    def reset(self) -> None:
        """Drop the ident-keyed memos and leaf overrides.

        Under an ident pool the analysis calls this whenever the pool
        starts a new epoch: idents then restart from zero, and a stale
        entry would alias a different value.  Within an epoch an entry
        stays valid across runs (and across the lanes of a batch),
        because re-execution of an ident is a pure function of its
        trace.  Without a pool it runs once per execution, which bounds
        memory (structured nodes are never reused across runs).
        Counters survive; they aggregate across runs."""
        self._memo.clear()
        self._confirm_memo.clear()
        self._working_memo.clear()
        self._leaves.clear()

    def exact_real(self, shadow: ShadowValue) -> BigFloat:
        """The full-tier value of ``shadow`` (its real, if already exact)."""
        if not self.policy.escalates or shadow.drift == EXACT:
            real = shadow.real
            if type(real) is DoubleDouble:
                # An EXACT hardware pair is the true value and fits the
                # full tier (propagate_hw requires it), so the exact
                # promotion is bit-identical to full re-execution.
                return real.to_bigfloat()
            return real
        if self._pool is not None:
            return self.exact_ident(shadow.trace)
        return self.exact_node(shadow.trace)

    def certified_rounded(self, shadow: ShadowValue,
                          mant_bits: int = 53,
                          emin: int = -1022) -> Optional[float]:
        """The hardware rounding of the full-tier value, via the
        cheapest tier that can certify the decision (None when none
        can; the caller then pays for :meth:`exact_real`).

        Hardware-tier shadows climb one extra rung: first a working-tier
        re-execution (whose band is a few dozen bits tighter than the
        double-double bound), then the confirm tier, then the full tier.
        """
        if type(shadow.real) is DoubleDouble:
            if self._pool is not None:
                value, drift = self._working_ident(shadow.trace)
            else:
                value, drift = self._working_node(shadow.trace)
            if not self.policy.rounding_unsafe(value, drift, mant_bits,
                                               emin):
                self.working_certified += 1
                return (
                    value.to_float() if mant_bits == 53
                    else value.to_single()
                )
            if drift == UNTRUSTED:
                return None
        elif shadow.drift == UNTRUSTED:
            # Cancellation burned through the whole working tier: the
            # value is rounding noise at every intermediate tier too
            # (sin^2+cos^2-1 style), so attempting the confirm tier
            # would just triple-pay.  Go straight to the full tier.
            return None
        confirm = self._confirm_policy
        if confirm is None:
            return None
        if self._pool is not None:
            value, drift = self._confirm_ident(shadow.trace)
        else:
            value, drift = self._confirm_node(shadow.trace)
        if confirm.rounding_unsafe(value, drift, mant_bits, emin):
            return None
        self.confirm_certified += 1
        return (
            value.to_float() if mant_bits == 53 else value.to_single()
        )

    def _working_node(self, node: TraceNode) -> "Tuple[BigFloat, float]":
        return self._tier_node(node, self.policy, self._working_memo)

    def _working_ident(self, ident: int) -> "Tuple[BigFloat, float]":
        return self._tier_ident(ident, self.policy, self._working_memo)

    def _confirm_node(self, node: TraceNode) -> "Tuple[BigFloat, float]":
        return self._tier_node(node, self._confirm_policy,
                               self._confirm_memo)

    def _confirm_ident(self, ident: int) -> "Tuple[BigFloat, float]":
        return self._tier_ident(ident, self._confirm_policy,
                                self._confirm_memo)

    def _tier_node(self, node: TraceNode, confirm: PrecisionPolicy,
                   memo: Dict[int, "Tuple[BigFloat, float]"],
                   ) -> "Tuple[BigFloat, float]":
        """(value, drift) of ``node`` re-executed at ``confirm``'s base
        tier with BigFloat values and that policy's drift bookkeeping."""
        cached = memo.get(node.ident)
        if cached is not None:
            return cached
        context = confirm.context
        precision = context.precision
        stack = [node]
        while stack:
            current = stack[-1]
            if current.ident in memo:
                stack.pop()
                continue
            if current.kind != KIND_OP:
                override = self._leaves.get(current.ident)
                if override is None:
                    memo[current.ident] = (
                        BigFloat.from_float(current.value), EXACT
                    )
                else:
                    rounded = override.round_to(precision)
                    memo[current.ident] = (
                        rounded,
                        EXACT if rounded == override else 1.0,
                    )
                stack.pop()
                continue
            pending = [a for a in current.args if a.ident not in memo]
            if pending:
                stack.extend(pending)
                continue
            pairs = [memo[a.ident] for a in current.args]
            arguments = [p[0] for p in pairs]
            try:
                value = self._apply(current.op, arguments, context)
                drift = confirm.propagate(
                    current.op, arguments, [p[1] for p in pairs], value
                )
            except KeyError:
                value = BigFloat.from_float(current.value)
                drift = EXACT
            memo[current.ident] = (value, drift)
            stack.pop()
        return memo[node.ident]

    def _tier_ident(self, ident: int, confirm: PrecisionPolicy,
                    memo: Dict[int, "Tuple[BigFloat, float]"],
                    ) -> "Tuple[BigFloat, float]":
        """(value, drift) of a pool ident re-executed at ``confirm``'s
        base tier — the flat-array mirror of :meth:`_tier_node`."""
        cached = memo.get(ident)
        if cached is not None:
            return cached
        pool = self._pool
        kinds = pool.kinds
        opsA = pool.ops
        argsA = pool.args
        valsA = pool.values
        leaves = self._leaves
        context = confirm.context
        precision = context.precision
        stack = [ident]
        while stack:
            cur = stack[-1]
            if cur in memo:
                stack.pop()
                continue
            if kinds[cur] != P_OP:
                override = leaves.get(cur)
                if override is None:
                    memo[cur] = (BigFloat.from_float(valsA[cur]), EXACT)
                else:
                    rounded = override.round_to(precision)
                    memo[cur] = (
                        rounded, EXACT if rounded == override else 1.0
                    )
                stack.pop()
                continue
            pending = [a for a in argsA[cur] if a not in memo]
            if pending:
                stack.extend(pending)
                continue
            pairs = [memo[a] for a in argsA[cur]]
            arguments = [p[0] for p in pairs]
            try:
                value = self._apply(opsA[cur], arguments, context)
                drift = confirm.propagate(
                    opsA[cur], arguments, [p[1] for p in pairs], value
                )
            except KeyError:
                value = BigFloat.from_float(valsA[cur])
                drift = EXACT
            memo[cur] = (value, drift)
            stack.pop()
        return memo[ident]

    def exact_ident(self, ident: int) -> BigFloat:
        """Evaluate a pool ident at the full tier (memoized, iterative)
        straight off the pool's flat arrays — escalation re-executes
        from idents without materializing a single node."""
        memo = self._memo
        cached = memo.get(ident)
        if cached is not None:
            return cached
        pool = self._pool
        kinds = pool.kinds
        opsA = pool.ops
        argsA = pool.args
        valsA = pool.values
        leaves = self._leaves
        with self.policy.escalated() as context:
            stack = [ident]
            while stack:
                cur = stack[-1]
                if cur in memo:
                    stack.pop()
                    continue
                if kinds[cur] != P_OP:
                    override = leaves.get(cur)
                    memo[cur] = (
                        override if override is not None
                        else BigFloat.from_float(valsA[cur])
                    )
                    stack.pop()
                    continue
                pending = [a for a in argsA[cur] if a not in memo]
                if pending:
                    stack.extend(pending)
                    continue
                arguments = [memo[a] for a in argsA[cur]]
                try:
                    value = self._apply(opsA[cur], arguments, context)
                except KeyError:
                    # Outside the real engine: the fixed tier would have
                    # shadowed this as an opaque float source too.
                    value = BigFloat.from_float(valsA[cur])
                memo[cur] = value
                self.recomputed_nodes += 1
                stack.pop()
        return memo[ident]

    def exact_node(self, node: TraceNode) -> BigFloat:
        """Evaluate a trace node at the full tier (memoized, iterative)."""
        memo = self._memo
        cached = memo.get(node.ident)
        if cached is not None:
            return cached
        with self.policy.escalated() as context:
            stack = [node]
            while stack:
                current = stack[-1]
                if current.ident in memo:
                    stack.pop()
                    continue
                if current.kind != KIND_OP:
                    override = self._leaves.get(current.ident)
                    memo[current.ident] = (
                        override if override is not None
                        else BigFloat.from_float(current.value)
                    )
                    stack.pop()
                    continue
                pending = [a for a in current.args if a.ident not in memo]
                if pending:
                    stack.extend(pending)
                    continue
                arguments = [memo[a.ident] for a in current.args]
                try:
                    value = self._apply(current.op, arguments, context)
                except KeyError:
                    # Outside the real engine: the fixed tier would have
                    # shadowed this as an opaque float source too.
                    value = BigFloat.from_float(current.value)
                memo[current.ident] = value
                self.recomputed_nodes += 1
                stack.pop()
        return memo[node.ident]
