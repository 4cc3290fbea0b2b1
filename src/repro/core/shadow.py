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
full-precision run computes.  Re-execution is memoized per trace ident,
so shared sub-computations (the trace is a DAG) are escalated once.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from repro.bigfloat import BigFloat, apply
from repro.bigfloat.doubledouble import DoubleDouble
from repro.bigfloat.policy import EXACT, PrecisionPolicy
from repro.core.records import OpRecord
from repro.core.trace import TracePool, trace_view

EMPTY_INFLUENCES: FrozenSet[OpRecord] = frozenset()


class ShadowValue:
    """The analysis state shadowing one float value."""

    __slots__ = ("real", "trace", "influences", "drift", "rounded",
                 "total_error")

    def __init__(
        self,
        real: BigFloat,
        trace: int,  # an ident into the analysis's TracePool
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

    A trace is an integer ident into the analysis's trace pool (both
    engines intern there); the walk (:meth:`exact`) reads the pool's
    arrays through :func:`repro.core.trace.trace_view`, and the memo
    and leaf overrides are keyed by ident.  There is one rung: every
    escalation re-executes at ``policy.full_context``, exactly as the
    fixed tier computed the value.
    """

    def __init__(self, policy: PrecisionPolicy, pool: TracePool,
                 backend=None) -> None:
        self.policy = policy
        #: Kernel substrate for trace re-execution; defaults to the
        #: python reference.  The analysis passes its own backend so
        #: escalated values are computed by the same substrate as the
        #: working-tier values they replace.
        self._apply = backend.apply if backend is not None else apply
        #: Accessor of trace idents.  The pool's arrays are cleared,
        #: never rebound, at an epoch, so one view serves the
        #: escalator's lifetime.
        self._view = trace_view(pool)
        #: Full-tier values by ident.
        self._memo: Dict[int, BigFloat] = {}
        self._leaves: Dict[int, BigFloat] = {}
        #: Operation nodes recomputed at the full tier (for reporting).
        self.recomputed_nodes = 0

    def register_leaf(self, leaf: int, real: BigFloat) -> None:
        """Pin the exact full-tier value of a trace leaf ident."""
        self._leaves[leaf] = real

    def reset(self) -> None:
        """Drop the ident-keyed memo and leaf overrides.

        The analysis calls this whenever the pool starts a new epoch:
        idents then restart from zero, and a stale entry would alias a
        different value.  Within an epoch an entry stays valid across
        runs (and across the lanes of a batch), because re-execution of
        an ident is a pure function of its trace.  Counters survive;
        they aggregate across runs."""
        self._memo.clear()
        self._leaves.clear()

    def exact_real(self, shadow: ShadowValue) -> BigFloat:
        """The full-tier value of ``shadow`` (its real, if already exact)."""
        if not self.policy.escalates or shadow.drift == EXACT:
            real = shadow.real
            if type(real) is DoubleDouble:
                # An EXACT hardware pair is the true value and fits the
                # full tier (the drift rule charges an error-free pair
                # wider than the full tier one ulp), so the exact
                # promotion is bit-identical to full re-execution.
                return real.to_bigfloat()
            return real
        return self.exact(shadow.trace)

    def exact(self, root: int) -> BigFloat:
        """The full-tier value of trace ident ``root``, memoized per
        ident (iterative, so loop traces thousands of levels deep do
        not recurse).  Leaves stay exact, and every recomputed
        operation counts toward :attr:`recomputed_nodes`."""
        memo = self._memo
        cached = memo.get(root)
        if cached is not None:
            return cached
        view = self._view
        leaves = self._leaves
        apply_op = self._apply
        context = self.policy.full_context
        recomputed = 0
        stack = [root]
        while stack:
            cur = stack[-1]
            if cur in memo:
                stack.pop()
                continue
            is_op, op, args, value, _ = view(cur)
            if not is_op:
                exact = leaves.get(cur)
                memo[cur] = BigFloat.from_float(value) if exact is None \
                    else exact
                stack.pop()
                continue
            pending = [a for a in args if a not in memo]
            if pending:
                stack.extend(pending)
                continue
            try:
                result = apply_op(op, [memo[a] for a in args], context)
            except KeyError:
                # Outside the real engine: the fixed tier would have
                # shadowed this as an opaque float source too.
                result = BigFloat.from_float(value)
            memo[cur] = result
            recomputed += 1
            stack.pop()
        self.recomputed_nodes += recomputed
        return memo[root]
