"""The Herbgrind analysis as a machine tracer (paper Figures 3 and 4).

For every executed floating-point operation the tracer:

1. computes the shadow-real result (⟦f⟧_R on the shadow arguments),
2. measures the operation's *local error* and marks it a candidate
   root cause when that exceeds Tℓ,
3. extends the concrete-expression trace and anti-unifies it into the
   site's symbolic expression,
4. updates the site's input characteristics (total, and problematic
   when the local error was high),
5. propagates influence taint — the union of the arguments' influences
   plus the site itself when it is a candidate — with compensating
   additions/subtractions (Section 5.3) blocked from propagating their
   compensating term's taint.

At spots (outputs, float branches, float→int conversions) it measures
error against the real execution and records which candidates
influenced the spot.

One note versus the paper's Figure 4: the figure's branch/conversion
case unions influences when the real and float paths *agree*; we take
that for a typo and record influences on *divergence* (as the PID case
study's prose describes).
"""

from __future__ import annotations

import linecache
import operator
import re
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bigfloat import BigFloat, make_policy
from repro.bigfloat import arith
from repro.bigfloat.backend import get_backend
from repro.bigfloat.doubledouble import (
    DD_KERNELS,
    DoubleDouble,
    dd_abs,
    dd_fma,
    dd_neg,
    dd_sqrt,
)
from repro.bigfloat.functions import DOUBLE_HANDLERS
from repro.bigfloat.policy import EXACT
from repro.core.config import ENGINE_COMPILED, AnalysisConfig
from repro.core.localerror import rounded_local_error, rounded_total_error
from repro.ieee.error import bits_of_error_fast
from repro.ieee.float64 import double_to_bits as _double_bits
from repro.core.records import (
    OpRecord,
    SpotRecord,
    SPOT_BRANCH,
    SPOT_CONVERSION,
    SPOT_OUTPUT,
)
from repro.core.shadow import EMPTY_INFLUENCES, ShadowEscalator, ShadowValue
from repro.core import trace as trace_mod
from repro.machine import isa
from repro.machine.interpreter import Interpreter, MachineError, Tracer
from repro.machine.values import FloatBox
from repro.resilience import faults as _faults
from repro.resilience.errors import (
    AnalysisDeadlineExceeded,
    EngineFault,
    OpBudgetExceeded,
)


#: Operations between deadline checks: ``time.monotonic()`` per op
#: would dominate the per-op floor, so the guard samples the clock
#: every 256 ticks (a power of two — the check is one AND).
_DEADLINE_CHECK_MASK = 255


#: Trace-pool epoch cap.  One pool epoch normally spans a whole
#: analysis, so idents (and every cache keyed by them) stay valid from
#: one sampled point to the next; the pool is reset only at a run
#: boundary, and only once it holds more than this many idents.
POOL_EPOCH_IDENTS = 1 << 14


#: Double-double kernels by operation (the generic analysis path);
#: the site steps resolve from the same table per site.
_DD_GENERIC = dict(DD_KERNELS, sqrt=dd_sqrt, neg=dd_neg, fabs=dd_abs,
                   fma=dd_fma)
_DD_ARITY = {"+": 2, "-": 2, "*": 2, "/": 2,
             "sqrt": 1, "neg": 1, "fabs": 1, "fma": 3}


class ResourceGuard:
    """Per-analysis execution budgets (deadline and op count).

    Created by :class:`HerbgrindAnalysis` when the config sets
    ``deadline_seconds`` and/or ``op_budget``; :meth:`tick` is called
    once per analysed operation and raises a
    :class:`~repro.resilience.errors.ResourceExhausted` subclass when a
    budget is spent, so a runaway analysis fails cleanly instead of
    monopolizing a worker until the pool's coarse kill-timeout fires.
    A spent deadline degrades down the ladder like any engine failure;
    a spent op budget propagates at once, since every rung analyses
    the same operations.

    The guard deliberately disables the batched layer (see
    ``HerbgrindAnalysis._batched``): budgets need per-op granularity,
    and by the parity invariant the sequential path produces identical
    bytes — only slower, which is what a *bounded* analysis asked for.
    """

    __slots__ = ("budget", "deadline", "_ops", "_expires")

    def __init__(self, deadline_seconds: Optional[float],
                 op_budget: Optional[int]) -> None:
        self.deadline = deadline_seconds
        self.budget = op_budget
        self._ops = 0
        self._expires = (
            time.monotonic() + deadline_seconds
            if deadline_seconds is not None else None
        )

    @property
    def ops(self) -> int:
        return self._ops

    def tick(self) -> None:
        """Account one analysed operation; raise when a budget is spent."""
        ops = self._ops = self._ops + 1
        if self.budget is not None and ops > self.budget:
            raise OpBudgetExceeded(
                f"op budget of {self.budget} analysed operations "
                f"exhausted"
            )
        if self._expires is not None and not (ops & _DEADLINE_CHECK_MASK):
            self.check_deadline()

    def check_deadline(self) -> None:
        """Raise when the wall-clock deadline has passed (also called
        at each run start, so even a between-runs stall is caught)."""
        if self._expires is not None and time.monotonic() > self._expires:
            raise AnalysisDeadlineExceeded(
                f"analysis exceeded its {self.deadline:.3f}s deadline "
                f"after {self._ops} operations"
            )


class PipelineStageCounters:
    """Per-stage attribution counters of the per-operation pipeline.

    One instance per analysis (:attr:`HerbgrindAnalysis.stage_counters`),
    reset at construction, populated only when the analysis is built
    with ``profile=True``.  ``fused_ops`` counts
    operations analysed by the site steps — sequential and batched
    lanes alike — and ``generic_ops`` those that went through the
    generic ``_analyse_operation`` walk.  Both count *executed*
    operations.  The shadow-stage counters (``kernel_evals``, the
    error, compensation and tier counters) count *computed* ones: a
    site-step op whose ident is memoized in the pool
    (:attr:`HerbgrindAnalysis.memo_hits`, batched lanes included)
    skips those stages.  ``antiunify_fast``,
    ``antiunify_merge`` and ``characteristic_updates`` count walks
    actually run: a memo hit whose site expression is unchanged since
    the ident's last walk (:attr:`HerbgrindAnalysis.tail_replays`)
    skips the walk and the characteristic updates too.
    """

    __slots__ = ("fused_ops", "generic_ops", "kernel_evals",
                 "error_fast", "error_exact",
                 "antiunify_fast", "antiunify_merge",
                 "characteristic_updates", "compensation_checks",
                 "working_tier_ops")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.fused_ops = 0
        self.generic_ops = 0
        self.kernel_evals = 0
        self.error_fast = 0
        self.error_exact = 0
        self.antiunify_fast = 0
        self.antiunify_merge = 0
        self.characteristic_updates = 0
        self.compensation_checks = 0
        #: Tier residency (adaptive policy only): operations whose
        #: shadow the BigFloat working tier computed rather than the
        #: double-double kernels (those are ``hw_kernel_ops``).
        self.working_tier_ops = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class HerbgrindAnalysis(Tracer):
    """The full analysis; attach to an Interpreter as its tracer."""

    def __init__(
        self,
        config: Optional[AnalysisConfig] = None,
        profile: bool = False,
    ) -> None:
        self.config = config if config is not None else AnalysisConfig()
        #: The compiled engine: every fast layer on — the trace pool,
        #: the site-compiled fused pipeline, the steady-state
        #: anti-unification walk and (unless ``config.batched`` is off)
        #: batched lockstep execution.  The reference engine turns every
        #: layer off but the trace pool, which both engines intern
        #: through; it is the oracle the parity suites compare against.
        self.compiled = self.config.engine == ENGINE_COMPILED
        self.policy = make_policy(
            self.config.precision_policy,
            full_precision=self.config.shadow_precision,
            working_precision=self.config.working_precision,
        )
        #: The context shadow operations run under: the full tier for
        #: the fixed policy, the working tier for adaptive tiers.
        self.context = self.policy.context
        #: The kernel substrate evaluating ⟦f⟧_R (config.substrate).
        self.backend = get_backend(self.config.substrate)
        #: Pre-resolved substrate dispatch for the per-operation hot path.
        self._apply = self.backend.apply
        #: Hoisted policy flag: the fixed policy never escalates, so
        #: the hot path can skip drift/rounding bookkeeping entirely.
        #: An escalating policy also runs the hardware (double-double)
        #: shadow tier below its working tier: the policy rounds to
        #: nearest, which the pair kernels' IEEE tie and signed-zero
        #: behaviour assumes.
        self._escalates = self.policy.escalates
        if self._escalates and _faults.active():
            # Chaos seam: an adaptive-tier failure at analysis setup.
            # The ladder's fixed-policy rung never reaches this.
            _faults.trip("policy.adaptive.raise", EngineFault)
        self._working_precision = self.context.precision
        #: Always-on tier-residency counters (serving stats surface
        #: them): operations served by the double-double kernels, and
        #: operations that had to promote their pair arguments to the
        #: BigFloat working tier (kernel bail-out or uncovered op).
        self.hw_kernel_ops = 0
        self.hw_promotions = 0
        #: Site-step operations (sequential or batched lanes) served
        #: from the pool's per-ident memo (their shadow stages skipped;
        #: see TracePool.memo).
        self.memo_hits = 0
        #: Memo hits that also replayed the per-execution tail: the
        #: anti-unification walk and the characteristic updates were
        #: skipped because the site's expression had not changed since
        #: the ident's last walk (see _SITE_STEP_TEMPLATE).
        self.tail_replays = 0
        #: Per-analysis resource budgets, or None (the common case —
        #: the per-op tick must cost nothing when no budget is set).
        self._guard: Optional[ResourceGuard] = (
            ResourceGuard(self.config.deadline_seconds,
                          self.config.op_budget)
            if self.config.deadline_seconds is not None
            or self.config.op_budget is not None else None
        )
        self.op_records: Dict[int, OpRecord] = {}
        self.spot_records: Dict[int, SpotRecord] = {}
        self._sites: Dict[int, isa.Instr] = {}  # keeps instr ids stable
        self._site_counter = 0
        self.runs = 0
        #: Ident-interning trace pool (both engines): every
        #: :attr:`ShadowValue.trace` is an integer ident into the pool's
        #: flat arrays; structured nodes are materialized lazily.
        self.pool = trace_mod.TracePool()
        self.escalator = ShadowEscalator(
            self.policy, self.pool, backend=self.backend
        )
        #: Batched lockstep execution enabled (compiled engine only:
        #: the batched engine loops its lanes through the site steps).
        #: A resource guard forces the sequential path: budgets need
        #: per-op ticks, and the parity invariant makes the downgrade
        #: invisible in the report bytes.
        self._batched = (
            self.config.batched and self.compiled and self._guard is None
        )
        #: Batch-orchestration introspection (not serialized): uniform
        #: sub-batches executed and lanes covered by them.  Zero when
        #: every point went through the sequential per-point path.
        self.batched_groups = 0
        self.batched_lanes = 0
        #: Per-stage attribution counters (populated under
        #: ``profile``), fresh per analysis.
        self.stage_counters = PipelineStageCounters()
        self._profile = profile

    # ------------------------------------------------------------------
    # Record lookup
    # ------------------------------------------------------------------

    def _op_record(self, instr: isa.Instr, op: str) -> OpRecord:
        key = id(instr)
        record = self.op_records.get(key)
        if record is None:
            self._sites[key] = instr
            self._site_counter += 1
            record = OpRecord(
                site_id=self._site_counter,
                op=op,
                loc=getattr(instr, "loc", None),
                config=self.config,
                trace_pool=self.pool,
            )
            if self._profile:
                # Anti-unify verdicts are counted at the Generalization
                # layer so fused and generic paths report uniformly.
                record.generalization.stats = self.stage_counters
            self.op_records[key] = record
        return record

    def _spot_record(self, instr: isa.Instr, kind: str) -> SpotRecord:
        key = id(instr)
        record = self.spot_records.get(key)
        if record is None:
            self._sites[key] = instr
            self._site_counter += 1
            record = SpotRecord(
                site_id=self._site_counter,
                kind=kind,
                loc=getattr(instr, "loc", None),
            )
            self.spot_records[key] = record
        return record

    # ------------------------------------------------------------------
    # Shadow access (lazy creation, paper Section 6)
    # ------------------------------------------------------------------

    def _leaf_real(self, value: float):
        """The shadow real of a fresh leaf: a hardware pair under an
        escalating policy (finite values only — NaN/inf semantics stay with
        BigFloat), the exact BigFloat otherwise."""
        if self._escalates and value - value == 0.0:
            return DoubleDouble(value, 0.0)
        return BigFloat.from_float(value)

    def _promote_shadow(self, shadow: ShadowValue) -> None:
        """Promote a hardware-pair shadow to the BigFloat working tier
        in place (uncovered operation or kernel bail-out).  The pair
        converts exactly; rounding it into the working precision — only
        possible when the pair carries more than ``working_precision``
        bits — charges one ulp of drift."""
        real = shadow.real
        if type(real) is not DoubleDouble:
            return
        exact = real.to_bigfloat()
        rounded = exact.round_to(self._working_precision)
        if not (rounded == exact):
            shadow.drift = shadow.drift + 1.0
        shadow.real = rounded

    def _hw_apply(self, op: str, shadows) -> tuple:
        """Try the double-double kernel for ``op`` over pair shadows.

        Returns ``(result, exact_op)`` on success; on any bail-out —
        uncovered operation, non-pair argument, or a kernel refusing
        its preconditions — promotes every pair argument to the
        working tier and returns ``(None, False)`` so the BigFloat
        kernels take over with consistent argument types.
        """
        kernel = _DD_GENERIC.get(op)
        if kernel is not None and len(shadows) == _DD_ARITY[op]:
            parts = []
            for s in shadows:
                r = s.real
                if type(r) is not DoubleDouble:
                    parts = None
                    break
                parts.append(r.hi)
                parts.append(r.lo)
            if parts is not None:
                dd = kernel(*parts)
                if dd is not None:
                    self.hw_kernel_ops += 1
                    return DoubleDouble(dd[0], dd[1]), dd[2]
        promoted = False
        for s in shadows:
            if type(s.real) is DoubleDouble:
                self._promote_shadow(s)
                promoted = True
        if promoted:
            self.hw_promotions += 1
        return None, False

    def _shadow(self, box: FloatBox) -> ShadowValue:
        shadow = box.shadow
        if shadow is None:
            shadow = box.shadow = self.opaque_shadow(box.value)
        return shadow

    def opaque_shadow(self, value: float) -> ShadowValue:
        """An opaque leaf for a float that reached the analysis without
        a shadow (a bitcast result).  The engines store it where the
        value lives — on the box, or in the batched lane column — so
        later consumers share it."""
        return ShadowValue(
            self._leaf_real(value), self.pool.opaque_ident(value),
            EMPTY_INFLUENCES,
        )

    # ------------------------------------------------------------------
    # Tier-checked views of shadow reals
    # ------------------------------------------------------------------

    def _rounded(self, shadow: ShadowValue) -> float:
        """The correctly rounded double of a shadow real.

        Under an adaptive policy the rounding escalates to the full
        tier when the working value sits within the guarded band of a
        rounding tie; the result is cached on the shadow.
        """
        value = shadow.rounded
        if value is None:
            real = shadow.real
            if self._escalates and \
                    self.policy.rounding_unsafe(real, shadow.drift):
                self.policy.note_escalation("rounding")
                value = self.escalator.exact_real(shadow).to_float()
            else:
                value = real.to_float()
            shadow.rounded = value
        return value

    def _comparable(
        self, left: ShadowValue, right: ShadowValue
    ) -> Tuple[BigFloat, BigFloat]:
        """A pair of reals safe to compare (escalated when too close)."""
        if self.policy.comparison_unsafe(
            left.real, left.drift, right.real, right.drift
        ):
            self.policy.note_escalation("comparison")
            return (
                self.escalator.exact_real(left),
                self.escalator.exact_real(right),
            )
        return left.real, right.real

    # ------------------------------------------------------------------
    # Value-producing events
    # ------------------------------------------------------------------

    def on_start(self, interpreter: Interpreter) -> None:
        if self._guard is not None:
            self._guard.check_deadline()
        self._begin_run()

    def on_batch_start(self, machine, lanes: int) -> None:
        """One uniform sub-batch of ``lanes`` lockstep points begins.

        The lanes run inside the current pool/escalator epoch like any
        sequential run: leaf idents are value-keyed and memo entries
        are pure functions of their idents, so lanes can only *warm*
        each other's caches, never perturb each other's values.
        ``runs`` counts sub-batches here; the batch driver pins it to
        the point count afterwards so the externally observable run
        count matches the sequential loop.
        """
        self._begin_run()
        self.batched_groups += 1
        self.batched_lanes += lanes

    def _begin_run(self) -> None:
        """A run boundary: keep the pool epoch unless it is full.

        Idents stay valid across runs, so the pool, its memo column
        and the escalator memos — all keyed by idents — persist for the
        whole analysis.  Only once the pool holds
        more than :data:`POOL_EPOCH_IDENTS` idents are they reset, all
        together.
        """
        self.runs += 1
        pool = self.pool
        if len(pool) > POOL_EPOCH_IDENTS:
            # The new epoch reuses the idents the records' last traces
            # point at.  An aborted run's are covered too: they stay
            # valid until this reset.
            for record in self.op_records.values():
                record.save_locations()
            pool.begin_execution()
            self.escalator.reset()

    def on_const(self, instr: isa.Instr, box: FloatBox) -> None:
        # The compiled engines bind fused_const_callback instead, which
        # caches the leaf's shadow per site and pool epoch.
        leaf = self.pool.const_ident(
            box.value, getattr(instr, "loc", None), site=id(instr)
        )
        box.shadow = ShadowValue(
            self._leaf_real(box.value), leaf, EMPTY_INFLUENCES
        )

    def on_read(self, instr: isa.Read, box: FloatBox, index: int) -> None:
        # Input leaves are per-execution (each Read fires once per run
        # with a fresh value), so unlike constants there is nothing to
        # cache across runs.
        leaf = self.pool.input_ident(
            box.value, index, instr.loc, site=id(instr)
        )
        box.shadow = ShadowValue(
            self._leaf_real(box.value), leaf, EMPTY_INFLUENCES
        )

    def on_int_to_float(self, instr: isa.IntToFloat, value: int, box: FloatBox) -> None:
        # Integers are exact; the trace sees a constant of that value.
        exact = BigFloat.from_int(value)
        leaf = self.pool.int_ident(
            box.value, value, instr.loc, site=id(instr)
        )
        real = exact
        drift = EXACT
        if self.policy.escalates:
            # Integers wider than the working tier are rounded into it;
            # the escalator keeps the exact integer for the leaf, which
            # the float leaf value cannot always represent.
            real = exact.round_to(self._working_precision)
            if not (real == exact):
                drift = 1.0
            if not (exact == BigFloat.from_float(box.value)):
                self.escalator.register_leaf(leaf, exact)
            elif box.value - box.value == 0.0:
                # The double carries the integer exactly, so the
                # hardware pair is the exact value (no leaf override).
                real = DoubleDouble(box.value, 0.0)
                drift = EXACT
        box.shadow = ShadowValue(real, leaf, EMPTY_INFLUENCES, drift)

    def on_op(
        self, instr: isa.Instr, op: str, args: Sequence[FloatBox], result: FloatBox
    ) -> Optional[float]:
        self._analyse_operation(instr, op, args, result)
        return None

    def on_library(
        self, instr: isa.Call, name: str, args: Sequence[FloatBox], result: FloatBox
    ) -> Optional[float]:
        # Wrapped library call: analysed as one atomic operation, so the
        # trace records `tan`, not tan's instruction stream (Section 5.3).
        self._analyse_operation(instr, name, args, result)
        return None

    def on_bitop(self, instr: isa.FloatBitOp, box: FloatBox, result: FloatBox) -> None:
        # Recognize compiler bit tricks (Section 5.3): sign-flip XOR is
        # negation, sign-clear AND is fabs.  Anything else is opaque.
        if instr.op == "xor" and instr.mask == isa.SIGN_BIT_MASK:
            self._analyse_operation(instr, "neg", [box], result)
            return
        if instr.op == "and" and instr.mask == isa.ABS_MASK:
            self._analyse_operation(instr, "fabs", [box], result)
            return
        shadow = self._shadow(box)
        result.shadow = ShadowValue(
            self._leaf_real(result.value),
            self.pool.opaque_ident(result.value, instr.loc),
            shadow.influences,
        )

    # ------------------------------------------------------------------
    # The core per-operation analysis
    # ------------------------------------------------------------------

    def _analyse_operation(
        self, instr: isa.Instr, op: str, args: Sequence[FloatBox], result: FloatBox
    ) -> None:
        if self._guard is not None:
            self._guard.tick()
        config = self.config
        pool = self.pool
        profile = self._profile
        if profile:
            self.stage_counters.generic_ops += 1
        # `box.shadow or ...` inlines the warm case of _shadow: every
        # argument of every traced operation passes through here.
        shadows = [a.shadow or self._shadow(a) for a in args]
        real_result = None
        exact_op = False
        if self._escalates:
            # Hardware-tier fast path; bail-outs promote the pair
            # arguments in place, so the BigFloat code below always
            # sees uniform argument types.
            real_result, exact_op = self._hw_apply(op, shadows)
        real_args = [s.real for s in shadows]
        if real_result is None:
            try:
                real_result = self._apply(op, real_args, self.context)
            except KeyError:
                # Operation outside the real engine: treat the result as
                # an opaque float source.
                leaf = pool.opaque_ident(
                    result.value, getattr(instr, "loc", None)
                )
                result.shadow = ShadowValue(
                    self._leaf_real(result.value),
                    leaf,
                    frozenset().union(*[s.influences for s in shadows])
                    if shadows else EMPTY_INFLUENCES,
                )
                return
        if profile:
            self.stage_counters.kernel_evals += 1
            if self._escalates and type(real_result) is not DoubleDouble:
                self.stage_counters.working_tier_ops += 1
        record = self._op_record(instr, op)
        node = pool.op_ident(
            op,
            tuple(s.trace for s in shadows),
            result.value,
            instr.loc,
            site=id(instr),
        )
        if not self._escalates:
            drift = EXACT
        elif (
            op == "-"
            and len(shadows) == 2
            and shadows[0].trace == shadows[1].trace
        ):
            # x - x over the *same* shadowed value is exactly zero at
            # every tier; without this the working tier must treat the
            # cancelled zero as untrusted.
            drift = EXACT
        else:
            drift = self.policy.propagate(
                op, real_args, [s.drift for s in shadows], real_result,
                exact_op,
            )
        result_shadow = ShadowValue(real_result, node, EMPTY_INFLUENCES, drift)
        # Inline the cache-hit branch of _rounded: this comprehension
        # runs for every argument of every traced operation, and the
        # attribute read saves a method call in the common warm case.
        rounded_args = [
            s.rounded if s.rounded is not None else self._rounded(s)
            for s in shadows
        ]
        error_bits = rounded_local_error(
            op, rounded_args, self._rounded(result_shadow)
        )
        if profile:
            if error_bits == 0.0:
                self.stage_counters.error_fast += 1
            else:
                self.stage_counters.error_exact += 1
        # record.record_execution(error_bits), inlined for the hot path.
        record.executions += 1
        record.sum_local_error += error_bits
        if error_bits > record.max_local_error:
            record.max_local_error = error_bits
        is_candidate = error_bits > config.local_error_threshold

        # --- Influence propagation, with compensation detection -------
        passthrough = None
        if config.detect_compensation and op in ("+", "-") and len(shadows) == 2:
            if profile:
                self.stage_counters.compensation_checks += 1
            passthrough = self._compensation_passthrough(
                op, shadows, result_shadow, [a.value for a in args],
                result.value,
            )
        if passthrough is not None:
            record.compensations_detected += 1
            influences = shadows[passthrough].influences
        else:
            influences = EMPTY_INFLUENCES
            for shadow in shadows:
                if shadow.influences:
                    influences = influences | shadow.influences
            if is_candidate and config.track_influences:
                influences = influences | {record}

        # --- Symbolic expression + input characteristics ---------------
        if self.compiled:
            __, bindings = record.generalization.update_with_bindings_pooled(
                pool, node
            )
        else:
            # The reference engine's merge-only walk, on the
            # materialized node of the same interned trace.
            __, bindings = record.generalization.update_with_bindings(
                pool.node(node)
            )
        record.last_trace = node
        if profile:
            self.stage_counters.characteristic_updates += len(bindings)
        for variable, value in bindings.items():
            record.total_inputs.record(variable, value)
        if is_candidate and passthrough is None:
            for variable, value in bindings.items():
                record.problematic_inputs.record(variable, value)
            if record.example_problematic is None and bindings:
                record.example_problematic = dict(bindings)
            record.candidate_executions += 1

        result_shadow.influences = influences
        result.shadow = result_shadow

    # ------------------------------------------------------------------
    # The site-compiled fused pipeline (the compiled engine's per-op
    # hot path): one step per site, bound at program compile time to
    # the variant of _SITE_STEP_TEMPLATE its arity and flags select.
    # The sequential and the batched engine call the same steps.
    # ------------------------------------------------------------------

    def fused_site_callback(self, instr: isa.Instr, op: str, arity: int,
                            single: bool = False):
        """A per-site analysis step, or None for the generic path.

        The engines call this once per instruction at compile time;
        the returned step replaces the ``on_op``/``on_library``
        dispatch for that site.  It takes unboxed arguments —
        ``step(sa, sb, av, bv, value)`` or ``step(sa, av, value)``:
        the argument shadows (never None), the argument machine values
        and the machine result — and returns the result's shadow.  The
        step mirrors :meth:`_analyse_operation` decision-for-decision —
        the engine-parity suite enforces byte-identical reports — with
        the per-op costs paid once per site instead: the ⟦f⟧_R kernel
        and ⟦f⟧_F handler are pre-resolved, the record and its tables
        are bound after their lazy creation, the code is the variant
        generated for the site's (arity, flags), and traces stay
        integer idents end to end.
        """
        if not self.compiled or arity not in (1, 2):
            return None
        try:
            kernel = self.backend.handler(op)
        except KeyError:
            return None  # unknown to ⟦f⟧_R: the generic opaque path
        fn_double = DOUBLE_HANDLERS.get(op)
        if fn_double is None:
            return None
        config = self.config
        pool = self.pool
        guard = self._guard
        escalates = self._escalates
        make_step = _site_step_factory(
            arity, escalates=escalates,
            compensating=arity == 2 and config.detect_compensation
            and op in ("+", "-"),
            profile=self._profile, guarded=guard is not None,
        )
        return make_step(
            self, instr, op, site=id(instr), loc=getattr(instr, "loc", None),
            context=self.context, policy=self.policy, kernel=kernel,
            # Raw positional kernel (no argument tuple, no wrapper
            # frame) when the substrate serves this op through the
            # stock python dispatch; otherwise None (the wrapped one).
            kernel2=self.backend.positional_handler(op, arity),
            fn_double=fn_double,
            dd_kernel=_DD_GENERIC.get(op)
            if escalates and _DD_ARITY.get(op) == arity else None,
            # ⟦f⟧_F on rounded shadow args equals the machine's own
            # result when the rounded args are bit-identical to the
            # machine args — valid only when the site isn't
            # single-rounded and the machine executed the very same
            # handler.
            shortcut=not single
            and self.backend.double_handlers.get(op) is fn_double,
            is_sub=op == "-", threshold=config.local_error_threshold,
            track=config.track_influences, counters=self.stage_counters,
            tick=guard.tick if guard is not None else None,
            # Warm-path inlining of the pool's interning probe: the
            # table and memo objects survive begin_execution (clear(),
            # not reassignment).
            pool=pool, ops_table=pool._ops_table, new_op=pool.new_op,
            memo=pool.memo,
        )

    def fused_const_callback(self, instr: isa.Instr):
        """A per-site constant-shadow callback (see ``on_const``).

        The closure keeps the interned ident and value-determined
        shadow state in its own cells — refreshed per pool epoch — so
        the warm per-iteration path is two compares and an attribute
        store.
        """
        if not self.compiled:
            return None
        pool = self.pool
        site = id(instr)
        loc = getattr(instr, "loc", None)
        const_ident = pool.const_ident
        empty = EMPTY_INFLUENCES
        cached_epoch = -1
        cached_bits = None
        cached_value = None
        cached_shadow = None

        def run(box):
            nonlocal cached_epoch, cached_bits, cached_value, cached_shadow
            value = box.value
            if cached_epoch == pool.epoch and value == cached_value \
                    and value != 0.0:
                # Value equality is bit equality away from ±0.0 and NaN
                # (NaN fails the compare and rebuilds below).
                box.shadow = cached_shadow
                return
            bits = _double_bits(value)
            if cached_epoch == pool.epoch and bits == cached_bits:
                box.shadow = cached_shadow
                return
            leaf = const_ident(value, loc, site)
            if bits == cached_bits:
                old = cached_shadow
                shadow = ShadowValue(old.real, leaf, empty)
                shadow.rounded = old.rounded
                shadow.total_error = old.total_error
            else:
                shadow = ShadowValue(
                    self._leaf_real(value), leaf, empty
                )
            cached_epoch = pool.epoch
            cached_bits = bits
            cached_value = value
            cached_shadow = shadow
            box.shadow = shadow
        return run

    def fused_branch_callback(self, instr: isa.Branch):
        """A per-site branch-spot step (see ``on_branch``):
        ``step(left_shadow, right_shadow, taken)``, shadows never None."""
        if not self.compiled:
            return None
        try:
            nan_result = instr.pred == "ne"
            comparer = _BIG_PREDICATES[instr.pred]
        except KeyError:
            return None  # unknown predicate: generic path reports it
        escalates = self._escalates
        track = self.config.track_influences
        record = None

        def run(left, right, taken):
            nonlocal record
            if record is None:
                record = self._spot_record(instr, SPOT_BRANCH)
            if escalates:
                left_real, right_real = self._comparable(left, right)
            else:
                left_real = left.real
                right_real = right.real
            if left_real.is_nan() or right_real.is_nan():
                real_taken = nan_result
            else:
                real_taken = comparer(left_real, right_real)
            # record.record(...), inlined (per-iteration hot path).
            record.executions += 1
            if real_taken != taken:
                record.sum_error += 1.0
                if record.max_error < 1.0:
                    record.max_error = 1.0
                record.erroneous += 1
                if track:
                    record.influences |= left.influences | right.influences
        return run

    def _compensation_passthrough(
        self,
        op: str,
        shadows: List[ShadowValue],
        result_shadow: ShadowValue,
        arg_values: Sequence[float],
        result_value: float,
    ) -> Optional[int]:
        """Index of the passed-through argument of a compensating op.

        Paper Section 5.3: an addition/subtraction is compensating when
        (a) in the reals it returns one of its arguments, and (b) the
        output has *less* error than that passed-through argument —
        i.e. the other term corrected accumulated rounding error.

        Condition (b) goes first: it is cached error measurements and
        a float compare, and it fails outright when neither argument
        carries error (the output's error cannot be below zero), so
        the real-valued equality of (a) is rarely reached.  Pure
        reordering of a conjunction — the verdict is unchanged.  Takes
        the machine values raw (not boxed); the binary site step
        inlines the zero-error early-out and calls this for the rest.
        """
        if not result_shadow.real.is_finite():
            return None
        left, right = shadows
        error_left = self._total_error(left, arg_values[0])
        error_right = self._total_error(right, arg_values[1])
        if error_left <= 0.0 and error_right <= 0.0:
            return None
        out_error = self._total_error(result_shadow, result_value)
        if out_error < error_left and \
                self._returns_argument(op, 0, left, right, result_shadow):
            return 0
        if out_error < error_right and \
                self._returns_argument(op, 1, right, left, result_shadow):
            return 1
        return None

    def _total_error(self, shadow: ShadowValue, value: float) -> float:
        """Bits of error of ``value`` against its shadow, cached."""
        error = shadow.total_error
        if error is None:
            error = shadow.total_error = bits_of_error_fast(
                value, self._rounded(shadow)
            )
        return error

    def _returns_argument(
        self,
        op: str,
        index: int,
        shadow: ShadowValue,
        other: ShadowValue,
        result_shadow: ShadowValue,
    ) -> bool:
        """Condition (a) of the compensation test: whether the op
        returns its argument ``index`` (``shadow``) in the reals.

        Under adaptive tiers the equality escalates when the candidate
        and the result are closer than their guarded drift bands.
        """
        negate = index == 1 and op == "-"
        candidate = shadow.real
        if negate:
            candidate = candidate.neg()
        if not candidate.is_finite():
            return False
        real_result = result_shadow.real
        if not self._escalates:
            return candidate == real_result
        policy = self.policy
        verdict = None
        if not (shadow.drift == EXACT and result_shadow.drift == EXACT):
            verdict = policy.addition_passthrough(
                candidate, shadow.drift, other.real, other.drift
            )
            if verdict is False:
                return False
        if verdict is None and policy.comparison_unsafe(
            candidate, shadow.drift, real_result, result_shadow.drift
        ):
            policy.note_escalation("comparison")
            exact_candidate = self.escalator.exact_real(shadow)
            if negate:
                exact_candidate = exact_candidate.neg()
            return exact_candidate == self.escalator.exact_real(result_shadow)
        return candidate == real_result

    # ------------------------------------------------------------------
    # Spots
    # ------------------------------------------------------------------

    def on_branch(
        self, instr: isa.Branch, lhs: FloatBox, rhs: FloatBox, taken: bool
    ) -> None:
        record = self._spot_record(instr, SPOT_BRANCH)
        left = lhs.shadow or self._shadow(lhs)
        right = rhs.shadow or self._shadow(rhs)
        if self._escalates:
            left_real, right_real = self._comparable(left, right)
        else:
            left_real = left.real
            right_real = right.real
        real_taken = _real_predicate(instr.pred, left_real, right_real)
        diverged = real_taken != taken
        record.record(1.0 if diverged else 0.0, diverged)
        if diverged and self.config.track_influences:
            record.influences |= left.influences | right.influences

    def on_float_to_int(
        self, instr: isa.FloatToInt, box: FloatBox, result: int
    ) -> None:
        record = self._spot_record(instr, SPOT_CONVERSION)
        shadow = self._shadow(box)
        real = shadow.real
        if self.policy.integer_unsafe(real, shadow.drift):
            self.policy.note_escalation("integer")
            real = self.escalator.exact_real(shadow)
        # Certified safe above; truncation runs on the exact BigFloat
        # promotion of a pair.
        real = real.to_bigfloat()
        if real.is_nan():
            diverged = True
        elif real.is_inf():
            diverged = True
        else:
            real_int = int(arith.trunc(real).to_fraction())
            diverged = real_int != result
        record.record(1.0 if diverged else 0.0, diverged)
        if diverged and self.config.track_influences:
            record.influences |= shadow.influences

    def on_out(self, instr: isa.Out, box: FloatBox) -> None:
        record = self._spot_record(instr, SPOT_OUTPUT)
        shadow = self._shadow(box)
        error_bits = shadow.total_error
        if error_bits is None:
            error_bits = shadow.total_error = rounded_total_error(
                box.value, self._rounded(shadow)
            )
        erroneous = error_bits > self.config.output_error_threshold
        record.record(error_bits, erroneous)
        if erroneous and self.config.track_influences:
            record.influences |= shadow.influences

    # ------------------------------------------------------------------
    # Result queries
    # ------------------------------------------------------------------

    def tier_residency(self) -> Dict[str, int]:
        """Always-on tier residency and escalation accounting.

        Unlike the profile-gated stage counters, these aggregate at
        negligible cost, so serving stats and ``--profile`` output can
        show where shadow work actually ran: ops served by the hardware
        pair kernels, pair arguments promoted to the working tier,
        and operations re-executed at the full tier (the one rung
        every escalation takes).  ``memo_hits`` counts site-step
        ops, sequential or batched, replayed from the pool's per-ident
        memo, and ``tail_replays`` those of them that
        also skipped the anti-unification walk and the characteristic
        updates; like ``hw_kernel_ops``, the tier and escalation
        counters count *computed* shadows, which a memo hit does not
        recompute.
        """
        stats = self.policy.stats
        return {
            "hw_tier": int(self._escalates),
            "hw_kernel_ops": self.hw_kernel_ops,
            "hw_promotions": self.hw_promotions,
            "memo_hits": self.memo_hits,
            "tail_replays": self.tail_replays,
            "full_recomputed_nodes": self.escalator.recomputed_nodes,
            "escalations": stats.get("escalations", 0),
            "escalation_rounding": stats.get("rounding", 0),
            "escalation_comparison": stats.get("comparison", 0),
            "escalation_integer": stats.get("integer", 0),
        }

    def candidate_records(self) -> List[OpRecord]:
        """Operation sites flagged as candidate root causes, worst first."""
        flagged = [
            record for record in self.op_records.values()
            if record.candidate_executions > 0
        ]
        flagged.sort(key=lambda r: (-r.max_local_error, r.site_id))
        return flagged

    def erroneous_spots(self) -> List[SpotRecord]:
        """Spots that registered error or divergence, worst first."""
        spots = [
            record for record in self.spot_records.values() if record.erroneous > 0
        ]
        spots.sort(key=lambda r: (-r.max_error, -r.erroneous, r.site_id))
        return spots

    def reported_root_causes(self) -> List[OpRecord]:
        """Candidates whose influence reached at least one spot.

        The paper reports only sources of error that flow into spots
        (Section 4.2, footnote 7), avoiding false positives from
        erroneous intermediates that never matter.
        """
        reached = set()
        for spot in self.erroneous_spots():
            reached |= spot.influences
        result = [r for r in self.candidate_records() if r in reached]
        return result

    def max_output_error(self) -> float:
        """Worst bits-of-error observed at any output spot."""
        outputs = [
            r for r in self.spot_records.values() if r.kind == SPOT_OUTPUT
        ]
        return max((r.max_error for r in outputs), default=0.0)


def _replayable(expression, bindings) -> object:
    """What a site step stores beside a memo entry after a fast walk
    against ``expression``: the expression itself, so later hits of
    the ident replay the tail while it is unchanged, or None when a
    binding is NaN (a summary's ``nan_count`` is cumulative, so those
    bindings are recorded again at every execution)."""
    for value in bindings.values():
        if value != value:
            return None
    return expression


#: The compiled engine's per-op analysis step, written once for both
#: arities (see :meth:`HerbgrindAnalysis.fused_site_callback`) and
#: specialized per variant by :func:`_render_site_step`.  Lines between
#: ``@if COND``, ``@else`` and ``@end``, and a line ending in
#: ``  @if COND``, are kept or dropped by COND over the flags
#: ``binary``, ``escalates``, ``compensating``, ``profile`` and
#: ``guarded``.  ``{PATTERN}`` containing ``$`` becomes PATTERN once per
#: argument, ``$`` its index, joined by ``", "`` or by the text after a
#: ``|``; a run of other lines containing ``$`` repeats once per
#: argument.  Arguments are numbered (shadows ``s0``, values ``v0``,
#: idents ``t0``, rounded shadows ``r0``, ...).  Nothing a request
#: supplies enters the text: every per-site value is an argument of
#: ``make_step``.
_SITE_STEP_TEMPLATE = '''\
def make_step(self, instr, op, *, site, loc, context, policy, kernel,
              kernel2, fn_double, dd_kernel, shortcut, is_sub, threshold,
              track, counters, tick, pool, ops_table, new_op, memo):
    propagate = policy.propagate  @if escalates
    promote = self._promote_shadow  @if escalates
    rounded_of = self._rounded
    raw = kernel2 is not None
    record = generalization = fast_walk = bail_walk = None
    total_record = prob_record = None

    def step({s$}, {v$}, value):
        nonlocal record, generalization, fast_walk, bail_walk
        nonlocal total_record, prob_record
        tick()  @if guarded
        t$ = s$.trace
        if record is None:
            # Bound at the first execution, so site ids follow the
            # reference engine's numbering.
            record = self._op_record(instr, op)
            generalization = record.generalization
            fast_walk = generalization._fast_update_pooled
            bail_walk = generalization.bail_update_pooled
            total_record = record.total_inputs.record_many
            prob_record = record.problematic_inputs.record_many
        # --- memo probe -----------------------------------------------
        # An ident this site already analysed replays its shadow, local
        # error and compensation verdict (pure functions of the ident)
        # and skips straight to the per-execution stages.
        node_key = (site, {t$})
        node = ops_table.get(node_key)
        entry = memo[node] if node is not None else None
        if entry is not None:
            shadow, error_bits, passthrough, walked = entry
            self.memo_hits += 1
            if walked is generalization.expression:
                # --- tail replay --------------------------------------
                # The ident's last walk ran against this very expression
                # object on the fast path with no NaN binding: the walk
                # would return the same bindings, and re-adding them to
                # the input summaries changes nothing a report reads.
                # Only the per-execution counts move.
                record.executions += 1
                record.sum_local_error += error_bits
                if error_bits > record.max_local_error:
                    record.max_local_error = error_bits
                if passthrough is not None:  @if compensating
                    record.compensations_detected += 1  @if compensating
                elif error_bits > threshold:  @if compensating
                if error_bits > threshold:  @if not compensating
                    record.candidate_executions += 1
                record.last_trace = node
                self.tail_replays += 1
                counters.fused_ops += 1  @if profile
                return shadow
            is_candidate = error_bits > threshold
        else:
            # --- kernel stage: the hardware pair, then BigFloat -------
@if escalates
            real = None
            exact_op = False
            x$ = s$.real
            if {type(x$) is DoubleDouble| and } and dd_kernel is not None:
                dd = dd_kernel({x$.hi, x$.lo})
                if dd is not None:
                    real = DoubleDouble(dd[0], dd[1])
                    exact_op = dd[2]
                    self.hw_kernel_ops += 1
            if real is None and ({type(x$) is DoubleDouble| or }):
                # An uncovered op or a kernel bail-out: the BigFloat
                # kernel takes over, on arguments of one type.
                promote(s$)
                self.hw_promotions += 1
            if real is not None:
                pass
            elif raw:
@else
            if raw:
@end
                real = kernel2({s$.real}, context)
            else:
                real = kernel(({s$.real},), context)
            # --- trace stage ------------------------------------------
            if node is None:
                node = new_op(node_key, op, ({t$},), value, loc)
            # --- drift stage ------------------------------------------
@if not escalates
            drift = EXACT
@else
@if binary
            if is_sub and t0 == t1:
                # x - x over the same shadowed value is exactly zero at
                # every tier (see _analyse_operation).
                drift = EXACT
            else:
                drift = propagate(
                    op, (s0.real, s1.real), (s0.drift, s1.drift), real,
                    exact_op,
                )
@else
            drift = propagate(op, (s0.real,), (s0.drift,), real, exact_op)
@end
@end
            shadow = ShadowValue(real, node, EMPTY_INFLUENCES, drift)
            # --- error stage ------------------------------------------
            r$ = s$.rounded
            if r$ is None:
                r$ = rounded_of(s$)
            exact_rounded = rounded_of(shadow)  @if escalates
            exact_rounded = real.to_float()  @if not escalates
            shadow.rounded = exact_rounded  @if not escalates
            if shortcut and {r$ == v$| and } and {r$ != 0.0| and }:
                float_result = value
            else:
                float_result = fn_double({r$})
            if float_result == exact_rounded:
                error_bits = 0.0
            else:
                error_bits = bits_of_error_fast(float_result, exact_rounded)
            is_candidate = error_bits > threshold
            # --- compensation stage -----------------------------------
            passthrough = None
@if compensating
            if real.is_finite():
                # The compensation test's early-out, inlined: condition
                # (b) of _compensation_passthrough — the output must
                # have *less* error than the passed-through argument —
                # almost always fails with both argument errors at zero
                # (out >= 0 = arg both ways), which these cached errors
                # settle; only the rest takes the method.
                e$ = s$.total_error
                if e$ is None:
                    e$ = bits_of_error_fast(v$, r$) if v$ != r$ else 0.0
                    s$.total_error = e$
                if e0 > 0.0 or e1 > 0.0:
                    passthrough = self._compensation_passthrough(
                        op, (s0, s1), shadow, (v0, v1), value
                    )
@end
            # --- influence stage --------------------------------------
@if binary
            i0 = s0.influences
            i1 = s1.influences
            if i0:
                influences = (i0 | i1) if i1 else i0
            elif i1:
                influences = i1
            else:
                influences = EMPTY_INFLUENCES
@else
            influences = s0.influences
@end
            if is_candidate and track:
                influences = influences | {record}
@if compensating
            if passthrough is not None:
                # A compensating op passes on the influences of the
                # argument it returns, and only those.
                influences = (s0 if passthrough == 0 else s1).influences
@end
            shadow.influences = influences
        # record.record_execution(error_bits), inlined.
        record.executions += 1
        record.sum_local_error += error_bits
        if error_bits > record.max_local_error:
            record.max_local_error = error_bits
        if passthrough is not None:  @if compensating
            record.compensations_detected += 1  @if compensating
        # --- walk stage -----------------------------------------------
        walked = generalization.expression
        bindings = fast_walk(pool, node) if walked is not None else None
        if bindings is None:
            __, bindings = bail_walk(pool, node)
            walked = None
        else:
            walked = _replayable(walked, bindings)
        record.last_trace = node
        # --- characteristics stage ------------------------------------
        total_record(bindings)
        if is_candidate and passthrough is None:  @if compensating
        if is_candidate:  @if not compensating
            prob_record(bindings)
            if record.example_problematic is None and bindings:
                record.example_problematic = dict(bindings)
            record.candidate_executions += 1
@if profile
        # --- counters stage -------------------------------------------
        counters.fused_ops += 1
        counters.characteristic_updates += len(bindings)
        if entry is None:
            counters.kernel_evals += 1
            if error_bits == 0.0:
                counters.error_fast += 1
            else:
                counters.error_exact += 1
            counters.compensation_checks += 1  @if compensating
            if type(real) is not DoubleDouble:  @if escalates
                counters.working_tier_ops += 1  @if escalates
@end
        # --- memo store -----------------------------------------------
        memo[node] = (shadow, error_bits, passthrough, walked)
        return shadow
    return step
'''

#: The flags that select a site-step variant, besides its arity.
_SITE_STEP_FLAGS = ("escalates", "compensating", "profile", "guarded")
_SITE_STEP_FLAG_NAMES = frozenset(_SITE_STEP_FLAGS)

#: ``make_step`` factories by (arity, *flags), each generated on first
#: use, once per process, and bound per site (never generated per site).
_SITE_STEP_FACTORIES: Dict[tuple, Callable] = {}

_PER_ARGUMENT = re.compile(r"\{([^{}|]*\$[^{}|]*)(?:\|([^{}]*))?\}")


def _site_step_factory(arity: int, **flags: bool) -> Callable:
    """The ``make_step`` factory of one site-step variant; the code is
    compiled under its own filename, with its source in
    :mod:`linecache` for tracebacks and profilers.  Every flag of
    :data:`_SITE_STEP_FLAGS` must be named, and no other: a stale or
    misspelled flag is a :class:`TypeError`, never a variant with
    that flag silently off."""
    if flags.keys() != _SITE_STEP_FLAG_NAMES:
        unknown = sorted(flags.keys() - _SITE_STEP_FLAG_NAMES)
        missing = sorted(_SITE_STEP_FLAG_NAMES - flags.keys())
        raise TypeError(
            f"site-step flags: unknown {unknown}, missing {missing}"
        )
    key = (arity,) + tuple(bool(flags[name]) for name in _SITE_STEP_FLAGS)
    factory = _SITE_STEP_FACTORIES.get(key)
    if factory is None:  # threads racing here only generate it twice
        flags = dict(zip(_SITE_STEP_FLAGS, key[1:]), binary=arity == 2)
        source = _render_site_step(arity, flags)
        filename = "<site-step arity={} {}>".format(
            arity, " ".join(name for name in _SITE_STEP_FLAGS if flags[name])
        )
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
        # This module's globals, so the steps resolve names as code
        # written here would; ``make_step`` lands in ``namespace``.
        namespace: Dict[str, Callable] = {}
        exec(compile(source, filename, "exec"), globals(), namespace)  # noqa: S102
        factory = _SITE_STEP_FACTORIES[key] = namespace["make_step"]
    return factory


def _render_site_step(arity: int, flags: Dict[str, bool]) -> str:
    """:data:`_SITE_STEP_TEMPLATE`'s text for one variant."""

    def joined(match) -> str:
        separator = ", " if match.group(2) is None else match.group(2)
        return separator.join(
            match.group(1).replace("$", str(i)) for i in range(arity)
        )

    lines: List[str] = []
    run: List[str] = []  # the current run of lines still containing "$"
    # Open @if blocks: (enclosing block active, a branch taken).
    blocks: List[Tuple[bool, bool]] = []
    active = True
    # The template ends in a newline: its last, empty line ends any run.
    for line in _SITE_STEP_TEMPLATE.split("\n"):
        directive = line.strip()
        if not directive.startswith("@"):
            line, __, condition = line.partition("  @if ")
            if not active or condition and not eval(condition, {}, flags):
                continue
            line = _PER_ARGUMENT.sub(joined, line)
            if "$" in line:
                run.append(line)
                continue
        lines.extend(
            text.replace("$", str(i)) for i in range(arity) for text in run
        )
        run.clear()
        if directive.startswith("@if "):
            taken = active and bool(eval(directive[4:], {}, flags))
            blocks.append((active, taken))
            active = taken
        elif directive == "@else":
            outer, taken = blocks[-1]
            active = outer and not taken
        elif directive == "@end":
            active = blocks.pop()[0]
        elif directive.startswith("@"):
            raise ValueError(f"unknown template directive {directive!r}")
        else:
            lines.append(line)
    return "\n".join(lines)


#: Branch predicates over (non-NaN) shadow reals; BigFloat comparisons
#: implement the same ordering the reference helper spells out.
_BIG_PREDICATES = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
}


def _real_predicate(pred: str, lhs: BigFloat, rhs: BigFloat) -> bool:
    """Branch predicate under the real semantics (NaN-aware)."""
    if lhs.is_nan() or rhs.is_nan():
        return pred == "ne"
    if pred == "lt":
        return lhs < rhs
    if pred == "le":
        return lhs <= rhs
    if pred == "gt":
        return lhs > rhs
    if pred == "ge":
        return lhs >= rhs
    if pred == "eq":
        return lhs == rhs
    if pred == "ne":
        return lhs != rhs
    raise ValueError(f"unknown predicate {pred!r}")


def analyze_program(
    program: isa.Program,
    input_sets: Sequence[Sequence[float]],
    config: Optional[AnalysisConfig] = None,
    wrap_libraries: bool = True,
    libm: Optional[Dict[str, isa.Function]] = None,
    max_steps: int = 50_000_000,
    profile: bool = False,
) -> Tuple[HerbgrindAnalysis, List[List[float]]]:
    """Run the analysis over a program on several input sets.

    Returns the analysis (records aggregated across runs, as Herbgrind
    aggregates across a whole execution) plus each run's outputs.

    ``config``'s execution plan selects the engine: "compiled" (the
    default) runs every fast layer, lockstep batching too unless
    ``config.batched`` is off; "reference" runs none.  ``profile``
    populates :attr:`HerbgrindAnalysis.stage_counters`.  None of these
    changes the report.
    """
    analysis = HerbgrindAnalysis(config, profile=profile)
    outputs: List[List[float]] = []
    if analysis.compiled:
        from repro.machine.compiled import CompiledProgram

        if _faults.active():
            # Chaos seam: a compiled-engine failure before execution.
            # Unreachable from the ladder's reference rung.
            _faults.trip("engine.compiled.raise", EngineFault)
        if analysis._batched and len(input_sets) > 1:
            from repro.machine.batched import BatchedProgram

            lockstep = BatchedProgram.compile(
                program,
                analysis,
                wrap_libraries=wrap_libraries,
                libm=libm,
                max_steps=max_steps,
                double_handlers=analysis.backend.double_handlers,
            )
            if lockstep is not None:
                if _faults.active():
                    # Chaos seam: a batched-layer failure.  The
                    # ladder's sequential rung (config.batched off)
                    # never reaches it.
                    _faults.trip("engine.batched.raise", EngineFault)
                try:
                    batch_outputs = lockstep.run_points(input_sets)
                except MachineError:
                    # A lane failed after aggregation began; discard
                    # the dirty analysis and reproduce the sequential
                    # behaviour (partial aggregation, then the raise)
                    # from scratch.
                    batch_outputs = None
                    analysis = HerbgrindAnalysis(config, profile=profile)
                if batch_outputs is not None:
                    # Sequential execution bumps ``runs`` once per
                    # point; batching bumps it once per uniform
                    # sub-batch.  Pin the observable count.
                    analysis.runs = len(input_sets)
                    return analysis, batch_outputs
        compiled = CompiledProgram(
            program,
            tracer=analysis,
            wrap_libraries=wrap_libraries,
            libm=libm,
            max_steps=max_steps,
            double_handlers=analysis.backend.double_handlers,
        )
        for inputs in input_sets:
            outputs.append(compiled.run(inputs))
        return analysis, outputs
    interpreter = Interpreter(
        program,
        tracer=analysis,
        wrap_libraries=wrap_libraries,
        libm=libm,
        max_steps=max_steps,
        double_handlers=analysis.backend.double_handlers,
    )
    for inputs in input_sets:
        outputs.append(interpreter.run(inputs))
    return analysis, outputs
