"""Tiered precision policies for the shadow-real execution.

The paper runs every shadow operation at a fixed 1000-bit precision
(Section 5.1, footnote 10).  Most operations do not need anywhere near
that much to decide the questions the analysis actually asks — whether
a value's correctly rounded double changes, whether a real-valued
branch diverges, whether a compensating addition returned its argument
— so a :class:`PrecisionPolicy` lets the analysis run at a cheap
*working* tier and escalate to the *full* tier only when a decision is
precision-sensitive.

Two policies ship:

* :class:`FixedPrecisionPolicy` (``"fixed"``) — the paper's behaviour:
  one tier, no escalation, no bookkeeping.
* :class:`AdaptivePrecisionPolicy` (``"adaptive"``) — shadow values are
  computed as double-double pairs (:mod:`repro.bigfloat.doubledouble`)
  where the pair kernels cover the operation, and at
  ``working_precision`` (144 bits by default) otherwise, and carry a
  *drift* bound: the accumulated error in ulps of the working tier,
  maintained by running error analysis (rounding adds one ulp;
  cancellation and ill-conditioned operations amplify by their
  condition exponent).  A decision escalates when its outcome could
  change within the drift band plus :data:`GUARD_BITS` of slack:

  - **rounding** (:meth:`rounding_unsafe`) — the value lies within the
    guarded band of a round-to-double tie, so ``to_float`` of the
    working value cannot be certified;
  - **comparison** (:meth:`comparison_unsafe`) — two reals are equal or
    closer than their combined guarded bands, so predicate and
    compensation-equality decisions could flip;
  - **integer boundary** (:meth:`integer_unsafe`) — the value lies
    within the guarded band of an integer, so truncation could flip.

  Catastrophic cancellation does not get a separate trigger: it enters
  the drift bound directly (the ``msb(arg) - msb(result)`` term of
  :meth:`propagate`), widening the band until the checks above fire.
  Likewise the "local error near the threshold Tℓ" trigger is subsumed:
  local error is computed from escalation-checked doubles, so the
  threshold comparison is already exact.

Escalation itself — recomputing a value exactly at the full tier — is
the analysis layer's job (:class:`repro.core.shadow.ShadowEscalator`
re-executes the concrete trace); the policy only decides *when*.

``policy.context`` is the context shadow operations run under: the
full context under the fixed policy, the working context under the
adaptive one.  Escalation runs at ``policy.full_context``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.bigfloat import arith
from repro.bigfloat.bigfloat import BigFloat, K_FINITE as _K_FINITE
from repro.bigfloat.context import Context
from repro.bigfloat.doubledouble import (
    DD_REL_ERR_LOG2,
    DoubleDouble,
    dd_sub,
    fits_precision,
)

#: Drift of a value that is exactly representable at the working tier
#: (program inputs, constants, results of provably exact operations).
#: Drift is measured linearly, in ulps of the working tier, so running
#: error analysis is pure float adds/ldexps on the hot path.
EXACT = 0.0

#: Guard band, in bits, around every adaptive-tier decision: a decision
#: escalates when its margin is within the accumulated drift bound plus
#: this many bits.  The working precision must clear a 53-bit target by
#: this band plus 8 bits (checked by the policy and by AnalysisConfig).
GUARD_BITS = 16

#: Drift of a value the working tier cannot bound at all (a zero or
#: special value produced from inexact operands, runaway accumulation).
#: Every decision that touches an UNTRUSTED value escalates.
UNTRUSTED = math.inf

#: Operations whose relative condition number is bounded by a small
#: constant (|κ| ≲ 2): one extra bit of amplification covers them.
_WELL_CONDITIONED = frozenset(
    {"*", "/", "sqrt", "cbrt", "hypot", "atan", "atan2", "asinh", "tanh",
     "log1p"}
)

#: exp-family: relative condition number is |x| (|x·ln 2| for exp2).
_EXP_FAMILY = frozenset({"exp", "exp2", "expm1", "sinh", "cosh"})

#: Periodic functions: condition blows up near the zeros/poles, which
#: the msb(arg) - msb(result) cancellation term captures (plus the
#: |result| term for tan near its poles).
_TRIG_FAMILY = frozenset({"sin", "cos", "tan"})

#: log-family: condition is 1/|ln x|, large only when the result is
#: small (x near 1), captured by -msb(result).
_LOG_FAMILY = frozenset({"log", "log2", "log10"})

#: Functions with an algebraic singularity at |x| = 1: condition grows
#: like a power of 1/(1 - |x|).
_UNIT_SINGULAR = frozenset({"asin", "acos", "atanh"})


class PrecisionPolicy:
    """Fixed-tier base policy: one precision, nothing ever escalates.

    Subclasses override the three ``*_unsafe`` checks and
    :meth:`propagate` to implement adaptive tiers.  The base class is
    deliberately a complete, working policy — it is the paper's fixed
    1000-bit behaviour and the default.
    """

    name = "fixed"

    #: Whether this policy ever requests escalation (lets the shadow
    #: escalator skip all bookkeeping for fixed runs).
    escalates = False

    def __init__(self, full_precision: int) -> None:
        # Round to nearest, ties to even: the double-double kernels'
        # IEEE tie and signed-zero behaviour assumes it.
        self.full_context = Context(precision=full_precision)
        #: The context shadow operations run under (the full tier here;
        #: the adaptive policy runs at its working tier).
        self.context = self.full_context
        #: Escalation counters by reason, plus totals (adaptive only).
        self.stats: Dict[str, int] = {
            "escalations": 0,
            "rounding": 0,
            "comparison": 0,
            "integer": 0,
        }

    # ------------------------------------------------------------------
    # Escalation decisions (fixed tier: everything is already exact)
    # ------------------------------------------------------------------

    def note_escalation(self, reason: str) -> None:
        self.stats["escalations"] += 1
        self.stats[reason] = self.stats.get(reason, 0) + 1

    def propagate(self, op: str, args: Sequence[BigFloat],
                  drifts: Sequence[float], result: BigFloat) -> float:
        """Drift bound of ``result = op(args)`` given the args' drifts."""
        return EXACT

    def rounding_unsafe(self, value: BigFloat, drift: float,
                        mant_bits: int = 53, emin: int = -1022) -> bool:
        """Could rounding ``value`` to hardware differ at the full tier?"""
        return False

    def comparison_unsafe(self, a: BigFloat, drift_a: float,
                          b: BigFloat, drift_b: float) -> bool:
        """Could comparing ``a`` and ``b`` flip at the full tier?"""
        return False

    def addition_passthrough(self, candidate: BigFloat, drift_c: float,
                             other: BigFloat,
                             drift_o: float) -> Optional[bool]:
        """Full-tier compensation-equality verdict, if cheaply certain."""
        return None

    def integer_unsafe(self, value: BigFloat, drift: float) -> bool:
        """Could truncating ``value`` to an integer flip at the full tier?"""
        return False


class FixedPrecisionPolicy(PrecisionPolicy):
    """The paper's behaviour: one fixed shadow precision."""

    name = "fixed"


class AdaptivePrecisionPolicy(PrecisionPolicy):
    """Low working tier with guarded escalation to the full tier."""

    name = "adaptive"
    escalates = True

    def __init__(self, full_precision: int,
                 working_precision: int = 144) -> None:
        if working_precision < 53 + GUARD_BITS + 8:
            raise ValueError(
                f"working precision {working_precision} too small for "
                f"{GUARD_BITS} guard bits over a 53-bit target"
            )
        self.working_context = Context(
            precision=min(working_precision, full_precision),
        )
        #: Beyond this many ulps of drift the working value cannot even
        #: certify the sign/kind of the true value: untrusted outright.
        self._ulps_limit = math.ldexp(
            1.0, self.working_context.precision - 4
        )
        #: Per-operation drift charge of the hardware (double-double)
        #: tier, in working-tier ulps: every kernel's relative error is
        #: at most 2**DD_REL_ERR_LOG2, and one working ulp is 2**(1-p)
        #: relative, so the conversion is a pure exponent shift.
        self._hw_op_ulps = math.ldexp(
            1.0, self.working_context.precision + DD_REL_ERR_LOG2
        )
        super().__init__(full_precision)
        self.context = self.working_context

    # ------------------------------------------------------------------
    # Running error analysis
    # ------------------------------------------------------------------

    def _amplification(self, op: str, index: int, args: Sequence[BigFloat],
                       result: BigFloat) -> Optional[int]:
        """Condition exponent: bits by which ``op`` amplifies the ulp
        error of argument ``index`` into ulps of the result (None when
        unbounded)."""
        arg = args[index]
        out_msb = result.msb_exponent
        arg_msb = arg.msb_exponent
        if op in ("+", "-", "fdim", "fma"):
            # Absolute errors add; converting arg-ulps to result-ulps
            # shifts by exactly the exponent drop (the ulp ratio) — this
            # is the catastrophic-cancellation amplification.
            if op == "fma" and index < 2:
                product_msb = args[0].msb_exponent + args[1].msb_exponent
                return product_msb - out_msb + 1
            return arg_msb - out_msb
        if op in ("fmin", "fmax"):
            return 0
        if op in _EXP_FAMILY:
            return max(0, arg_msb) + 2
        if op in _LOG_FAMILY:
            return max(0, -out_msb) + 2
        if op in _TRIG_FAMILY:
            return max(0, arg_msb - out_msb) + max(0, out_msb) + 2
        if op in _UNIT_SINGULAR:
            gap = arith.sub(BigFloat(arg.sign, 1, 0), arg,
                            self.working_context)
            if gap.is_zero():
                return None
            return max(0, -gap.msb_exponent) + 2
        if op == "acosh":
            gap = arith.sub(arg, BigFloat(0, 1, 0), self.working_context)
            if gap.is_zero():
                return None
            return max(0, -gap.msb_exponent) + 2
        if op == "pow":
            # rel error amplified by |y| (for x) and |y ln x| (for y).
            y = args[1]
            y_bits = max(0, y.msb_exponent) if not y.is_zero() else 0
            if index == 0:
                return y_bits + 2
            x = args[0]
            lnx_bits = 0
            if not x.is_zero():
                lnx_bits = max(0, abs(x.msb_exponent).bit_length())
            return y_bits + lnx_bits + 2
        if op in _WELL_CONDITIONED:
            return 1
        # Unknown operation: a generous constant; anything genuinely
        # ill-conditioned also shrinks/grows msb and is caught above.
        return 4

    def propagate(self, op: str, args: Sequence[BigFloat],
                  drifts: Sequence[float], result: BigFloat) -> float:
        if type(result) is DoubleDouble:
            # Hardware-tier results normally arrive via propagate_hw
            # (the kernel knows whether it was error-free); reaching
            # this generic entry point means the caller lost that flag,
            # so charge the op as rounded.
            return self.propagate_hw(op, args, drifts, result, False)
        if (op == "+" or op == "-" or op == "*" or op == "/") \
                and result.kind == _K_FINITE and result.man != 0:
            # Inlined fast path for the four binary arithmetic ops —
            # the bulk of every workload; equivalent to the generic
            # code below.
            d0, d1 = drifts
            if d0 == EXACT and d1 == EXACT:
                return EXACT if self._is_exact_operation(op, args) \
                    else 1.0
            if d0 < self._ulps_limit and d1 < self._ulps_limit:
                additive = op == "+" or op == "-"
                if additive:
                    out_msb = result.exp + result.man.bit_length() - 1
                total = 1.0
                try:
                    for drift, arg in ((d0, args[0]), (d1, args[1])):
                        if drift == EXACT:
                            continue
                        if arg.kind != _K_FINITE or arg.man == 0:
                            return UNTRUSTED
                        if additive:
                            amp = arg.exp + arg.man.bit_length() - 1 \
                                - out_msb
                        else:
                            amp = 1
                        total += math.ldexp(drift, amp)
                except OverflowError:
                    return UNTRUSTED
                return total if total < self._ulps_limit else UNTRUSTED
            return UNTRUSTED
        exact_in = all(d == EXACT for d in drifts)
        if op in ("neg", "fabs"):
            return drifts[0]
        if op == "copysign":
            # The magnitude's drift passes through, but only when the
            # sign operand's sign is certain: a drifted sign source
            # whose band reaches zero could flip the result wholesale.
            sign_drift = drifts[1]
            if sign_drift == EXACT:
                return drifts[0]
            sign = args[1]
            if (
                sign.is_finite() and not sign.is_zero()
                and sign_drift < self._ulps_limit
                and math.frexp(sign_drift)[1] + GUARD_BITS
                < self.working_context.precision - 1
            ):
                return drifts[0]
            return UNTRUSTED
        if op in ("trunc", "floor", "ceil", "round", "nearbyint"):
            if drifts[0] == EXACT:
                return EXACT
            if self.integer_unsafe(args[0], drifts[0]):
                return UNTRUSTED
            return drifts[0]
        if op in ("fmod", "remainder"):
            # The implicit quotient is a discrete decision: safe only
            # when the operands are exact.
            return 1.0 if exact_in else UNTRUSTED
        if exact_in and result.is_finite() and not result.is_zero():
            # Exact operands: only this operation's own rounding counts.
            if self._is_exact_operation(op, args):
                return EXACT
            return 1.0
        if not result.is_finite() or result.is_zero():
            if exact_in:
                return EXACT
            if result.is_zero() and op == "*" and any(
                a.is_zero() and d == EXACT for a, d in zip(args, drifts)
            ):
                return EXACT  # an exact zero factor forces a true zero
            if result.is_zero() and op == "/" and args[0].is_zero() \
                    and drifts[0] == EXACT:
                return EXACT
            # A zero/NaN/inf summoned from inexact operands: the working
            # tier cannot bound how far the true value is.
            return UNTRUSTED
        # Error in ulps of the result: faithful rounding contributes at
        # most one ulp; each inexact argument contributes its own band
        # scaled by the operation's condition exponent.
        total = 1.0
        for index, (arg, drift) in enumerate(zip(args, drifts)):
            if drift == EXACT:
                continue
            if drift >= self._ulps_limit:
                return UNTRUSTED
            if arg.is_zero() or not arg.is_finite():
                return UNTRUSTED
            amp = self._amplification(op, index, args, result)
            if amp is None:
                return UNTRUSTED
            try:
                total += math.ldexp(drift, amp)
            except OverflowError:
                return UNTRUSTED
        if total >= self._ulps_limit:
            return UNTRUSTED
        return total

    def _is_exact_operation(self, op: str,
                            args: Sequence[BigFloat]) -> bool:
        """Provably unrounded at the working tier (exact args assumed).

        Canonical mantissas are odd, so ``exp`` is the position of the
        lowest set bit; the exact result's width is computable without
        performing the operation.
        """
        precision = self.working_context.precision
        if op in ("fmin", "fmax"):
            return True
        if op not in ("+", "-", "*"):
            # Only the closed arithmetic ops above have a decidable
            # exactness test; anything else (acos(0) = pi/2!) must be
            # treated as rounded.
            return False
        finite = [a for a in args if a.is_finite() and not a.is_zero()]
        if len(finite) != len(args):
            return True  # zeros/specials: +,-,* are exact on them
        if op in ("+", "-"):
            a, b = finite
            width = max(a.msb_exponent, b.msb_exponent) \
                - min(a.exp, b.exp) + 2
            return width <= precision
        a, b = finite
        return a.man.bit_length() + b.man.bit_length() <= precision

    # ------------------------------------------------------------------
    # Hardware (double-double) tier
    # ------------------------------------------------------------------

    def propagate_hw(self, op: str, args: Sequence[DoubleDouble],
                     drifts: Sequence[float], result: DoubleDouble,
                     exact_op: bool) -> float:
        """Drift bound for a hardware-tier result.

        ``exact_op`` is the kernel's proven error-free flag; when set,
        the operation itself contributes nothing and only the amplified
        argument drifts remain.  Drift stays in working-tier ulps so
        hardware and working values share one band algebra.
        """
        if op == "neg" or op == "fabs":
            return drifts[0]
        if op not in ("+", "-", "*", "/", "sqrt", "fma"):
            # No proven bound for anything else at this tier.
            return UNTRUSTED
        if result.hi == 0.0:
            if exact_op and all(d == EXACT for d in drifts):
                return EXACT
            if op == "*" and any(
                a.is_zero() and d == EXACT for a, d in zip(args, drifts)
            ):
                return EXACT  # an exact zero factor forces a true zero
            if op == "/" and args[0].is_zero() and drifts[0] == EXACT:
                return EXACT
            return UNTRUSTED
        all_exact = True
        for d in drifts:
            if d != EXACT:
                all_exact = False
                break
        if all_exact:
            if exact_op:
                if fits_precision(result.hi, result.lo,
                                  self.full_context.precision):
                    return EXACT
                # Exactly computed, but wider than the full tier: the
                # oracle would round where we did not.  The gap is at
                # most half a full-tier ulp — under half a working ulp.
                return 1.0
            if op != "fma":
                # Fresh rounding only; the per-op charge is far below
                # the trust limit by construction.
                return self._hw_op_ulps
        limit = self._ulps_limit
        total = EXACT if exact_op else self._hw_op_ulps
        if op == "*" or op == "/" or op == "sqrt":
            # Relative amplification is a fixed factor of two; no
            # magnitudes needed (exact doubling, overflow saturates).
            for arg, drift in zip(args, drifts):
                if drift == EXACT:
                    continue
                if drift >= limit or arg.is_zero():
                    return UNTRUSTED
                total += drift + drift
            return total if total < limit else UNTRUSTED
        out_msb = result.msb_exponent
        if op == "fma":
            if args[0].is_zero() or args[1].is_zero():
                product_msb = None
            else:
                product_msb = (args[0].msb_exponent
                               + args[1].msb_exponent)
            if not exact_op and product_msb is not None:
                # The product stage's rounding is committed before the
                # addition and amplified by any cancellation in it.
                try:
                    total += math.ldexp(
                        self._hw_op_ulps,
                        max(0, product_msb - out_msb + 1),
                    )
                except OverflowError:
                    return UNTRUSTED
        for index, (arg, drift) in enumerate(zip(args, drifts)):
            if drift == EXACT:
                continue
            if drift >= self._ulps_limit:
                return UNTRUSTED
            if arg.is_zero():
                return UNTRUSTED
            if op == "+" or op == "-":
                amp = arg.msb_exponent - out_msb
            elif op == "fma":
                if index < 2:
                    if product_msb is None:
                        return UNTRUSTED
                    amp = product_msb - out_msb + 1
                else:
                    amp = arg.msb_exponent - out_msb
            else:
                amp = 1
            try:
                total += math.ldexp(drift, amp)
            except OverflowError:
                return UNTRUSTED
        if total >= self._ulps_limit:
            return UNTRUSTED
        return total

    def _hw_rounding_unsafe(self, value: DoubleDouble, drift: float,
                            mant_bits: int, emin: int) -> bool:
        if drift == EXACT:
            return False
        if drift >= self._ulps_limit:
            return True
        if value.hi == 0.0:
            return True  # a drifted zero is never certifiable
        if mant_bits != 53 or emin != -1022:
            # Narrower targets put the ties on a lattice the hardware
            # pair does not expose cheaply; decide exactly instead.
            return self.rounding_unsafe(value.to_bigfloat(), drift,
                                        mant_bits, emin)
        mantissa, exponent = math.frexp(value.hi)
        if exponent - 1 < emin:
            return True  # subnormal target lattice: always confirm
        # hi sits on the binary64 lattice, so the nearest round-to-
        # double ties sit half an ulp above and below it (a quarter ulp
        # below at a binade edge), and lo is the value's exact offset.
        half_ulp = math.ldexp(1.0, exponent - 54)
        if value.hi < 0.0:
            offset = -value.lo
        else:
            offset = value.lo
        up_gap = half_ulp - offset
        down_gap = offset + (
            math.ldexp(1.0, exponent - 55) if abs(mantissa) == 0.5
            else half_ulp
        )
        distance = up_gap if up_gap < down_gap else down_gap
        if distance <= 0.0:
            return True
        # value.msb_exponent, reusing the frexp above: hi overshoots
        # the value's binade only when it rounded up to a power of two.
        msb = exponent - 1
        if value.lo != 0.0 and abs(mantissa) == 0.5 and \
                (value.hi > 0.0) == (value.lo < 0.0):
            msb = exponent - 2
        band = (msb - self.working_context.precision + 1
                + math.frexp(drift)[1] + GUARD_BITS)
        try:
            # One extra doubling absorbs the float rounding in the gap
            # arithmetic above.
            return math.ldexp(1.0, band + 1) >= distance
        except OverflowError:
            return True

    def _hw_comparison_unsafe(self, a, drift_a: float,
                              b, drift_b: float) -> bool:
        if drift_a >= self._ulps_limit or drift_b >= self._ulps_limit:
            return True
        precision = self.working_context.precision
        slack = None
        for value, drift in ((a, drift_a), (b, drift_b)):
            if drift == EXACT:
                continue
            if value.is_zero():
                return True
            band = value.msb_exponent - precision + 1 + math.frexp(drift)[1]
            if slack is None or band > slack:
                slack = band
        if type(a) is DoubleDouble and type(b) is DoubleDouble:
            diff = dd_sub(a.hi, a.lo, b.hi, b.lo)
            if diff is None or diff[0] == 0.0:
                return True
            diff_msb = DoubleDouble(diff[0], diff[1]).msb_exponent
        else:
            big_a = a.to_bigfloat() if type(a) is DoubleDouble else a
            big_b = b.to_bigfloat() if type(b) is DoubleDouble else b
            if not big_a.is_finite() or not big_b.is_finite():
                return True
            difference = arith.sub(big_a, big_b, self.working_context)
            if difference.is_zero():
                return True
            diff_msb = difference.msb_exponent
        return diff_msb <= slack + GUARD_BITS

    # ------------------------------------------------------------------
    # Escalation checks
    # ------------------------------------------------------------------

    def rounding_unsafe(self, value: BigFloat, drift: float,
                        mant_bits: int = 53, emin: int = -1022) -> bool:
        if type(value) is DoubleDouble:
            return self._hw_rounding_unsafe(value, drift, mant_bits, emin)
        if drift == EXACT:
            return False
        if drift >= self._ulps_limit:
            return True
        if not value.is_finite() or value.is_zero():
            # Drifted specials/zeros were flagged UNTRUSTED upstream,
            # but be defensive: the working tier cannot certify them.
            return True
        precision = self.working_context.precision
        msb = value.msb_exponent
        # log2 of the guarded error band around the working value
        # (frexp's exponent is ceil(log2) for positive floats).
        slack = msb - precision + 1 + math.frexp(drift)[1] + GUARD_BITS
        length = value.man.bit_length()
        tiny_exp = emin - mant_bits + 1
        p_target = mant_bits if msb >= emin else msb - tiny_exp + 1
        if p_target < 2:
            # At/below the smallest subnormals every decision is a tie
            # decision; these are vanishingly rare — always confirm.
            return True
        shift = length - p_target
        if shift <= 0:
            # Already on the target lattice: the nearest tie is half a
            # target ulp away.
            return slack >= msb - p_target
        half = 1 << (shift - 1)
        rem = value.man & ((1 << shift) - 1)
        distance = rem - half if rem >= half else half - rem
        if distance == 0:
            return True  # exactly on a tie: parity could flip either way
        distance_exp = value.exp + distance.bit_length() - 1
        return slack >= distance_exp

    def comparison_unsafe(self, a: BigFloat, drift_a: float,
                          b: BigFloat, drift_b: float) -> bool:
        if drift_a == EXACT and drift_b == EXACT:
            return False
        if type(a) is DoubleDouble or type(b) is DoubleDouble:
            return self._hw_comparison_unsafe(a, drift_a, b, drift_b)
        if drift_a >= self._ulps_limit or drift_b >= self._ulps_limit:
            return True
        if not a.is_finite() or not b.is_finite():
            return True  # a drifted special: kind itself is uncertain
        precision = self.working_context.precision
        slack = None
        for value, drift in ((a, drift_a), (b, drift_b)):
            if drift == EXACT:
                continue
            if value.is_zero():
                return True
            band = value.msb_exponent - precision + 1 + math.frexp(drift)[1]
            if slack is None or band > slack:
                slack = band
        difference = arith.sub(a, b, self.working_context)
        if difference.is_zero():
            return True
        return difference.msb_exponent <= slack + GUARD_BITS

    def addition_passthrough(self, candidate: BigFloat, drift_c: float,
                             other: BigFloat,
                             drift_o: float) -> Optional[bool]:
        """Full-tier verdict on ``round_full(c* + o*) == c*``, if cheap.

        The compensation check (paper Section 5.3) asks whether an
        addition returned one of its arguments *in the reals*.  At the
        full tier that holds iff the other operand is smaller than half
        an ulp of the candidate at ``full_precision`` — decidable from
        working-tier magnitudes alone whenever the operands are not
        within a few binades of that 2^-full_precision ratio.  Returns
        True/False when certain, None when the full tier must decide.
        """
        if drift_c >= self._ulps_limit or drift_o >= self._ulps_limit:
            return None
        if other.is_zero():
            # An exact zero term changes nothing at any tier.
            return True if drift_o == EXACT else None
        if candidate.is_zero() or not candidate.is_finite() \
                or not other.is_finite():
            return None
        window = candidate.msb_exponent - self.full_context.precision
        other_msb = other.msb_exponent
        if other_msb >= window + 4:
            return False  # |other| clearly exceeds half an ulp: must move
        if other_msb <= window - 4:
            return True  # |other| clearly below a quarter ulp: absorbed
        return None

    def integer_unsafe(self, value: BigFloat, drift: float) -> bool:
        if drift == EXACT:
            return False
        if type(value) is DoubleDouble:
            # Integer-boundary checks are rare; decide on the exact
            # BigFloat promotion rather than duplicating the lattice
            # walk on component pairs.
            return self.integer_unsafe(value.to_bigfloat(), drift)
        if drift >= self._ulps_limit:
            return True
        if not value.is_finite() or value.is_zero():
            return True
        precision = self.working_context.precision
        slack = value.msb_exponent - precision + 1 \
            + math.frexp(drift)[1] + GUARD_BITS
        if value.exp >= 0:
            # Integral at the working tier, inexact overall: the true
            # value sits within the band of an integer boundary.
            return True
        nearest = arith.round_half_even(value, self.working_context)
        delta = arith.sub(value, nearest, self.working_context)
        if delta.is_zero():
            return True
        return delta.msb_exponent <= slack


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_POLICIES: Dict[str, type] = {
    FixedPrecisionPolicy.name: FixedPrecisionPolicy,
    AdaptivePrecisionPolicy.name: AdaptivePrecisionPolicy,
}


def available_policies() -> List[str]:
    return sorted(_POLICIES)


def make_policy(name: str, full_precision: int,
                working_precision: int = 144) -> PrecisionPolicy:
    """Instantiate the policy named ``name``."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        known = ", ".join(available_policies())
        raise KeyError(f"unknown precision policy {name!r} (known: {known})")
    if cls is FixedPrecisionPolicy:
        return cls(full_precision)
    return cls(full_precision, working_precision=working_precision)
