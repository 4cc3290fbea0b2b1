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

* :class:`PrecisionPolicy` (``"fixed"``) — the paper's behaviour:
  one tier, no escalation, no bookkeeping.
* :class:`AdaptivePrecisionPolicy` (``"adaptive"``) — shadow values are
  computed as double-double pairs (:mod:`repro.bigfloat.doubledouble`)
  where the pair kernels cover the operation, and at
  ``working_precision`` (144 bits by default) otherwise, and carry a
  *drift* bound: the accumulated error in ulps of the working tier,
  maintained by running error analysis (each operation adds its own
  rounding charge; cancellation and ill-conditioned operations amplify
  the arguments' drifts by their condition exponent).  A decision
  escalates when its outcome could change within the drift band plus
  :data:`GUARD_BITS` of slack:

  - **rounding** (:meth:`~AdaptivePrecisionPolicy.rounding_unsafe`) —
    the value lies within the guarded band of a round-to-target tie,
    so ``to_float`` of the working value cannot be certified;
  - **comparison** (:meth:`~AdaptivePrecisionPolicy.comparison_unsafe`)
    — two reals are equal or closer than their combined guarded
    bands, so predicate and compensation-equality decisions could
    flip;
  - **integer boundary** (:meth:`~AdaptivePrecisionPolicy.integer_unsafe`)
    — the value lies within the guarded band of an integer, so
    truncation could flip.

  Catastrophic cancellation does not get a separate trigger: it enters
  the drift bound directly (the ``msb(arg) - msb(result)`` term of
  :meth:`~AdaptivePrecisionPolicy.propagate`), widening the band until
  the checks above fire.  Likewise the "local error near the threshold
  Tℓ" trigger is subsumed: local error is computed from
  escalation-checked doubles, so the threshold comparison is already
  exact.

Each rule — the drift propagation and the three checks — is written
once, for both shadow representations.  The amplification, the trust
limit, the guard band and the sign-certainty logic read kind, zero and
``msb_exponent``, which ``BigFloat`` and ``DoubleDouble`` share, and
the three facts on which the representations differ through per-type
accessors (:data:`_CHARGE`, :data:`_TIE_EXPONENT`,
:func:`_difference_msb`):

- the operation's own rounding charge: a BigFloat result is rounded
  at the working tier unless it is provably exact, while a pair result
  carries its kernel's proven error-free flag or its relative bound;
- the distance to the nearest round-to-target tie: exact integer
  arithmetic on a BigFloat mantissa, a float-only lattice computation
  on a pair;
- the msb of a difference: a working-tier subtraction, or a pair
  subtraction when both operands are pairs.

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
from repro.bigfloat.bigfloat import BigFloat
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

#: Ops without a rounding charge: sign ops and rounding to an integer
#: pass one argument's drift through unless a discrete decision (a sign
#: source, an integer boundary) is uncertain, and fmod/remainder hinge
#: on their implicit quotient.
_DISCRETE = frozenset({"neg", "fabs", "copysign", "trunc", "floor",
                       "ceil", "round", "nearbyint", "fmod", "remainder"})


class PrecisionPolicy:
    """The fixed policy (``"fixed"``), the paper's behaviour and the
    default: one shadow precision, and nothing ever escalates.

    :class:`AdaptivePrecisionPolicy` overrides :meth:`propagate` and the
    checks below with its drift rules.
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
                  drifts: Sequence[float], result: BigFloat,
                  exact_op: bool) -> float:
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


class AdaptivePrecisionPolicy(PrecisionPolicy):
    """Low working tier with guarded escalation to the full tier.

    Shadow reals are BigFloats at the working tier or double-double
    pairs; every rule below takes either (see the module docstring for
    the per-type accessors it reads).
    """

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
        if op in _WELL_CONDITIONED:
            return 1
        if op in ("fmin", "fmax"):
            return 0
        arg = args[index]
        out_msb = result.msb_exponent
        if op in ("+", "-", "fdim", "fma"):
            # Absolute errors add; converting arg-ulps to result-ulps
            # shifts by exactly the exponent drop (the ulp ratio) — this
            # is the catastrophic-cancellation amplification.
            if op == "fma" and index < 2:
                x, y = args[0], args[1]
                if x.is_zero() or y.is_zero():
                    return None
                return x.msb_exponent + y.msb_exponent - out_msb + 1
            return arg.msb_exponent - out_msb
        arg_msb = arg.msb_exponent
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
        # Unknown operation: a generous constant; anything genuinely
        # ill-conditioned also shrinks/grows msb and is caught above.
        return 4

    def propagate(self, op: str, args: Sequence[BigFloat],
                  drifts: Sequence[float], result: BigFloat,
                  exact_op: bool) -> float:
        """Drift bound of ``result = op(args)`` given the args' drifts.

        ``args`` and ``result`` are all BigFloats or all pairs.
        ``exact_op`` is the pair kernel's proven error-free flag, which
        every pair result must pass; a BigFloat result's own rounding
        is decided from its operands, and its flag is ignored.
        """
        limit = self._ulps_limit
        if op in _DISCRETE:
            if op == "neg" or op == "fabs":
                return drifts[0]
            if op == "copysign":
                # The magnitude's drift passes through, but only when
                # the sign operand's sign is certain: a drifted sign
                # source whose band reaches zero could flip the result
                # wholesale.
                sign_drift = drifts[1]
                if sign_drift == EXACT:
                    return drifts[0]
                sign = args[1]
                if (
                    sign.is_finite() and not sign.is_zero()
                    and sign_drift < limit
                    and math.frexp(sign_drift)[1] + GUARD_BITS
                    < self.working_context.precision - 1
                ):
                    return drifts[0]
                return UNTRUSTED
            if op == "fmod" or op == "remainder":
                # The implicit quotient is a discrete decision: safe
                # only when the operands are exact.
                return 1.0 if drifts[0] == EXACT and drifts[1] == EXACT \
                    else UNTRUSTED
            if drifts[0] == EXACT:
                return EXACT
            if self.integer_unsafe(args[0], drifts[0]):
                return UNTRUSTED
            return drifts[0]
        exact_in = True
        for drift in drifts:
            if drift != EXACT:
                exact_in = False
                break
        charge = _CHARGE[type(result)](self, op, args, result, exact_in,
                                       exact_op)
        if result.is_zero() or not result.is_finite():
            if exact_in and charge == EXACT:
                return EXACT
            if result.is_zero():
                if op == "*" and any(
                    a.is_zero() and d == EXACT for a, d in zip(args, drifts)
                ):
                    return EXACT  # an exact zero factor forces a true zero
                if op == "/" and args[0].is_zero() and drifts[0] == EXACT:
                    return EXACT
            # A zero/NaN/inf summoned from inexact operands: the working
            # tier cannot bound how far the true value is.
            return UNTRUSTED
        # Error in ulps of the result: the op's own rounding plus each
        # inexact argument's band scaled by the op's condition exponent.
        total = charge
        if not exact_in:
            for index, drift in enumerate(drifts):
                if drift == EXACT:
                    continue
                arg = args[index]
                if drift >= limit or arg.is_zero() or not arg.is_finite():
                    return UNTRUSTED
                # The well-conditioned ops (``*`` and ``/`` above all)
                # skip the call.
                amp = 1 if op in _WELL_CONDITIONED \
                    else self._amplification(op, index, args, result)
                if amp is None:
                    return UNTRUSTED
                try:
                    total += math.ldexp(drift, amp)
                except OverflowError:
                    return UNTRUSTED
        return total if total < limit else UNTRUSTED

    # -- the op's own rounding charge, per result type -------------------

    def _working_charge(self, op: str, args: Sequence[BigFloat],
                        result: BigFloat, exact_in: bool,
                        exact_op: bool) -> float:
        """A BigFloat result's own charge: none when exact operands give
        a zero or special result or a provably exact operation, one
        working ulp (faithful rounding) otherwise."""
        if not exact_in:
            return 1.0
        if result.is_zero() or not result.is_finite():
            return EXACT
        return EXACT if self._is_exact_operation(op, args) else 1.0

    def _pair_charge(self, op: str, args: Sequence[DoubleDouble],
                     result: DoubleDouble, exact_in: bool,
                     exact_op: bool) -> float:
        """A pair result's own charge: none when the kernel proved the op
        error-free, the kernels' relative bound otherwise."""
        if exact_op:
            if exact_in and not fits_precision(
                result.hi, result.lo, self.full_context.precision
            ):
                # Exactly computed, but wider than the full tier: the
                # oracle would round where we did not.  The gap is at
                # most half a full-tier ulp — under half a working ulp.
                return 1.0
            return EXACT
        charge = self._hw_op_ulps
        if op == "fma":
            x, y = args[0], args[1]
            if not (result.is_zero() or x.is_zero() or y.is_zero()):
                # The product stage's rounding is committed before the
                # addition and amplified by any cancellation in it.
                try:
                    charge += math.ldexp(charge, max(
                        0, x.msb_exponent + y.msb_exponent
                        - result.msb_exponent + 1
                    ))
                except OverflowError:
                    return UNTRUSTED
        return charge

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
    # Escalation checks
    # ------------------------------------------------------------------

    def _band(self, value: BigFloat, drift: float) -> int:
        """log2 of a drifted value's error band (frexp's exponent is
        ceil(log2) for positive floats)."""
        return value.msb_exponent - self.working_context.precision + 1 \
            + math.frexp(drift)[1]

    def rounding_unsafe(self, value: BigFloat, drift: float,
                        mant_bits: int = 53, emin: int = -1022) -> bool:
        if drift == EXACT:
            return False
        if drift >= self._ulps_limit:
            return True
        tie = _TIE_EXPONENT[type(value)](value, mant_bits, emin)
        return tie is None or self._band(value, drift) + GUARD_BITS >= tie

    def comparison_unsafe(self, a: BigFloat, drift_a: float,
                          b: BigFloat, drift_b: float) -> bool:
        if drift_a == EXACT and drift_b == EXACT:
            return False
        if drift_a >= self._ulps_limit or drift_b >= self._ulps_limit:
            return True
        if not a.is_finite() or not b.is_finite():
            return True  # a drifted special: kind itself is uncertain
        slack = None
        for value, drift in ((a, drift_a), (b, drift_b)):
            if drift == EXACT:
                continue
            if value.is_zero():
                return True
            band = self._band(value, drift)
            if slack is None or band > slack:
                slack = band
        diff_msb = _difference_msb(a, b, self.working_context)
        return diff_msb is None or diff_msb <= slack + GUARD_BITS

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
        if drift >= self._ulps_limit:
            return True
        if value.is_zero() or not value.is_finite():
            return True
        # Integer-boundary checks are rare: a pair decides on its exact
        # BigFloat promotion rather than walking the lattice itself.
        value = value.to_bigfloat()
        if value.exp >= 0:
            # Integral at the working tier, inexact overall: the true
            # value sits within the band of an integer boundary.
            return True
        nearest = arith.round_half_even(value, self.working_context)
        delta = arith.sub(value, nearest, self.working_context)
        if delta.is_zero():
            return True
        return delta.msb_exponent <= self._band(value, drift) + GUARD_BITS


# ----------------------------------------------------------------------
# Per-type accessors of the rules
# ----------------------------------------------------------------------

def _working_tie_exponent(value: BigFloat, mant_bits: int,
                          emin: int) -> Optional[int]:
    """floor(log2) of a BigFloat's distance to the nearest tie of the
    target format, or None when no band is narrow enough: on a tie, at
    or below the smallest subnormals, where every decision is a tie
    decision, and on a zero or special value, which the working tier
    cannot certify once drifted (all vanishingly rare — always
    confirm)."""
    if value.is_zero() or not value.is_finite():
        return None
    msb = value.msb_exponent
    tiny_exp = emin - mant_bits + 1
    p_target = mant_bits if msb >= emin else msb - tiny_exp + 1
    if p_target < 2:
        return None
    shift = value.man.bit_length() - p_target
    if shift <= 0:
        # Already on the target lattice: the nearest tie is half a
        # target ulp away.
        return msb - p_target
    half = 1 << (shift - 1)
    rem = value.man & ((1 << shift) - 1)
    distance = rem - half if rem >= half else half - rem
    if distance == 0:
        return None  # exactly on a tie: parity could flip either way
    return value.exp + distance.bit_length() - 1


def _pair_tie_exponent(value: DoubleDouble, mant_bits: int,
                       emin: int) -> Optional[int]:
    """The pair's tie distance in the same terms, from its components:
    no BigFloat promotion on the binary64 target."""
    if value.hi == 0.0:
        return None
    if mant_bits != 53 or emin != -1022:
        # Narrower targets put the ties on a lattice the hardware
        # pair does not expose cheaply; decide exactly instead.
        return _working_tie_exponent(value.to_bigfloat(), mant_bits, emin)
    mantissa, exponent = math.frexp(value.hi)
    if exponent - 1 < emin:
        return None  # subnormal target lattice: always confirm
    # hi sits on the binary64 lattice, so the nearest round-to-double
    # ties sit half an ulp above and below it (a quarter ulp below at a
    # binade edge), and lo is the value's exact offset.
    half_ulp = math.ldexp(1.0, exponent - 54)
    offset = -value.lo if value.hi < 0.0 else value.lo
    up_gap = half_ulp - offset
    down_gap = offset + (
        math.ldexp(1.0, exponent - 55) if abs(mantissa) == 0.5
        else half_ulp
    )
    distance = up_gap if up_gap < down_gap else down_gap
    if distance <= 0.0:
        return None
    # ceil(log2(distance)) - 1: one doubling above floor(log2) absorbs
    # the float rounding in the gap arithmetic above.
    mantissa, exponent = math.frexp(distance)
    return exponent - 2 if mantissa == 0.5 else exponent - 1


def _difference_msb(a: BigFloat, b: BigFloat,
                    context: Context) -> Optional[int]:
    """msb of ``a - b``, or None when the difference is zero (or, for
    two pairs, outside the pair kernel's range)."""
    if type(a) is type(b) is DoubleDouble:
        diff = dd_sub(a.hi, a.lo, b.hi, b.lo)
        if diff is None or diff[0] == 0.0:
            return None
        return DoubleDouble(diff[0], diff[1]).msb_exponent
    difference = arith.sub(a.to_bigfloat(), b.to_bigfloat(), context)
    if difference.is_zero():
        return None
    return difference.msb_exponent


#: The op's own rounding charge, by result type.
_CHARGE = {
    BigFloat: AdaptivePrecisionPolicy._working_charge,
    DoubleDouble: AdaptivePrecisionPolicy._pair_charge,
}

#: The distance to the nearest round-to-target tie, by value type.
_TIE_EXPONENT = {
    BigFloat: _working_tie_exponent,
    DoubleDouble: _pair_tie_exponent,
}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def available_policies() -> List[str]:
    return sorted((PrecisionPolicy.name, AdaptivePrecisionPolicy.name))


def make_policy(name: str, full_precision: int,
                working_precision: int = 144) -> PrecisionPolicy:
    """Instantiate the policy named ``name``."""
    if name == AdaptivePrecisionPolicy.name:
        return AdaptivePrecisionPolicy(
            full_precision, working_precision=working_precision
        )
    if name == PrecisionPolicy.name:
        return PrecisionPolicy(full_precision)
    known = ", ".join(available_policies())
    raise KeyError(f"unknown precision policy {name!r} (known: {known})")
