"""The interval domain of the static analysis.

An :class:`Interval` is a closed range ``[lo, hi]`` of extended reals
(endpoints may be ``±inf``) plus a ``may_nan`` flag recording that the
abstracted value could be NaN (a domain error somewhere upstream, or
an ``inf - inf``-style indeterminate).  ``TOP`` is the full real line
with ``may_nan`` set.

Transfer functions (:func:`transfer`) over-approximate every operation
of the machine ISA's float universe — the same operation names as
:data:`repro.bigfloat.functions.ALL_OPERATIONS` — plus the integer ALU.
They are *approximate outward*: endpoints are computed in double
arithmetic without directed rounding, which is far finer than the
binade granularity any lint decision is made at.  What the transfer
functions are careful about is the structure that decisions DO hinge
on: zero crossings, domain edges (``log`` at 1 and 0, ``asin``/
``acos``/``atanh`` at ±1, ``tan`` poles), monotonicity direction, the
periodic extrema of the trigonometric family, and overflow to ±inf.

The domain deliberately tracks no relational information — ``x - x``
is the width-doubling hull, not 0.  Static cancellation candidates are
therefore a *superset* of the dynamically excitable ones, which is the
useful direction for a linter (and for the static-vs-dynamic agreement
contract: dynamically flagged sites must be statically ranked, never
the converse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Largest finite double; beyond it an interval endpoint is overflow.
DBL_MAX = 1.7976931348623157e308

#: Smallest positive *normal* double; magnitudes below it (other than
#: exact zero) are the subnormal range.
DBL_MIN_NORMAL = 2.2250738585072014e-308

_INF = math.inf


def _finite(value: float, sign: float) -> float:
    """Clamp an indeterminate endpoint computation to a signed inf."""
    if math.isnan(value):
        return _INF if sign > 0 else -_INF
    return value


@dataclass(frozen=True)
class Interval:
    """A closed interval of extended reals, plus NaN possibility."""

    lo: float
    hi: float
    may_nan: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            # A NaN endpoint means the computation was indeterminate:
            # degrade to the full line rather than carry NaN bounds.
            object.__setattr__(self, "lo", -_INF)
            object.__setattr__(self, "hi", _INF)
            object.__setattr__(self, "may_nan", True)
        elif self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def point(value: float) -> "Interval":
        if math.isnan(value):
            return Interval(-_INF, _INF, may_nan=True)
        return Interval(value, value)

    @staticmethod
    def from_points(values: Sequence[float], may_nan: bool = False) -> "Interval":
        finite = [v for v in values if not math.isnan(v)]
        if not finite:
            return TOP
        return Interval(min(finite), max(finite),
                        may_nan=may_nan or len(finite) != len(values))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi and not self.may_nan

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def abs_lo(self) -> float:
        """Smallest magnitude in the interval."""
        if self.contains_zero():
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def abs_hi(self) -> float:
        """Largest magnitude in the interval."""
        return max(abs(self.lo), abs(self.hi))

    def may_overflow(self) -> bool:
        """Could the value exceed the finite double range?"""
        return self.hi > DBL_MAX or self.lo < -DBL_MAX

    def may_underflow(self) -> bool:
        """Could the value land in the subnormal range (excluding an
        exact zero endpointed interval)?"""
        if self.lo == 0.0 and self.hi == 0.0:
            return False
        # Some sub-range of (0, tiny) or (-tiny, 0) is reachable.
        return (
            (self.hi > 0.0 and self.lo < DBL_MIN_NORMAL)
            or (self.lo < 0.0 and self.hi > -DBL_MIN_NORMAL)
        )

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------

    def hull(self, other: "Interval") -> "Interval":
        return Interval(
            min(self.lo, other.lo),
            max(self.hi, other.hi),
            self.may_nan or other.may_nan,
        )

    def widen(self, newer: "Interval") -> "Interval":
        """Standard endpoint widening: a moving bound jumps to ±inf."""
        return Interval(
            self.lo if newer.lo >= self.lo else -_INF,
            self.hi if newer.hi <= self.hi else _INF,
            self.may_nan or newer.may_nan,
        )

    def meet(self, lo: float = -_INF, hi: float = _INF) -> Optional["Interval"]:
        """Intersect with [lo, hi]; None when the meet is empty."""
        new_lo = max(self.lo, lo)
        new_hi = min(self.hi, hi)
        if new_lo > new_hi:
            return None
        return Interval(new_lo, new_hi, self.may_nan)

    def __str__(self) -> str:
        nan = " (maybe NaN)" if self.may_nan else ""
        return f"[{self.lo!r}, {self.hi!r}]{nan}"


#: The top element: any double, possibly NaN.
TOP = Interval(-_INF, _INF, may_nan=True)

#: Any finite-or-infinite real (no NaN).
REALS = Interval(-_INF, _INF)


# ----------------------------------------------------------------------
# Guarded double evaluation
# ----------------------------------------------------------------------


def _guard(fn: Callable[..., float], *args: float) -> Tuple[float, bool]:
    """Evaluate a math function; (value, domain_error).

    Overflow maps to a signed infinity (the IEEE behaviour), domain
    errors to ``(nan, True)``.
    """
    try:
        return fn(*args), False
    except OverflowError:
        # Recover the sign via a crude magnitude-free retry: the
        # callers below only hit this for exp-family / pow growth,
        # which overflow toward +inf (endpoints are handled per-op).
        return _INF, False
    except (ValueError, ZeroDivisionError):
        return math.nan, True


def _endpointwise(
    fn: Callable[[float], float], interval: Interval
) -> Interval:
    """Transfer for a function monotone over the interval's domain."""
    a, a_bad = _guard(fn, interval.lo)
    b, b_bad = _guard(fn, interval.hi)
    return Interval.from_points(
        [a, b], may_nan=interval.may_nan or a_bad or b_bad
    )


# ----------------------------------------------------------------------
# Arithmetic transfers
# ----------------------------------------------------------------------


def _add(x: Interval, y: Interval) -> Interval:
    lo = _finite(x.lo + y.lo, -1.0)
    hi = _finite(x.hi + y.hi, 1.0)
    # inf + (-inf) at an endpoint pair means an indeterminate is
    # reachable: the result may be NaN.
    indeterminate = (
        math.isinf(x.lo) and math.isinf(y.lo) and (x.lo > 0) != (y.lo > 0)
        or math.isinf(x.hi) and math.isinf(y.hi) and (x.hi > 0) != (y.hi > 0)
        or (math.isinf(x.lo) or math.isinf(x.hi))
        and (math.isinf(y.lo) or math.isinf(y.hi))
    )
    return Interval(min(lo, hi), max(lo, hi),
                    x.may_nan or y.may_nan or indeterminate)


def _sub(x: Interval, y: Interval) -> Interval:
    return _add(x, _neg(y))


def _neg(x: Interval) -> Interval:
    return Interval(-x.hi, -x.lo, x.may_nan)


def _fabs(x: Interval) -> Interval:
    if x.lo >= 0:
        return x
    if x.hi <= 0:
        return _neg(x)
    return Interval(0.0, max(-x.lo, x.hi), x.may_nan)


def _mul(x: Interval, y: Interval) -> Interval:
    products = []
    indeterminate = False
    for a in (x.lo, x.hi):
        for b in (y.lo, y.hi):
            if (math.isinf(a) and b == 0.0) or (a == 0.0 and math.isinf(b)):
                indeterminate = True
                products.append(0.0)
                continue
            products.append(a * b)
    # 0 * inf is reachable whenever one operand spans 0 and the other
    # reaches an infinity anywhere (not only at corner points).
    if (x.contains_zero() and (math.isinf(y.lo) or math.isinf(y.hi))) or (
        y.contains_zero() and (math.isinf(x.lo) or math.isinf(x.hi))
    ):
        indeterminate = True
    return Interval.from_points(
        products, may_nan=x.may_nan or y.may_nan or indeterminate
    )


def _div(x: Interval, y: Interval) -> Interval:
    if y.contains_zero():
        # Division by (a value near) zero: magnitudes are unbounded.
        # 0/0 would additionally be NaN.
        may_nan = x.may_nan or y.may_nan or x.contains_zero()
        return Interval(-_INF, _INF, may_nan)
    quotients = []
    for a in (x.lo, x.hi):
        for b in (y.lo, y.hi):
            if math.isinf(a) and math.isinf(b):
                quotients.append(0.0)  # indeterminate corner
                continue
            quotients.append(a / b if not math.isinf(a) else
                             math.copysign(_INF, a) * math.copysign(1.0, b))
    indeterminate = (
        (math.isinf(x.lo) or math.isinf(x.hi))
        and (math.isinf(y.lo) or math.isinf(y.hi))
    )
    return Interval.from_points(
        quotients, may_nan=x.may_nan or y.may_nan or indeterminate
    )


def _sqrt(x: Interval) -> Interval:
    domain_error = x.lo < 0.0
    clipped = x.meet(lo=0.0)
    if clipped is None:
        return Interval(-_INF, _INF, may_nan=True)
    return Interval(
        math.sqrt(clipped.lo),
        math.sqrt(clipped.hi) if not math.isinf(clipped.hi) else _INF,
        x.may_nan or domain_error,
    )


def _cbrt_point(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v) if not math.isinf(v) \
        else math.copysign(_INF, v)


def _fma(a: Interval, b: Interval, c: Interval) -> Interval:
    return _add(_mul(a, b), c)


def _hypot(x: Interval, y: Interval) -> Interval:
    ax, ay = _fabs(x), _fabs(y)
    lo = math.hypot(ax.lo, ay.lo)
    hi = math.hypot(ax.hi, ay.hi) if not (
        math.isinf(ax.hi) or math.isinf(ay.hi)
    ) else _INF
    return Interval(lo, hi, x.may_nan or y.may_nan)


def _fmin(x: Interval, y: Interval) -> Interval:
    return Interval(min(x.lo, y.lo), min(x.hi, y.hi), x.may_nan or y.may_nan)


def _fmax(x: Interval, y: Interval) -> Interval:
    return Interval(max(x.lo, y.lo), max(x.hi, y.hi), x.may_nan or y.may_nan)


def _copysign(x: Interval, y: Interval) -> Interval:
    magnitude = _fabs(x)
    if y.lo >= 0.0:
        return magnitude
    if y.hi < 0.0:
        return _neg(magnitude)
    return Interval(-magnitude.hi, magnitude.hi, x.may_nan or y.may_nan)


def _fdim(x: Interval, y: Interval) -> Interval:
    diff = _sub(x, y)
    return Interval(max(0.0, diff.lo), max(0.0, diff.hi), diff.may_nan)


def _fmod(x: Interval, y: Interval) -> Interval:
    # |fmod(x, y)| < |y| and the sign follows x; 0 divisor is NaN.
    bound = min(x.abs_hi(), y.abs_hi())
    may_nan = x.may_nan or y.may_nan or y.contains_zero()
    lo = -bound if x.lo < 0 else 0.0
    hi = bound if x.hi > 0 else 0.0
    return Interval(lo, hi, may_nan)


def _remainder(x: Interval, y: Interval) -> Interval:
    bound = min(x.abs_hi(), y.abs_hi() / 2.0)
    may_nan = x.may_nan or y.may_nan or y.contains_zero()
    return Interval(-bound, bound, may_nan)


def _pow(x: Interval, y: Interval) -> Interval:
    if y.is_point and y.lo == 2.0:
        squared = _mul(x, x)  # the ubiquitous x^2: keep the sign info
        return Interval(squared.lo, squared.hi, x.may_nan or y.may_nan)
    if x.lo > 0.0:
        candidates: List[float] = []
        bad = False
        xs = [x.lo, x.hi]
        if x.contains(1.0):
            xs.append(1.0)
        for a in xs:
            for b in (y.lo, y.hi):
                if math.isinf(b):
                    # a^±inf: 0, 1, or inf depending on a vs 1.
                    if a == 1.0:
                        candidates.append(1.0)
                    elif (a > 1.0) == (b > 0):
                        candidates.append(_INF)
                    else:
                        candidates.append(0.0)
                    continue
                value, err = _guard(math.pow, a, b)
                bad = bad or err
                candidates.append(value)
        return Interval.from_points(
            candidates, may_nan=x.may_nan or y.may_nan or bad
        )
    # Negative or zero-spanning bases: defined only at integer
    # exponents / special cases; stay conservative.
    return Interval(-_INF, _INF, may_nan=True)


# ----------------------------------------------------------------------
# Transcendental transfers
# ----------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


def _periodic_extrema(x: Interval, offset: float) -> List[float]:
    """Critical points ``k*pi + offset`` inside the interval (bounded)."""
    if x.hi - x.lo >= _TWO_PI or math.isinf(x.lo) or math.isinf(x.hi):
        return []
    points = []
    k = math.floor((x.lo - offset) / math.pi)
    for step in range(4):
        candidate = (k + step) * math.pi + offset
        if x.lo <= candidate <= x.hi:
            points.append(candidate)
    return points


def _sin(x: Interval) -> Interval:
    if x.hi - x.lo >= _TWO_PI or math.isinf(x.lo) or math.isinf(x.hi):
        return Interval(-1.0, 1.0, x.may_nan)
    values = [math.sin(x.lo), math.sin(x.hi)]
    values += [math.sin(p) for p in _periodic_extrema(x, _HALF_PI)]
    return Interval.from_points(values, may_nan=x.may_nan)


def _cos(x: Interval) -> Interval:
    if x.hi - x.lo >= _TWO_PI or math.isinf(x.lo) or math.isinf(x.hi):
        return Interval(-1.0, 1.0, x.may_nan)
    values = [math.cos(x.lo), math.cos(x.hi)]
    values += [math.cos(p) for p in _periodic_extrema(x, 0.0)]
    return Interval.from_points(values, may_nan=x.may_nan)


def _tan(x: Interval) -> Interval:
    if math.isinf(x.lo) or math.isinf(x.hi) or x.hi - x.lo >= math.pi:
        return Interval(-_INF, _INF, x.may_nan)
    if _periodic_extrema(x, _HALF_PI):
        # A pole lies inside: both signs of huge magnitude reachable.
        return Interval(-_INF, _INF, x.may_nan)
    return Interval(math.tan(x.lo), math.tan(x.hi), x.may_nan)


def _asin(x: Interval) -> Interval:
    domain_error = x.lo < -1.0 or x.hi > 1.0
    clipped = x.meet(lo=-1.0, hi=1.0)
    if clipped is None:
        return Interval(-_INF, _INF, may_nan=True)
    return Interval(math.asin(clipped.lo), math.asin(clipped.hi),
                    x.may_nan or domain_error)


def _acos(x: Interval) -> Interval:
    domain_error = x.lo < -1.0 or x.hi > 1.0
    clipped = x.meet(lo=-1.0, hi=1.0)
    if clipped is None:
        return Interval(-_INF, _INF, may_nan=True)
    return Interval(math.acos(clipped.hi), math.acos(clipped.lo),
                    x.may_nan or domain_error)


def _atanh(x: Interval) -> Interval:
    domain_error = x.lo <= -1.0 or x.hi >= 1.0
    lo = math.atanh(x.lo) if -1.0 < x.lo < 1.0 else -_INF
    hi = math.atanh(x.hi) if -1.0 < x.hi < 1.0 else _INF
    return Interval(lo, hi, x.may_nan or domain_error)


def _acosh(x: Interval) -> Interval:
    domain_error = x.lo < 1.0
    clipped = x.meet(lo=1.0)
    if clipped is None:
        return Interval(-_INF, _INF, may_nan=True)
    hi = math.acosh(clipped.hi) if not math.isinf(clipped.hi) else _INF
    return Interval(math.acosh(clipped.lo), hi, x.may_nan or domain_error)


def _log_family(log_fn: Callable[[float], float]) -> Callable[[Interval], Interval]:
    def run(x: Interval) -> Interval:
        domain_error = x.lo <= 0.0
        lo = log_fn(x.lo) if x.lo > 0.0 else -_INF
        hi = (log_fn(x.hi) if not math.isinf(x.hi) else _INF) \
            if x.hi > 0.0 else -_INF
        if x.hi <= 0.0:
            return Interval(-_INF, _INF, may_nan=True)
        return Interval(lo, hi, x.may_nan or domain_error)

    return run


def _log1p(x: Interval) -> Interval:
    domain_error = x.lo <= -1.0
    lo = math.log1p(x.lo) if x.lo > -1.0 else -_INF
    hi = (math.log1p(x.hi) if not math.isinf(x.hi) else _INF) \
        if x.hi > -1.0 else -_INF
    if x.hi <= -1.0:
        return Interval(-_INF, _INF, may_nan=True)
    return Interval(lo, hi, x.may_nan or domain_error)


def _atan2(y: Interval, x: Interval) -> Interval:
    return Interval(-math.pi, math.pi, x.may_nan or y.may_nan)


def _exp_family(exp_fn: Callable[[float], float],
                floor: float) -> Callable[[Interval], Interval]:
    def run(x: Interval) -> Interval:
        lo, __ = _guard(exp_fn, x.lo) if not math.isinf(x.lo) else (
            (floor, False) if x.lo < 0 else (_INF, False))
        hi, __ = _guard(exp_fn, x.hi) if not math.isinf(x.hi) else (
            (floor, False) if x.hi < 0 else (_INF, False))
        return Interval(min(lo, hi), max(lo, hi), x.may_nan)

    return run


_UNARY_TRANSFERS: Dict[str, Callable[[Interval], Interval]] = {
    "neg": _neg,
    "fabs": _fabs,
    "sqrt": _sqrt,
    "cbrt": lambda x: _endpointwise(_cbrt_point, x),
    "exp": _exp_family(math.exp, 0.0),
    "exp2": _exp_family(lambda v: 2.0 ** v, 0.0),
    "expm1": _exp_family(math.expm1, -1.0),
    "log": _log_family(math.log),
    "log2": _log_family(math.log2),
    "log10": _log_family(math.log10),
    "log1p": _log1p,
    "sin": _sin,
    "cos": _cos,
    "tan": _tan,
    "asin": _asin,
    "acos": _acos,
    "atan": lambda x: _endpointwise(math.atan, x),
    "sinh": lambda x: _endpointwise(
        lambda v: math.copysign(_INF, v) if abs(v) > 710 else math.sinh(v), x
    ),
    "cosh": lambda x: _cosh(x),
    "tanh": lambda x: _endpointwise(math.tanh, x),
    "asinh": lambda x: _endpointwise(math.asinh, x),
    "acosh": _acosh,
    "atanh": _atanh,
    "trunc": lambda x: _endpointwise(
        lambda v: v if math.isinf(v) else float(math.trunc(v)), x
    ),
    "floor": lambda x: _endpointwise(
        lambda v: v if math.isinf(v) else float(math.floor(v)), x
    ),
    "ceil": lambda x: _endpointwise(
        lambda v: v if math.isinf(v) else float(math.ceil(v)), x
    ),
    "round": lambda x: _endpointwise(
        lambda v: v if math.isinf(v) else float(round(v + math.copysign(0.5, v) * 0)), x
    ),
    "nearbyint": lambda x: _endpointwise(
        lambda v: v if math.isinf(v) else float(round(v)), x
    ),
}


def _cosh(x: Interval) -> Interval:
    magnitude = _fabs(x)
    hi = _INF if magnitude.hi > 710 or math.isinf(magnitude.hi) \
        else math.cosh(magnitude.hi)
    return Interval(math.cosh(magnitude.lo), hi, x.may_nan)


_BINARY_TRANSFERS: Dict[str, Callable[[Interval, Interval], Interval]] = {
    "+": _add,
    "-": _sub,
    "*": _mul,
    "/": _div,
    "pow": _pow,
    "hypot": _hypot,
    "atan2": _atan2,
    "fmin": _fmin,
    "fmax": _fmax,
    "fmod": _fmod,
    "remainder": _remainder,
    "fdim": _fdim,
    "copysign": _copysign,
}


def transfer(op: str, args: Sequence[Interval]) -> Interval:
    """The interval image of ``op`` over the argument intervals.

    Unknown operations degrade to :data:`TOP` (sound, useless) rather
    than raising — the static pass must survive any program the
    dynamic engine accepts.
    """
    try:
        if len(args) == 1:
            fn = _UNARY_TRANSFERS.get(op)
            if fn is not None:
                return fn(args[0])
        elif len(args) == 2:
            fn2 = _BINARY_TRANSFERS.get(op)
            if fn2 is not None:
                return fn2(args[0], args[1])
        elif len(args) == 3 and op == "fma":
            return _fma(*args)
    except (OverflowError, ValueError, ZeroDivisionError):
        return TOP
    return TOP


# ----------------------------------------------------------------------
# Integer ALU (used for addressing and loop-counter refinement)
# ----------------------------------------------------------------------


def int_transfer(op: str, x: Interval, y: Interval) -> Interval:
    """Transfer for the machine's integer operations.

    Integer registers are abstracted by the same interval class with
    float endpoints — exact for the |values| < 2^53 the programs use.
    """
    try:
        if op == "iadd":
            return _add(x, y)
        if op == "isub":
            return _sub(x, y)
        if op == "imul":
            return _mul(x, y)
        if op == "idiv":
            if y.contains_zero():
                return REALS
            result = _div(x, y)
            return Interval(
                result.lo
                if math.isinf(result.lo)
                else float(math.floor(result.lo)),
                result.hi
                if math.isinf(result.hi)
                else float(math.ceil(result.hi)),
                result.may_nan,
            )
        if op == "imod":
            bound = y.abs_hi()
            if math.isinf(bound):
                return REALS
            return Interval(-bound, bound)
    except (OverflowError, ValueError):
        return REALS
    # Shifts and bit operations: no useful interval structure.
    return REALS


def binade(value: float) -> Optional[int]:
    """``floor(log2 |value|)``, or None at 0/inf/NaN — the witness
    granularity of every lint diagnostic."""
    if value == 0.0 or math.isnan(value) or math.isinf(value):
        return None
    return math.floor(math.log2(abs(value)))
