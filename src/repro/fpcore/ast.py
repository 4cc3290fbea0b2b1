"""AST for the FPCore benchmark format (FPBench 1.x subset).

FPCore is the interchange format of the FPBench suite the paper uses for
its evaluation (Section 8), and also the format of Herbgrind's *reports*
(the extracted root-cause expressions are printed as FPCore so they can
be piped into Herbie).  We therefore use this AST in three roles:

* parsing the benchmark corpus,
* representing extracted symbolic expressions in reports,
* feeding the mini-Herbie improver.

All nodes are immutable and hashable, so they can serve as dictionary
keys during anti-unification and rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Optional, Tuple, Union

#: Operators whose result is boolean.
COMPARISON_OPS = frozenset({"<", ">", "<=", ">=", "==", "!="})
BOOLEAN_OPS = frozenset({"and", "or", "not"})
CLASSIFICATION_OPS = frozenset({"isnan", "isinf", "isfinite", "isnormal", "signbit"})

#: Named constants of the FPCore standard.
CONSTANTS = frozenset(
    {
        "E", "LOG2E", "LOG10E", "LN2", "LN10",
        "PI", "PI_2", "PI_4", "M_1_PI", "M_2_PI", "M_2_SQRTPI",
        "SQRT2", "SQRT1_2", "INFINITY", "NAN", "TRUE", "FALSE",
    }
)


class Expr:
    """Base class for FPCore expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    """A numeric literal, kept as an exact rational plus source text.

    Equality is by value only: ``1``, ``1.0`` and ``1e0`` are the same
    literal (the text is just the preferred rendering).
    """

    value: Fraction
    text: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.text:
            object.__setattr__(self, "text", _format_fraction(self.value))

    def __str__(self) -> str:
        return self.text

    def as_float(self) -> float:
        """``float(self.value)``, computed once — anti-unification
        compares literals against concrete trace values on every
        update."""
        try:
            return self._float  # type: ignore[attr-defined]
        except AttributeError:
            value = float(self.value)
            object.__setattr__(self, "_float", value)
            return value

    def __hash__(self) -> int:
        # Same value-only formula the dataclass would generate, cached:
        # literals are hashed repeatedly as dict keys during
        # anti-unification and rewriting.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            result = hash((self.value,))
            object.__setattr__(self, "_hash", result)
            return result


@dataclass(frozen=True)
class Const(Expr):
    """A named constant such as PI or E."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in CONSTANTS:
            raise ValueError(f"unknown FPCore constant: {self.name!r}")

    def __str__(self) -> str:
        return self.name


#: Hash-consing table for :class:`Var` (variable names recur endlessly
#: across anti-unification updates, so one instance serves them all).
_VAR_INTERN: Dict[str, "Var"] = {}


@dataclass(frozen=True)
class Var(Expr):
    """A free or bound variable reference.

    Instances are hash-consed: ``Var("x") is Var("x")``.  Equality and
    hashing are unchanged; interning just makes the identity-based
    memo tables of anti-unification maximally effective and skips
    re-allocating the same handful of names millions of times.
    """

    name: str

    def __new__(cls, name: str = "") -> "Var":
        if cls is Var:
            cached = _VAR_INTERN.get(name)
            if cached is not None:
                return cached
            self = super().__new__(cls)
            if isinstance(name, str):
                _VAR_INTERN[name] = self
            return self
        return super().__new__(cls)

    def __getnewargs__(self):
        # Pickle/deepcopy must re-enter __new__ with the real name, or
        # every round-tripped Var would collapse onto the instance
        # interned for the default name.
        return (self.name,)

    def __str__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            result = hash((self.name,))
            object.__setattr__(self, "_hash", result)
            return result


@dataclass(frozen=True)
class Op(Expr):
    """An operator application, including comparisons and boolean ops."""

    op: str
    args: Tuple[Expr, ...]

    def __str__(self) -> str:
        inner = " ".join(str(a) for a in self.args)
        return f"({self.op} {inner})"

    def __hash__(self) -> int:
        # Cached: hashing an Op re-walks its whole subtree, and the
        # improver/anti-unification hash the same expressions over and
        # over as dictionary keys.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            result = hash((self.op, self.args))
            object.__setattr__(self, "_hash", result)
            return result


@dataclass(frozen=True)
class If(Expr):
    """A conditional expression (if cond then else)."""

    cond: Expr
    then: Expr
    orelse: Expr

    def __str__(self) -> str:
        return f"(if {self.cond} {self.then} {self.orelse})"


@dataclass(frozen=True)
class Let(Expr):
    """(let ([x e] ...) body) or the sequential let* variant."""

    bindings: Tuple[Tuple[str, Expr], ...]
    body: Expr
    sequential: bool = False

    def __str__(self) -> str:
        keyword = "let*" if self.sequential else "let"
        bound = " ".join(f"[{name} {expr}]" for name, expr in self.bindings)
        return f"({keyword} ({bound}) {self.body})"


@dataclass(frozen=True)
class While(Expr):
    """(while cond ([x init update] ...) body) (and while*)."""

    cond: Expr
    bindings: Tuple[Tuple[str, Expr, Expr], ...]
    body: Expr
    sequential: bool = False

    def __str__(self) -> str:
        keyword = "while*" if self.sequential else "while"
        bound = " ".join(
            f"[{name} {init} {update}]" for name, init, update in self.bindings
        )
        return f"({keyword} {self.cond} ({bound}) {self.body})"


@dataclass(frozen=True)
class FPCore:
    """A top-level FPCore form: arguments, properties, and a body."""

    arguments: Tuple[str, ...]
    body: Expr
    name: Optional[str] = None
    properties: Dict[str, object] = field(default_factory=dict, compare=False)

    def __str__(self) -> str:
        return self.canonical_text

    @cached_property
    def canonical_text(self) -> str:
        """``format_fpcore(self)``, printed once per core.

        The request digest, the worker payload and every per-program
        cache key read it, so a core reused across requests is printed
        once.  The cache lives in the instance ``__dict__``: it takes no
        part in equality, hashing or ``repr``, and ``dataclasses.replace``
        builds a core without it.
        """
        from repro.fpcore.printer import format_fpcore

        return format_fpcore(self)

    @property
    def pre(self) -> Optional[Expr]:
        """The :pre precondition expression, if any."""
        value = self.properties.get("pre")
        return value if isinstance(value, Expr) else None


Number = Union[int, float, Fraction]


def _format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


#: Hash-consing table for :func:`num` literals, keyed by input type and
#: value so spellings with different renderings never conflate.
_NUM_INTERN: Dict[tuple, Num] = {}

#: Bound on the literal table: a long-lived process analyzing many
#: programs sees an unbounded stream of distinct constants, so the
#: table resets (cheap — interning is an optimization, not a semantic)
#: rather than growing monotonically.
_NUM_INTERN_LIMIT = 65536


def num(value: Number) -> Num:
    """Make a literal from a Python number (floats are taken exactly).

    Results are hash-consed per (type, value): anti-unification turns
    every constant trace leaf into a literal on every first-seen trace,
    and loop bodies replay the same constants indefinitely.
    """
    key = (value.__class__, value)
    try:
        cached = _NUM_INTERN.get(key)
    except TypeError:  # unhashable exotic Number subclass: build fresh
        cached = None
        key = None
    if cached is not None:
        return cached
    result = _build_num(value)
    if key is not None and value == value:  # never cache under NaN keys
        if len(_NUM_INTERN) >= _NUM_INTERN_LIMIT:
            _NUM_INTERN.clear()
        _NUM_INTERN[key] = result
    return result


def _build_num(value: Number) -> Num:
    if isinstance(value, Fraction):
        return Num(value)
    if isinstance(value, int):
        return Num(Fraction(value))
    import math

    if not math.isfinite(value):
        # Fraction cannot hold inf/NaN; render as the named constants.
        if math.isnan(value):
            return Num(Fraction(0), text="NAN")
        return Num(Fraction(0), text="INFINITY" if value > 0 else "(- INFINITY)")
    if value == int(value) and abs(value) < 1e16:
        # Render small integral doubles without the trailing ".0".
        return Num(Fraction(value), text=str(int(value)))
    return Num(Fraction(value), text=repr(value))


def free_variables(expr: Expr) -> Tuple[str, ...]:
    """Free variables of ``expr`` in first-occurrence order."""
    seen: Dict[str, None] = {}

    def walk(node: Expr, bound: frozenset) -> None:
        if isinstance(node, Var):
            if node.name not in bound and node.name not in seen:
                seen[node.name] = None
        elif isinstance(node, Op):
            for arg in node.args:
                walk(arg, bound)
        elif isinstance(node, If):
            walk(node.cond, bound)
            walk(node.then, bound)
            walk(node.orelse, bound)
        elif isinstance(node, Let):
            inner = bound
            for name, value in node.bindings:
                walk(value, inner if node.sequential else bound)
                if node.sequential:
                    inner = inner | {name}
            if not node.sequential:
                inner = bound | {name for name, __ in node.bindings}
            walk(node.body, inner)
        elif isinstance(node, While):
            # Textual order: condition, then each binding's init and
            # update, then the body (inits run in the outer scope).
            names = frozenset(name for name, __, ___ in node.bindings)
            walk(node.cond, bound | names)
            for __, init, update in node.bindings:
                walk(init, bound)
                walk(update, bound | names)
            walk(node.body, bound | names)

    walk(expr, frozenset())
    return tuple(seen)


def expression_size(expr: Expr) -> int:
    """Number of operator nodes in ``expr`` (the paper's expression size)."""
    if isinstance(expr, Op):
        return 1 + sum(expression_size(a) for a in expr.args)
    if isinstance(expr, If):
        return 1 + sum(
            expression_size(e) for e in (expr.cond, expr.then, expr.orelse)
        )
    if isinstance(expr, Let):
        return sum(expression_size(e) for __, e in expr.bindings) + expression_size(
            expr.body
        )
    if isinstance(expr, While):
        total = expression_size(expr.cond) + expression_size(expr.body)
        for __, init, update in expr.bindings:
            total += expression_size(init) + expression_size(update)
        return total
    return 0


def expression_depth(expr: Expr) -> int:
    """Depth of the operator tree (leaves are depth 1)."""
    if isinstance(expr, Op):
        return 1 + max((expression_depth(a) for a in expr.args), default=0)
    if isinstance(expr, If):
        return 1 + max(
            expression_depth(e) for e in (expr.cond, expr.then, expr.orelse)
        )
    if isinstance(expr, (Let, While)):
        return 1 + expression_depth(expr.body)
    return 1


def substitute(expr: Expr, replacements: Dict[str, Expr]) -> Expr:
    """Replace free variables by expressions (capture-naive: FPCore
    corpus bodies never shadow the replaced names in our uses)."""
    if isinstance(expr, Var):
        return replacements.get(expr.name, expr)
    if isinstance(expr, Op):
        return Op(expr.op, tuple(substitute(a, replacements) for a in expr.args))
    if isinstance(expr, If):
        return If(
            substitute(expr.cond, replacements),
            substitute(expr.then, replacements),
            substitute(expr.orelse, replacements),
        )
    if isinstance(expr, Let):
        new_bindings = tuple(
            (name, substitute(value, replacements)) for name, value in expr.bindings
        )
        shadowed = {name for name, __ in expr.bindings}
        inner = {k: v for k, v in replacements.items() if k not in shadowed}
        return Let(new_bindings, substitute(expr.body, inner), expr.sequential)
    if isinstance(expr, While):
        shadowed = {name for name, __, ___ in expr.bindings}
        inner = {k: v for k, v in replacements.items() if k not in shadowed}
        new_bindings = tuple(
            (name, substitute(init, replacements), substitute(update, inner))
            for name, init, update in expr.bindings
        )
        return While(
            substitute(expr.cond, inner), new_bindings,
            substitute(expr.body, inner), expr.sequential,
        )
    return expr
