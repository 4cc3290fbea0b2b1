"""S-expression lexer and parser for FPCore.

Supports the FPCore 1.x constructs the corpus and reports need:
operators, literals (integer, decimal, rational, scientific), named
constants, let/let*, while/while*, if, preconditions and other
properties, and the ``!`` annotation form (parsed, annotations dropped).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple, Union

from repro.fpcore.ast import (
    CONSTANTS,
    Const,
    Expr,
    FPCore,
    If,
    Let,
    Num,
    Op,
    Var,
    While,
)


class FPCoreSyntaxError(ValueError):
    """Raised when FPCore source text cannot be parsed."""


_TOKEN_PATTERN = re.compile(
    r"""
      (?P<comment>;[^\n]*)
    | (?P<open>[(\[])
    | (?P<close>[)\]])
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<atom>[^\s()\[\];"]+)
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> Iterator[str]:
    """Yield tokens, dropping comments; ( and [ are normalized."""
    position = 0
    for match in _TOKEN_PATTERN.finditer(source):
        between = source[position : match.start()]
        if between.strip():
            raise FPCoreSyntaxError(f"unexpected characters: {between.strip()!r}")
        position = match.end()
        kind = match.lastgroup
        if kind == "comment":
            continue
        text = match.group()
        if kind == "open":
            yield "("
        elif kind == "close":
            yield ")"
        else:
            yield text
    if source[position:].strip():
        raise FPCoreSyntaxError(f"unexpected trailing text: {source[position:]!r}")


SExpr = Union[str, List["SExpr"]]


#: Deepest parenthesis nesting a source may have.  Parsing, printing,
#: compiling and analysing an expression all recurse on its depth, so
#: a deeper input would exhaust the interpreter's recursion limit
#: somewhere past the parser; it is refused here, as a syntax error.
MAX_NESTING_DEPTH = 256


def _read_sexprs(tokens: List[str]) -> List[SExpr]:
    result: List[SExpr] = []
    stack: List[List[SExpr]] = []
    for token in tokens:
        if token == "(":
            if len(stack) == MAX_NESTING_DEPTH:
                raise FPCoreSyntaxError(
                    f"nesting deeper than {MAX_NESTING_DEPTH} levels"
                )
            stack.append([])
        elif token == ")":
            if not stack:
                raise FPCoreSyntaxError("unbalanced ')'")
            finished = stack.pop()
            if stack:
                stack[-1].append(finished)
            else:
                result.append(finished)
        else:
            if stack:
                stack[-1].append(token)
            else:
                result.append(token)
    if stack:
        raise FPCoreSyntaxError("unbalanced '('")
    return result


_DECIMAL_PATTERN = re.compile(
    r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$"
)
_RATIONAL_PATTERN = re.compile(r"^[+-]?\d+/\d+$")
_HEX_PATTERN = re.compile(r"^[+-]?0x[0-9a-fA-F]+(\.[0-9a-fA-F]*)?(p[+-]?\d+)?$")


def parse_number(token: str) -> Optional[Fraction]:
    """Parse a numeric token to its exact rational value, or None."""
    if _DECIMAL_PATTERN.match(token):
        return _decimal_to_fraction(token)
    if _RATIONAL_PATTERN.match(token):
        numerator, denominator = token.split("/")
        return Fraction(int(numerator), int(denominator))
    if _HEX_PATTERN.match(token):
        return Fraction(float.fromhex(token))
    return None


def _decimal_to_fraction(token: str) -> Fraction:
    mantissa = token
    exponent = 0
    for e in ("e", "E"):
        if e in token:
            mantissa, exp_text = token.split(e)
            exponent = int(exp_text)
            break
    if "." in mantissa:
        whole, fractional = mantissa.split(".")
        digits = (whole or "0") + fractional
        exponent -= len(fractional)
    else:
        digits = mantissa
    value = Fraction(int(digits or "0"))
    return value * Fraction(10) ** exponent


def _parse_expr(sexpr: SExpr) -> Expr:
    if isinstance(sexpr, str):
        number = parse_number(sexpr)
        if number is not None:
            return Num(number, text=sexpr)
        if sexpr in CONSTANTS:
            return Const(sexpr)
        return Var(sexpr)
    if not sexpr:
        raise FPCoreSyntaxError("empty application ()")
    head = sexpr[0]
    if not isinstance(head, str):
        raise FPCoreSyntaxError(f"expected operator, got {head!r}")
    if head == "if":
        if len(sexpr) != 4:
            raise FPCoreSyntaxError("if needs exactly 3 sub-expressions")
        return If(*(_parse_expr(part) for part in sexpr[1:]))
    if head in ("let", "let*"):
        return _parse_let(sexpr, sequential=head.endswith("*"))
    if head in ("while", "while*"):
        return _parse_while(sexpr, sequential=head.endswith("*"))
    if head == "!":
        # Annotation: (! :prop value ... expr); properties are dropped.
        return _parse_expr(sexpr[-1])
    args = tuple(_parse_expr(part) for part in sexpr[1:])
    if head == "-" and len(args) == 1:
        return Op("neg", args)
    if head == "+" and len(args) == 1:
        return args[0]
    return Op(head, args)


def _parse_let(sexpr: SExpr, sequential: bool) -> Let:
    if len(sexpr) != 3 or not isinstance(sexpr[1], list):
        raise FPCoreSyntaxError("let needs a binding list and a body")
    bindings = []
    for binding in sexpr[1]:
        if not (isinstance(binding, list) and len(binding) == 2
                and isinstance(binding[0], str)):
            raise FPCoreSyntaxError(f"bad let binding: {binding!r}")
        bindings.append((binding[0], _parse_expr(binding[1])))
    return Let(tuple(bindings), _parse_expr(sexpr[2]), sequential)


def _parse_while(sexpr: SExpr, sequential: bool) -> While:
    if len(sexpr) != 4 or not isinstance(sexpr[2], list):
        raise FPCoreSyntaxError("while needs a condition, bindings, and a body")
    bindings = []
    for binding in sexpr[2]:
        if not (isinstance(binding, list) and len(binding) == 3
                and isinstance(binding[0], str)):
            raise FPCoreSyntaxError(f"bad while binding: {binding!r}")
        bindings.append(
            (binding[0], _parse_expr(binding[1]), _parse_expr(binding[2]))
        )
    return While(
        _parse_expr(sexpr[1]), tuple(bindings), _parse_expr(sexpr[3]), sequential
    )


def parse_expr(source: str) -> Expr:
    """Parse a single FPCore expression from text."""
    sexprs = _read_sexprs(list(tokenize(source)))
    if len(sexprs) != 1:
        raise FPCoreSyntaxError(f"expected one expression, found {len(sexprs)}")
    return _parse_expr(sexprs[0])


def parse_fpcore(source: str) -> FPCore:
    """Parse a single (FPCore ...) form from text."""
    cores = parse_fpcores(source)
    if len(cores) != 1:
        raise FPCoreSyntaxError(f"expected one FPCore, found {len(cores)}")
    return cores[0]


def parse_fpcores(source: str) -> List[FPCore]:
    """Parse every (FPCore ...) form in ``source``."""
    sexprs = _read_sexprs(list(tokenize(source)))
    return [_parse_fpcore(s) for s in sexprs]


def _parse_fpcore(sexpr: SExpr) -> FPCore:
    if not (isinstance(sexpr, list) and sexpr and sexpr[0] == "FPCore"):
        raise FPCoreSyntaxError("expected (FPCore ...)")
    rest = sexpr[1:]
    name: Optional[str] = None
    if rest and isinstance(rest[0], str):
        name = rest[0]
        rest = rest[1:]
    if not rest or not isinstance(rest[0], list):
        raise FPCoreSyntaxError("FPCore needs an argument list")
    arguments = _parse_arguments(rest[0])
    rest = rest[1:]
    properties = {}
    index = 0
    while index + 1 < len(rest) and isinstance(rest[index], str) \
            and rest[index].startswith(":"):
        key = rest[index][1:]
        properties[key] = _parse_property(key, rest[index + 1])
        index += 2
    if index != len(rest) - 1:
        raise FPCoreSyntaxError("FPCore needs exactly one body expression")
    body = _parse_expr(rest[index])
    if properties.get("name") and name is None:
        name = str(properties["name"])
    return FPCore(arguments=arguments, body=body, name=name, properties=properties)


def _parse_arguments(sexpr: List[SExpr]) -> Tuple[str, ...]:
    arguments = []
    for arg in sexpr:
        if isinstance(arg, str):
            arguments.append(arg)
        elif isinstance(arg, list) and arg and arg[0] == "!":
            # Annotated argument: (! :prop value ... name)
            last = arg[-1]
            if not isinstance(last, str):
                raise FPCoreSyntaxError(f"bad annotated argument: {arg!r}")
            arguments.append(last)
        else:
            raise FPCoreSyntaxError(f"bad argument: {arg!r}")
    return tuple(arguments)


def _parse_property(key: str, value: SExpr) -> object:
    if key in ("pre", "spec", "herbie-target", "alt"):
        return _parse_expr(value)
    if isinstance(value, str):
        if value.startswith('"') and value.endswith('"'):
            return value[1:-1]
        return value
    return value
