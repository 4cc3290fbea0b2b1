"""Rendering FPCore ASTs back to text.

Herbgrind reports present each root cause as an FPCore form with a
:pre describing observed input ranges (Section 3 of the paper shows the
format); this module produces that text.
"""

from __future__ import annotations

from typing import List

from repro.fpcore.ast import (
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


def format_expr(expr: Expr) -> str:
    """Render an expression as a single-line s-expression."""
    if isinstance(expr, Num):
        return expr.text
    if isinstance(expr, (Const, Var)):
        return expr.name
    if isinstance(expr, Op):
        operator = "-" if expr.op == "neg" else expr.op
        return "(" + " ".join([operator] + [format_expr(a) for a in expr.args]) + ")"
    if isinstance(expr, If):
        parts = [format_expr(e) for e in (expr.cond, expr.then, expr.orelse)]
        return f"(if {parts[0]} {parts[1]} {parts[2]})"
    if isinstance(expr, Let):
        keyword = "let*" if expr.sequential else "let"
        bindings = " ".join(
            f"[{name} {format_expr(value)}]" for name, value in expr.bindings
        )
        return f"({keyword} ({bindings}) {format_expr(expr.body)})"
    if isinstance(expr, While):
        keyword = "while*" if expr.sequential else "while"
        bindings = " ".join(
            f"[{name} {format_expr(init)} {format_expr(update)}]"
            for name, init, update in expr.bindings
        )
        condition = format_expr(expr.cond)
        return f"({keyword} {condition} ({bindings}) {format_expr(expr.body)})"
    raise TypeError(f"cannot format {type(expr).__name__}")


def format_fpcore(core: FPCore, multiline: bool = False) -> str:
    """Render a full (FPCore ...) form.

    With ``multiline`` the properties land on their own lines, matching
    the shape of the report in the paper's Section 3.
    """
    parts: List[str] = ["FPCore"]
    properties = core.properties
    if core.name and properties.get("name") != core.name:
        if " " in core.name:
            # Not a symbol: the name travels as the :name property, so
            # the text (and every key derived from it) keeps it.
            properties = dict(properties, name=core.name)
        else:
            parts.append(core.name)
    parts.append("(" + " ".join(core.arguments) + ")")
    property_chunks: List[str] = []
    for key, value in properties.items():
        if isinstance(value, Expr):
            rendered = format_expr(value)
        elif isinstance(value, str) and (" " in value or not value):
            rendered = f'"{value}"'
        else:
            rendered = str(value)
        property_chunks.append(f":{key} {rendered}")
    body = format_expr(core.body)
    if multiline:
        lines = ["(" + " ".join(parts)]
        lines.extend(f"  {chunk}" for chunk in property_chunks)
        lines.append(f"  {body})")
        return "\n".join(lines)
    chunks = parts + property_chunks + [body]
    return "(" + " ".join(chunks) + ")"
