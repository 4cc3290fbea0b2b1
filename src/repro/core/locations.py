"""Per-node source locations for extracted expressions.

The paper's footnote 5: automating repair insertion is future work,
"but Herbgrind can provide source locations for each node in the
extracted expression".  This module computes that mapping: for a
symbolic expression and the concrete trace it generalizes, every
operator position is annotated with the source location of the
instruction that produced it — letting a developer navigate from the
abstract fragment back into the (possibly multi-file, multi-language)
program.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.trace import TracePool, trace_view
from repro.fpcore.ast import Expr, Op

Path = Tuple[int, ...]


def map_node_locations(
    symbolic: Expr, trace: int, pool: TracePool
) -> Dict[Path, Optional[str]]:
    """Source location for every operator position of ``symbolic``.

    ``trace`` is the concrete trace the expression generalizes (the
    most recent one), an ident into ``pool``.  The walk follows the expression, descending
    only where its operator matches the trace's, so its cost is the
    expression's size however large the trace DAG is.  Positions are
    child-index paths from the root, as in :mod:`repro.improve.patterns`.
    """
    view = trace_view(pool)
    locations: Dict[Path, Optional[str]] = {}
    stack = [(symbolic, trace, ())]
    while stack:
        sym, node, path = stack.pop()
        if not isinstance(sym, Op):
            continue
        is_op, op, node_args, _, loc = view(node)
        if is_op and sym.op == op and len(sym.args) == len(node_args):
            locations[path] = loc
            stack.extend(
                (sym_arg, trace_arg, path + (index,))
                for index, (sym_arg, trace_arg)
                in enumerate(zip(sym.args, node_args))
            )
    return locations


def format_located_expression(
    symbolic: Expr, locations: Dict[Path, Optional[str]]
) -> str:
    """Render the expression with one line per operator node.

    Example output::

        (- ...)          csqrt.cpp:10
          (sqrt ...)     csqrt.cpp:7
            (+ ...)      csqrt.cpp:7
    """
    from repro.fpcore.printer import format_expr

    lines = []

    def walk(sym: Expr, path: Path, depth: int) -> None:
        if not isinstance(sym, Op):
            return
        location = locations.get(path) or "<unknown>"
        compact = f"({sym.op} ...)" if sym.args else f"({sym.op})"
        lines.append(f"{'  ' * depth}{compact:<{max(4, 28 - 2 * depth)}} {location}")
        for index, argument in enumerate(sym.args):
            walk(argument, path + (index,), depth + 1)

    walk(symbolic, (), 0)
    if not lines:
        return format_expr(symbolic)
    return "\n".join(lines)
