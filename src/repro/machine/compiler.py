"""Compiling FPCore benchmarks to machine programs.

The paper compiles FPBench benchmarks to native code with the
FPCore-to-C compiler and GCC, then analyses the binaries (Section 8.1).
This module is the analogue: it lowers FPCore ASTs to the machine IR.

Lowering decisions mirror what a C compiler does:

* numeric literals are rounded to double at compile time,
* named constants become double literals (like C's ``M_PI``),
* hardware operations become FloatOp instructions; math-library
  operations become ``Call`` instructions so that wrapping applies,
* ``if`` and boolean operators lower to conditional branches — each
  float comparison is a machine branch, i.e. a Herbgrind control spot,
* ``while`` loops lower to branch/jump cycles,
* a benchmark's entry point Reads one input per argument and Outs the
  final result (the driver loop the paper links against each benchmark).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bigfloat.functions import ALL_OPERATIONS
from repro.fpcore.ast import (
    BOOLEAN_OPS,
    COMPARISON_OPS,
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
from repro.fpcore.evaluator import _double_constant
from repro.machine.builder import FunctionBuilder, Reg
from repro.machine.isa import Function, Program
from repro.resilience.errors import InvalidInputError

#: FPCore comparison op -> machine branch predicate.
_PREDICATE = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne"}


class CompileError(ValueError):
    """Raised when an FPCore construct cannot be lowered."""


class UnknownFunctionError(CompileError, InvalidInputError):
    """A call to a function that is neither a hardware operation nor a
    math-library routine.  Caught at compile time: at run time it
    would fail identically in every engine configuration."""

    def __init__(self, program: str, function: str) -> None:
        super().__init__(
            f"{program}: unknown function {function!r}"
            " (not a hardware or math-library operation)"
        )
        self.program = program
        self.function = function


class UnboundVariableError(CompileError, InvalidInputError):
    """A reference to a variable that is neither an argument nor bound
    by an enclosing ``let`` or ``while``.  Like an unknown function, it
    is wrong in every engine configuration, so it is a client error."""

    def __init__(self, program: str, variable: str) -> None:
        super().__init__(f"{program}: unbound variable {variable}")
        self.program = program
        self.variable = variable


class _ExprCompiler:
    def __init__(self, builder: FunctionBuilder, loc_prefix: str,
                 program: str) -> None:
        self.builder = builder
        self.loc_prefix = loc_prefix
        self.program = program
        self._node_counter = 0

    def _loc(self) -> str:
        self._node_counter += 1
        return f"{self.loc_prefix}:{self._node_counter}"

    # ------------------------------------------------------------------
    # Value expressions
    # ------------------------------------------------------------------

    def compile(self, expr: Expr, env: Dict[str, Reg]) -> Reg:
        if isinstance(expr, Num):
            return self.builder.const(float(expr.value), loc=self._loc())
        if isinstance(expr, Const):
            constant = _double_constant(expr.name)
            if isinstance(constant, bool):
                raise CompileError(
                    f"boolean constant {expr.name} in value position"
                )
            return self.builder.const(constant, loc=self._loc())
        if isinstance(expr, Var):
            try:
                return env[expr.name]
            except KeyError:
                raise UnboundVariableError(self.program, expr.name) from None
        if isinstance(expr, Op):
            if expr.op in COMPARISON_OPS or expr.op in BOOLEAN_OPS:
                raise CompileError(
                    f"boolean operator {expr.op} in value position"
                )
            if expr.op not in ALL_OPERATIONS:
                raise UnknownFunctionError(self.program, expr.op)
            args = [self.compile(arg, env) for arg in expr.args]
            return self.builder.op(expr.op, *args, loc=self._loc())
        if isinstance(expr, If):
            return self._compile_if(expr, env)
        if isinstance(expr, Let):
            scope = dict(env)
            if expr.sequential:
                for name, value in expr.bindings:
                    scope[name] = self.compile(value, scope)
            else:
                compiled = [
                    (name, self.compile(value, env)) for name, value in expr.bindings
                ]
                scope.update(compiled)
            return self.compile(expr.body, scope)
        if isinstance(expr, While):
            return self._compile_while(expr, env)
        raise CompileError(f"cannot compile {type(expr).__name__}")

    def _compile_if(self, expr: If, env: Dict[str, Reg]) -> Reg:
        builder = self.builder
        result = builder.fresh("phi")
        else_label = builder.fresh_label("else")
        end_label = builder.fresh_label("endif")
        self.compile_condition(expr.cond, env, jump_if_false=else_label)
        then_value = self.compile(expr.then, env)
        builder.mov_to(result, then_value, loc=self._loc())
        builder.jump(end_label)
        builder.label(else_label)
        else_value = self.compile(expr.orelse, env)
        builder.mov_to(result, else_value, loc=self._loc())
        builder.label(end_label)
        return result

    def _compile_while(self, expr: While, env: Dict[str, Reg]) -> Reg:
        builder = self.builder
        scope = dict(env)
        # Loop variables live in dedicated mutable registers.
        cells: Dict[str, Reg] = {}
        if expr.sequential:
            for name, init, __ in expr.bindings:
                value = self.compile(init, scope)
                cell = builder.fresh(f"loop_{name}")
                builder.mov_to(cell, value, loc=self._loc())
                cells[name] = cell
                scope[name] = cell
        else:
            initial = [
                (name, self.compile(init, env))
                for name, init, __ in expr.bindings
            ]
            for name, value in initial:
                cell = builder.fresh(f"loop_{name}")
                builder.mov_to(cell, value, loc=self._loc())
                cells[name] = cell
                scope[name] = cell
        head = builder.label(builder.fresh_label("loop"))
        exit_label = builder.fresh_label("done")
        self.compile_condition(expr.cond, scope, jump_if_false=exit_label)
        if expr.sequential:
            for name, __, update in expr.bindings:
                value = self.compile(update, scope)
                builder.mov_to(cells[name], value, loc=self._loc())
        else:
            updated = [
                (name, self.compile(update, scope))
                for name, __, update in expr.bindings
            ]
            for name, value in updated:
                builder.mov_to(cells[name], value, loc=self._loc())
        builder.jump(head)
        builder.label(exit_label)
        return self.compile(expr.body, scope)

    # ------------------------------------------------------------------
    # Conditions (compiled to control flow, so comparisons become spots)
    # ------------------------------------------------------------------

    def compile_condition(
        self, expr: Expr, env: Dict[str, Reg], jump_if_false: str
    ) -> None:
        """Emit code that falls through when ``expr`` is true."""
        builder = self.builder
        if isinstance(expr, Const):
            if expr.name == "TRUE":
                return
            if expr.name == "FALSE":
                builder.jump(jump_if_false)
                return
            raise CompileError(f"constant {expr.name} in condition")
        if isinstance(expr, Op) and expr.op == "not":
            # Fall through when the operand is false.
            past = builder.fresh_label("not")
            self.compile_condition(expr.args[0], env, jump_if_false=past)
            builder.jump(jump_if_false)
            builder.label(past)
            return
        if isinstance(expr, Op) and expr.op == "and":
            for arg in expr.args:
                self.compile_condition(arg, env, jump_if_false=jump_if_false)
            return
        if isinstance(expr, Op) and expr.op == "or":
            done = builder.fresh_label("or")
            for arg in expr.args[:-1]:
                next_try = builder.fresh_label("try")
                self.compile_condition(arg, env, jump_if_false=next_try)
                builder.jump(done)
                builder.label(next_try)
            self.compile_condition(expr.args[-1], env, jump_if_false=jump_if_false)
            builder.label(done)
            return
        if isinstance(expr, Op) and expr.op in COMPARISON_OPS:
            # Branch-on-true then jump: simply inverting the predicate
            # would be wrong for NaN (both < and >= are false), so we
            # emit the same branch/jump pair a C compiler does.
            values = [self.compile(arg, env) for arg in expr.args]
            predicate = _PREDICATE[expr.op]
            for lhs, rhs in zip(values, values[1:]):
                holds = builder.fresh_label("cmp")
                builder.branch(predicate, lhs, rhs, holds, loc=self._loc())
                builder.jump(jump_if_false)
                builder.label(holds)
            return
        raise CompileError(
            f"cannot compile condition {type(expr).__name__}/{getattr(expr, 'op', '')}"
        )


def compile_fpcore(
    core: FPCore, name: Optional[str] = None, loc_prefix: Optional[str] = None
) -> Program:
    """Compile a benchmark into a standalone program.

    The entry function reads one input per FPCore argument, evaluates
    the body, and Outs the result — mirroring the driver the paper
    compiles around each FPBench benchmark.
    """
    program_name = name or core.name or "benchmark"
    prefix = loc_prefix or f"{program_name}.c"
    builder = FunctionBuilder("main")
    compiler = _ExprCompiler(builder, prefix, program_name)
    env: Dict[str, Reg] = {}
    for argument in core.arguments:
        env[argument] = builder.read(loc=f"{prefix}:arg-{argument}")
    result = compiler.compile(core.body, env)
    builder.out(result, loc=f"{prefix}:output")
    builder.halt()
    program = Program()
    program.add(builder.build())
    return program


def compile_expression(
    body: Expr, arguments, name: str = "expr", loc_prefix: Optional[str] = None
) -> Program:
    """Compile a bare expression with the given argument order."""
    core = FPCore(arguments=tuple(arguments), body=body, name=name)
    return compile_fpcore(core, name=name, loc_prefix=loc_prefix)
