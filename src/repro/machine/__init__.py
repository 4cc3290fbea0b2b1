"""The abstract float machine: the reproduction's Valgrind/VEX substitute.

Programs are lists of IR instructions over float/int registers, a heap,
branches, and calls (paper Figure 2 extended with the Section 5
realities: two precisions, SIMD-style packed ops, bitwise float tricks,
untyped memory).  The interpreter takes a :class:`Tracer` — the
instrumentation seam where Herbgrind and the comparison tools attach.
"""

from repro.machine import isa
from repro.machine.batched import BatchedProgram
from repro.machine.builder import FunctionBuilder
from repro.machine.compiled import CompiledProgram
from repro.machine.compiler import (
    CompileError,
    UnknownFunctionError,
    compile_expression,
    compile_fpcore,
)
from repro.machine.interpreter import (
    ExecutionStats,
    Interpreter,
    MachineError,
    Tracer,
)
from repro.machine.isa import Function, Program
from repro.machine.libm import MAGIC_ROUND, build_libm
from repro.machine.values import FloatBox

__all__ = [
    "BatchedProgram",
    "CompileError",
    "UnknownFunctionError",
    "CompiledProgram",
    "ExecutionStats",
    "FloatBox",
    "Function",
    "FunctionBuilder",
    "Interpreter",
    "MachineError",
    "MAGIC_ROUND",
    "Program",
    "Tracer",
    "build_libm",
    "compile_expression",
    "compile_fpcore",
    "isa",
]
