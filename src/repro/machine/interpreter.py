"""The machine interpreter, with tracer hooks for dynamic analyses.

The interpreter executes :class:`~repro.machine.isa.Program` objects the
way Valgrind executes a client binary.  A :class:`Tracer` receives a
callback per analysed event — this is the reproduction's analogue of
VEX instrumentation.  The Herbgrind analysis, FpDebug, BZ and Verrou
are all tracers; running with the default no-op tracer measures native
(uninstrumented) speed for the overhead experiments.

Library calls (`Call` to a name in ``LIBRARY_OPERATIONS``) are where
wrapping happens: with ``wrap_libraries=True`` (the default, paper
Section 5.3) the call is executed as a single atomic operation and the
tracer sees ``on_library``; with wrapping off the interpreter inlines
the software-libm IR body (Section 8.2's ablation), so the tracer sees
hundreds of primitive operations, magic constants and all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.bigfloat.functions import DOUBLE_HANDLERS, LIBRARY_OPERATIONS
from repro.ieee.float32 import to_single
from repro.machine import isa
from repro.machine.values import FloatBox

Value = Union[FloatBox, int]


class MachineError(RuntimeError):
    """Raised on ill-formed programs or runaway execution."""


class Tracer:
    """Analysis callbacks; the base class is a no-op (native execution).

    Callbacks that produce a float may return a replacement value to
    override the machine's result (used by the Verrou-style analysis to
    perturb rounding); returning None keeps the hardware result.
    """

    def on_start(self, interpreter: "Interpreter") -> None:
        """Execution is about to begin."""

    def fused_site_callback(self, instr: isa.Instr, op: str, arity: int,
                            single: bool = False):
        """A per-site analysis step, or None for the generic path.

        The compiled and batched engines query this once per float-op /
        wrapped library-call instruction at compile time.  A non-None
        return replaces the per-event ``on_op``/``on_library`` dispatch
        for that site; the Herbgrind analysis binds it from one
        template, generated once per process per arity and config
        flags, never per site.  The engine computes the machine result itself
        and calls the step with unboxed arguments —
        ``step(sa, sb, av, bv, value)`` or ``step(sa, av, value)``:
        argument shadows, argument values, result value — filling a
        missing argument shadow with :meth:`opaque_shadow` first.  The
        step returns the result's shadow, which the compiled engine
        stores on the result box and the batched engine in the lane's
        column; the result value cannot be overridden.  The base tracer
        — and with it every analysis that does not site-compile —
        returns None, and the reference interpreter never asks: it is
        the unfused oracle the site steps are checked against.
        """
        return None

    def fused_const_callback(self, instr: isa.Instr):
        """A per-site fused replacement for ``on_const``
        (``callback(box)``), or None for the generic dispatch.  Same
        contract and caveats as :meth:`fused_site_callback`."""
        return None

    def fused_branch_callback(self, instr: isa.Branch):
        """A per-site fused replacement for ``on_branch``
        (``step(left_shadow, right_shadow, taken)``, missing shadows
        filled as for :meth:`fused_site_callback`), or None for the
        generic dispatch.  The batched engine calls it once per lane."""
        return None

    def opaque_shadow(self, value: float):
        """The shadow of a float that reaches a site step without one
        (a bitcast result).  The engine stores it on the box or in the
        lane column, so later consumers share it.  Only asked for by
        engines running steps this tracer returned."""
        return None

    def on_batch_start(self, machine, lanes: int) -> None:
        """A batch of ``lanes`` lockstep executions is about to begin.

        Default: behave exactly like one sequential ``on_start`` — a
        batch is one run shared by all its lanes.
        """
        self.on_start(machine)

    def on_batch_finish(self, machine) -> None:
        """The current batch of lockstep executions halted."""
        self.on_finish(machine)

    def on_const(self, instr: isa.Instr, box: FloatBox) -> None:
        """A floating-point constant was materialized."""

    def on_read(self, instr: isa.Read, box: FloatBox, index: int) -> None:
        """A program input was read (index = position in input stream)."""

    def on_op(
        self, instr: isa.Instr, op: str, args: Sequence[FloatBox], result: FloatBox
    ) -> Optional[float]:
        """A floating-point operation executed."""
        return None

    def on_library(
        self, instr: isa.Call, name: str, args: Sequence[FloatBox], result: FloatBox
    ) -> Optional[float]:
        """A wrapped math-library call executed as one atomic operation."""
        return None

    def on_bitop(
        self, instr: isa.FloatBitOp, box: FloatBox, result: FloatBox
    ) -> None:
        """A bitwise operation on a float register executed."""

    def on_int_to_float(self, instr: isa.IntToFloat, value: int, box: FloatBox) -> None:
        """An integer was converted to floating point."""

    def on_float_to_int(
        self, instr: isa.FloatToInt, box: FloatBox, result: int
    ) -> None:
        """A float→int conversion executed (a conversion spot)."""

    def on_branch(
        self, instr: isa.Branch, lhs: FloatBox, rhs: FloatBox, taken: bool
    ) -> None:
        """A floating-point conditional branch executed (a control spot)."""

    def on_out(self, instr: isa.Out, box: FloatBox) -> None:
        """A value reached a program output (an output spot)."""

    def on_finish(self, interpreter: "Interpreter") -> None:
        """Execution halted."""


@dataclass
class ExecutionStats:
    """Dynamic instruction counts, for the overhead experiments."""

    steps: int = 0
    float_ops: int = 0
    library_calls: int = 0
    branches: int = 0
    loads: int = 0
    stores: int = 0
    calls: int = 0


@dataclass
class _Frame:
    function: isa.Function
    registers: Dict[str, Value] = field(default_factory=dict)
    pc: int = 0
    return_register: Optional[str] = None


class Interpreter:
    """Executes a program under an optional tracer."""

    def __init__(
        self,
        program: isa.Program,
        tracer: Optional[Tracer] = None,
        wrap_libraries: bool = True,
        libm: Optional[Dict[str, isa.Function]] = None,
        max_steps: int = 50_000_000,
        double_handlers: Optional[Dict[str, Callable[..., float]]] = None,
    ) -> None:
        self.program = program
        self.tracer = tracer if tracer is not None else Tracer()
        self.wrap_libraries = wrap_libraries
        self.libm = libm if libm is not None else {}
        self.max_steps = max_steps
        #: ⟦f⟧_F handler table (substrate-selected); defaults to the
        #: module table, whose semantics every substrate preserves.
        self._double_handlers = (
            double_handlers if double_handlers is not None
            else DOUBLE_HANDLERS
        )
        self.memory: Dict[int, Value] = {}
        self.outputs: List[float] = []
        self.stats = ExecutionStats()
        self._inputs: List[float] = []
        self._input_position = 0

    def _apply_double(self, operation: str, args: Sequence[float]) -> float:
        """⟦f⟧_F through this interpreter's substrate handler table."""
        handler = self._double_handlers.get(operation)
        if handler is None:
            raise KeyError(f"unknown operation: {operation!r}")
        return handler(*args)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, inputs: Sequence[float] = ()) -> List[float]:
        """Execute from the entry function; returns the Out values.

        Each run starts from fresh memory, outputs, and stats — the
        same construct-once/run-many contract as the compiled engine,
        so one Interpreter can be reused across input sets.
        """
        self._inputs = [float(v) for v in inputs]
        self._input_position = 0
        self.outputs = []
        self.memory = {}
        self.stats = ExecutionStats()
        self.tracer.on_start(self)
        frames = [_Frame(self.program.function(self.program.entry))]
        while frames:
            frame = frames[-1]
            if frame.pc >= len(frame.function.instrs):
                # Falling off the end of a function behaves like Ret/Halt.
                frames.pop()
                continue
            instr = frame.function.instrs[frame.pc]
            self.stats.steps += 1
            if self.stats.steps > self.max_steps:
                raise MachineError(
                    f"exceeded {self.max_steps} steps (infinite loop?)"
                )
            advance = self._execute(instr, frame, frames)
            if advance is StopIteration:
                break
        self.tracer.on_finish(self)
        return self.outputs

    # ------------------------------------------------------------------
    # Register access
    # ------------------------------------------------------------------

    @staticmethod
    def _float_box(frame: _Frame, register: str) -> FloatBox:
        value = frame.registers.get(register)
        if not isinstance(value, FloatBox):
            raise MachineError(f"register {register!r} does not hold a float")
        return value

    @staticmethod
    def _int_value(frame: _Frame, register: str) -> int:
        value = frame.registers.get(register)
        if isinstance(value, bool) or not isinstance(value, int):
            raise MachineError(f"register {register!r} does not hold an integer")
        return value

    # ------------------------------------------------------------------
    # Instruction dispatch
    # ------------------------------------------------------------------

    def _execute(self, instr: isa.Instr, frame: _Frame, frames: List[_Frame]):
        if isinstance(instr, isa.Const):
            value = to_single(instr.value) if instr.single else float(instr.value)
            box = FloatBox(value)
            frame.registers[instr.dst] = box
            self.tracer.on_const(instr, box)
        elif isinstance(instr, isa.ConstInt):
            frame.registers[instr.dst] = instr.value
        elif isinstance(instr, isa.FloatOp):
            self._float_op(instr, frame)
        elif isinstance(instr, isa.PackedOp):
            self._packed_op(instr, frame)
        elif isinstance(instr, isa.FloatBitOp):
            self._float_bit_op(instr, frame)
        elif isinstance(instr, isa.IntOp):
            frame.registers[instr.dst] = _int_alu(
                instr.op,
                self._int_value(frame, instr.lhs),
                self._int_value(frame, instr.rhs),
            )
        elif isinstance(instr, isa.Mov):
            value = frame.registers.get(instr.src)
            if value is None:
                raise MachineError(f"register {instr.src!r} is uninitialized")
            frame.registers[instr.dst] = value
        elif isinstance(instr, isa.Load):
            address = self._int_value(frame, instr.addr)
            try:
                frame.registers[instr.dst] = self.memory[address]
            except KeyError:
                raise MachineError(f"load from uninitialized address {address}")
            self.stats.loads += 1
        elif isinstance(instr, isa.Store):
            address = self._int_value(frame, instr.addr)
            value = frame.registers.get(instr.src)
            if value is None:
                raise MachineError(f"register {instr.src!r} is uninitialized")
            self.memory[address] = value
            self.stats.stores += 1
        elif isinstance(instr, isa.BitcastToInt):
            from repro.ieee.float64 import double_to_bits

            box = self._float_box(frame, instr.src)
            frame.registers[instr.dst] = double_to_bits(box.value)
        elif isinstance(instr, isa.BitcastToFloat):
            from repro.ieee.float64 import bits_to_double

            bits = self._int_value(frame, instr.src) & ((1 << 64) - 1)
            frame.registers[instr.dst] = FloatBox(bits_to_double(bits))
        elif isinstance(instr, isa.FloatToInt):
            box = self._float_box(frame, instr.src)
            result = _truncate_to_int(box.value)
            frame.registers[instr.dst] = result
            self.tracer.on_float_to_int(instr, box, result)
        elif isinstance(instr, isa.IntToFloat):
            value = self._int_value(frame, instr.src)
            box = FloatBox(float(value))
            frame.registers[instr.dst] = box
            self.tracer.on_int_to_float(instr, value, box)
        elif isinstance(instr, isa.Branch):
            lhs = self._float_box(frame, instr.lhs)
            rhs = self._float_box(frame, instr.rhs)
            taken = _float_predicate(instr.pred, lhs.value, rhs.value)
            self.stats.branches += 1
            self.tracer.on_branch(instr, lhs, rhs, taken)
            if taken:
                frame.pc = frame.function.label_index(instr.target)
                return None
        elif isinstance(instr, isa.IntBranch):
            lhs = self._int_value(frame, instr.lhs)
            rhs = self._int_value(frame, instr.rhs)
            self.stats.branches += 1
            if _int_predicate(instr.pred, lhs, rhs):
                frame.pc = frame.function.label_index(instr.target)
                return None
        elif isinstance(instr, isa.Jump):
            frame.pc = frame.function.label_index(instr.target)
            return None
        elif isinstance(instr, isa.Call):
            return self._call(instr, frame, frames)
        elif isinstance(instr, isa.Ret):
            result = frame.registers.get(instr.src) if instr.src else None
            frames.pop()
            if frames and frame.return_register is not None:
                if result is None:
                    raise MachineError(f"{frame.function.name} returned nothing")
                frames[-1].registers[frame.return_register] = result
            return None
        elif isinstance(instr, isa.Read):
            if self._input_position >= len(self._inputs):
                raise MachineError("program read past the end of its inputs")
            value = self._inputs[self._input_position]
            box = FloatBox(value)
            frame.registers[instr.dst] = box
            self.tracer.on_read(instr, box, self._input_position)
            self._input_position += 1
        elif isinstance(instr, isa.Out):
            box = self._float_box(frame, instr.src)
            self.outputs.append(box.value)
            self.tracer.on_out(instr, box)
        elif isinstance(instr, isa.Halt):
            return StopIteration
        else:
            raise MachineError(f"unknown instruction {instr!r}")
        frame.pc += 1
        return None

    # ------------------------------------------------------------------
    # Floating-point operations
    # ------------------------------------------------------------------

    def _float_op(self, instr: isa.FloatOp, frame: _Frame) -> None:
        args = [self._float_box(frame, src) for src in instr.srcs]
        value = self._apply_double(instr.op, [a.value for a in args])
        if instr.single:
            value = to_single(value)
        box = FloatBox(value)
        frame.registers[instr.dst] = box
        self.stats.float_ops += 1
        override = self.tracer.on_op(instr, instr.op, args, box)
        if override is not None:
            box.value = to_single(override) if instr.single else override

    def _packed_op(self, instr: isa.PackedOp, frame: _Frame) -> None:
        if len(instr.dsts) != len(instr.lanes):
            raise MachineError("packed op lane/destination mismatch")
        lane_boxes = []
        for lane in instr.lanes:
            lane_boxes.append([self._float_box(frame, src) for src in lane])
        for dst, args in zip(instr.dsts, lane_boxes):
            value = self._apply_double(instr.op, [a.value for a in args])
            if instr.single:
                value = to_single(value)
            box = FloatBox(value)
            frame.registers[dst] = box
            self.stats.float_ops += 1
            override = self.tracer.on_op(instr, instr.op, args, box)
            if override is not None:
                box.value = to_single(override) if instr.single else override

    def _float_bit_op(self, instr: isa.FloatBitOp, frame: _Frame) -> None:
        from repro.ieee.float64 import bits_to_double, double_to_bits

        box = self._float_box(frame, instr.src)
        bits = double_to_bits(box.value)
        if instr.op == "xor":
            bits ^= instr.mask
        elif instr.op == "and":
            bits &= instr.mask
        elif instr.op == "or":
            bits |= instr.mask
        else:
            raise MachineError(f"unknown float bit op {instr.op!r}")
        result = FloatBox(bits_to_double(bits & ((1 << 64) - 1)))
        frame.registers[instr.dst] = result
        self.stats.float_ops += 1
        self.tracer.on_bitop(instr, box, result)

    # ------------------------------------------------------------------
    # Calls (user functions, wrapped/unwrapped library calls)
    # ------------------------------------------------------------------

    def _call(self, instr: isa.Call, frame: _Frame, frames: List[_Frame]):
        self.stats.calls += 1
        name = instr.function
        is_library = name in LIBRARY_OPERATIONS
        if is_library and (self.wrap_libraries or name not in self.libm):
            # Wrapped: one atomic operation (paper Section 5.3).
            args = [self._float_box(frame, a) for a in instr.args]
            value = self._apply_double(name, [a.value for a in args])
            box = FloatBox(value)
            frame.registers[instr.dst] = box
            self.stats.library_calls += 1
            override = self.tracer.on_library(instr, name, args, box)
            if override is not None:
                box.value = override
            frame.pc += 1
            return None
        if is_library:
            callee = self.libm.get(name)
        else:
            # Plain call: program functions first, then libm-internal
            # helpers (polynomial kernels the libm routines share).
            callee = self.program.functions.get(name) or self.libm.get(name)
        if callee is None:
            raise MachineError(f"call to unknown function {name!r}")
        if len(callee.params) != len(instr.args):
            raise MachineError(
                f"{name} expects {len(callee.params)} arguments,"
                f" got {len(instr.args)}"
            )
        new_frame = _Frame(callee, return_register=instr.dst)
        for param, arg in zip(callee.params, instr.args):
            value = frame.registers.get(arg)
            if value is None:
                raise MachineError(f"argument register {arg!r} is uninitialized")
            new_frame.registers[param] = value
        frame.pc += 1  # return lands after the call
        frames.append(new_frame)
        return None


def _truncate_to_int(value: float) -> int:
    if math.isnan(value):
        return 0  # hardware cvttsd2si yields INT_MIN; 0 keeps demos tame
    if math.isinf(value):
        return (1 << 62) if value > 0 else -(1 << 62)
    return math.trunc(value)


def _float_predicate(pred: str, lhs: float, rhs: float) -> bool:
    if math.isnan(lhs) or math.isnan(rhs):
        return pred == "ne"
    return _compare(pred, lhs, rhs)


def _int_predicate(pred: str, lhs: int, rhs: int) -> bool:
    return _compare(pred, lhs, rhs)


def _compare(pred: str, lhs, rhs) -> bool:
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
    raise MachineError(f"unknown predicate {pred!r}")


def _int_alu(op: str, lhs: int, rhs: int) -> int:
    if op == "iadd":
        return lhs + rhs
    if op == "isub":
        return lhs - rhs
    if op == "imul":
        return lhs * rhs
    if op == "idiv":
        if rhs == 0:
            raise MachineError("integer division by zero")
        quotient = abs(lhs) // abs(rhs)
        return -quotient if (lhs < 0) != (rhs < 0) else quotient
    if op == "imod":
        # C-style remainder: lhs - rhs * trunc(lhs / rhs).
        if rhs == 0:
            raise MachineError("integer modulo by zero")
        quotient = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            quotient = -quotient
        return lhs - rhs * quotient
    if op == "ishl":
        return lhs << rhs
    if op == "ishr":
        return lhs >> rhs
    if op == "iand":
        return lhs & rhs
    if op == "ior":
        return lhs | rhs
    if op == "ixor":
        return lhs ^ rhs
    raise MachineError(f"unknown integer op {op!r}")
