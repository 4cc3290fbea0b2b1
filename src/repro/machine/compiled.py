"""Threaded-code compilation of machine programs (the engine fast path).

The reference :class:`~repro.machine.interpreter.Interpreter` decides
what every instruction *is* every time it executes it: an isinstance
chain, dict lookups for registers and labels, name dispatch for the
double semantics, and virtual tracer calls even when the tracer does
not observe the event.  For loop-heavy programs that per-instruction
decision cost dominates the whole analysis.

:class:`CompiledProgram` pays those decisions once, at compile time:

* every instruction becomes one pre-bound Python closure (classic
  threaded code) stored in a flat list indexed by pc,
* register names are resolved to list slots, labels to pc indices,
  operation names to their :data:`~repro.bigfloat.functions.DOUBLE_HANDLERS`
  callables, and callees to their compiled bodies,
* tracer callbacks are bound at compile time — and *elided* entirely
  when the tracer does not override them, so native (no-op tracer)
  execution carries no instrumentation cost.

The compiled engine is semantics-identical to the reference
interpreter — same values, same tracer event sequence, same outputs —
which the engine-parity suite (``tests/machine/test_compiled.py``,
``tests/core/test_engine_parity.py``) checks end to end.  The
reference interpreter remains the oracle; ``engine="reference"`` in
:class:`~repro.core.config.AnalysisConfig` selects it.

A compiled program is specialized to one tracer: compile once per
(program, tracer, wrapping) combination and call :meth:`run` once per
input set — exactly the shape of
:func:`repro.core.analysis.analyze_program`.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence

from repro.bigfloat.functions import DOUBLE_HANDLERS, LIBRARY_OPERATIONS
from repro.ieee.float32 import to_single
from repro.ieee.float64 import bits_to_double, double_to_bits
from repro.machine import isa
from repro.machine.interpreter import (
    ExecutionStats,
    MachineError,
    Tracer,
    _int_alu,
    _truncate_to_int,
)
from repro.machine.values import FloatBox

#: Sentinel pc values returned by closures.
_HALT = -1
#: The closure switched frames (call/ret): resync code/pc from state.
_SYNC = -2

#: Branch predicates.  Python comparison operators have exactly the
#: IEEE NaN semantics the reference implements by hand: every ordered
#: comparison with NaN is False and ``!=`` is True.
_PREDICATES: Dict[str, Callable] = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
}


def _int_op_fn(op: str) -> Callable[[int, int], int]:
    simple = {
        "iadd": operator.add,
        "isub": operator.sub,
        "imul": operator.mul,
        "ishl": operator.lshift,
        "ishr": operator.rshift,
        "iand": operator.and_,
        "ior": operator.or_,
        "ixor": operator.xor,
    }
    fn = simple.get(op)
    if fn is not None:
        return fn
    # idiv/imod carry C-style truncation semantics; reuse the reference
    # ALU so the two engines cannot drift.
    return lambda lhs, rhs, _op=op: _int_alu(_op, lhs, rhs)


class _RunState:
    """Mutable machine state threaded through the compiled closures."""

    __slots__ = (
        "code", "regs", "pc", "frames", "memory", "outputs",
        "inputs", "input_pos",
        "float_ops", "library_calls", "branches", "loads", "stores",
        "calls", "implicit_steps",
    )

    def __init__(self) -> None:
        self.code: List[Callable] = []
        self.regs: List = []
        self.pc = 0
        self.frames: List = []
        self.memory: Dict[int, object] = {}
        self.outputs: List[float] = []
        self.inputs: List[float] = []
        self.input_pos = 0
        self.float_ops = 0
        self.library_calls = 0
        self.branches = 0
        self.loads = 0
        self.stores = 0
        self.calls = 0
        self.implicit_steps = 0


class _CompiledFunction:
    """One function lowered to a closure list plus a register frame."""

    __slots__ = ("name", "nregs", "param_slots", "code")

    def __init__(self, name: str) -> None:
        self.name = name
        self.nregs = 0
        self.param_slots: List[int] = []
        self.code: List[Callable] = []


def _error_step(message: str) -> Callable:
    """A closure that raises when (and only when) it executes.

    Static problems the reference reports at runtime (unknown callee,
    arity mismatch, malformed packed op) must not fail at compile time
    for programs that never reach the bad instruction.
    """

    def step(st, _msg=message):
        raise MachineError(_msg)

    return step


def _shadow_filler(opaque_shadow: Callable) -> Callable:
    """The fill-in for a site-step argument without a shadow: the
    tracer's opaque shadow, stored on the box so later consumers share
    it (see :meth:`Tracer.opaque_shadow`).  A plain closure, not a
    method: the compiled steps hold it, and a reference back to the
    program would make every program a reference cycle."""

    def fill(box: FloatBox):
        shadow = box.shadow = opaque_shadow(box.value)
        return shadow

    return fill


class CompiledProgram:
    """A program compiled to threaded code for one tracer.

    Mirrors the reference interpreter's constructor and :meth:`run`
    contract; each :meth:`run` starts from fresh memory/outputs, like
    constructing a fresh reference interpreter per input set.
    """

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
        #: ⟦f⟧_F handler table the threaded code pre-binds from; the
        #: analysis passes its substrate's table (only the emulated
        #: operations — fma — can differ, and results are identical).
        self.double_handlers = (
            double_handlers if double_handlers is not None
            else DOUBLE_HANDLERS
        )
        self.memory: Dict[int, object] = {}
        self.outputs: List[float] = []
        self.stats = ExecutionStats()
        self._functions: Dict[int, _CompiledFunction] = {}
        #: Tracer callbacks, pre-bound; None when the tracer does not
        #: override the base no-op (the call is then elided entirely).
        tracer_type = type(self.tracer)

        def hook(name: str):
            if getattr(tracer_type, name) is getattr(Tracer, name):
                return None
            return getattr(self.tracer, name)

        self._on_const = hook("on_const")
        self._on_read = hook("on_read")
        self._on_op = hook("on_op")
        self._on_library = hook("on_library")
        self._on_bitop = hook("on_bitop")
        self._on_int_to_float = hook("on_int_to_float")
        self._on_float_to_int = hook("on_float_to_int")
        self._on_branch = hook("on_branch")
        self._on_out = hook("on_out")
        self._fill_shadow = _shadow_filler(self.tracer.opaque_shadow)
        self._entry = self._compile_function(
            program.function(program.entry)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, inputs: Sequence[float] = ()) -> List[float]:
        """Execute from the entry function; returns the Out values."""
        st = _RunState()
        st.inputs = [float(v) for v in inputs]
        entry = self._entry
        st.code = code = entry.code
        st.regs = [None] * entry.nregs
        self.tracer.on_start(self)
        pc = 0
        steps = 0
        max_steps = self.max_steps
        try:
            while True:
                steps += 1
                if steps > max_steps:
                    raise MachineError(
                        f"exceeded {max_steps} steps (infinite loop?)"
                    )
                ret = code[pc](st)
                if ret >= 0:
                    pc = ret
                elif ret == _SYNC:
                    code = st.code
                    pc = st.pc
                else:
                    break
        except (AttributeError, TypeError) as error:
            # A register held the wrong kind of value (an integer where
            # a FloatBox was required, a box where an integer was) —
            # the reference reports these as machine errors, at the
            # same instruction.  Only errors raised *by this module's
            # closures* qualify: the same exception types from inside a
            # tracer callback are real bugs and must propagate
            # unchanged, as they would under the reference engine.
            tb = error.__traceback__
            while tb is not None and tb.tb_next is not None:
                tb = tb.tb_next
            if tb is not None and tb.tb_frame.f_code.co_filename == __file__:
                raise MachineError(
                    f"ill-typed register access: {error}"
                ) from error
            raise
        self.memory = st.memory
        self.outputs = st.outputs
        stats = ExecutionStats(
            steps=steps - st.implicit_steps,
            float_ops=st.float_ops,
            library_calls=st.library_calls,
            branches=st.branches,
            loads=st.loads,
            stores=st.stores,
            calls=st.calls,
        )
        self.stats = stats
        self.tracer.on_finish(self)
        return st.outputs

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _compile_function(self, function: isa.Function) -> _CompiledFunction:
        cached = self._functions.get(id(function))
        if cached is not None:
            return cached
        compiled = _CompiledFunction(function.name)
        # Register early: calls (including recursive ones) bind to the
        # object, whose .code fills in below.
        self._functions[id(function)] = compiled
        slots: Dict[str, int] = {}

        def slot(register: str) -> int:
            index = slots.get(register)
            if index is None:
                index = slots[register] = len(slots)
            return index

        compiled.param_slots = [slot(p) for p in function.params]
        code = compiled.code
        for index, instr in enumerate(function.instrs):
            code.append(self._compile_instr(instr, index + 1, function, slot))
        # Falling off the end behaves like a bare Ret (reference
        # semantics) — but without counting an executed step.
        code.append(self._compile_ret(None, implicit=True))
        compiled.nregs = len(slots)
        return compiled

    def _compile_instr(
        self, instr: isa.Instr, nxt: int, function: isa.Function, slot
    ) -> Callable:
        if isinstance(instr, isa.Const):
            value = to_single(instr.value) if instr.single else float(instr.value)
            dst = slot(instr.dst)
            on_const = self._on_const
            site_cb = self.tracer.fused_const_callback(instr)
            if site_cb is not None:
                def step(st, _v=value, _d=dst, _n=nxt, _scb=site_cb):
                    box = FloatBox(_v)
                    st.regs[_d] = box
                    _scb(box)
                    return _n
            elif on_const is None:
                def step(st, _v=value, _d=dst, _n=nxt):
                    st.regs[_d] = FloatBox(_v)
                    return _n
            else:
                def step(st, _v=value, _d=dst, _n=nxt, _cb=on_const, _i=instr):
                    box = FloatBox(_v)
                    st.regs[_d] = box
                    _cb(_i, box)
                    return _n
            return step

        if isinstance(instr, isa.ConstInt):
            dst, value = slot(instr.dst), instr.value

            def step(st, _v=value, _d=dst, _n=nxt):
                st.regs[_d] = _v
                return _n
            return step

        if isinstance(instr, isa.FloatOp):
            return self._compile_float_op(instr, nxt, slot)

        if isinstance(instr, isa.PackedOp):
            return self._compile_packed_op(instr, nxt, slot)

        if isinstance(instr, isa.FloatBitOp):
            return self._compile_float_bit_op(instr, nxt, slot)

        if isinstance(instr, isa.IntOp):
            fn = _int_op_fn(instr.op) if instr.op in isa.INT_OPS else None
            if fn is None:
                return _error_step(f"unknown integer op {instr.op!r}")
            dst, lhs, rhs = slot(instr.dst), slot(instr.lhs), slot(instr.rhs)

            def step(st, _d=dst, _l=lhs, _r=rhs, _fn=fn, _n=nxt):
                r = st.regs
                r[_d] = _fn(r[_l], r[_r])
                return _n
            return step

        if isinstance(instr, isa.Mov):
            dst, src = slot(instr.dst), slot(instr.src)

            def step(st, _d=dst, _s=src, _n=nxt, _name=instr.src):
                r = st.regs
                value = r[_s]
                if value is None:
                    raise MachineError(f"register {_name!r} is uninitialized")
                r[_d] = value
                return _n
            return step

        if isinstance(instr, isa.Load):
            dst, addr = slot(instr.dst), slot(instr.addr)

            def step(st, _d=dst, _a=addr, _n=nxt):
                address = st.regs[_a]
                try:
                    st.regs[_d] = st.memory[address]
                except KeyError:
                    raise MachineError(
                        f"load from uninitialized address {address}"
                    ) from None
                st.loads += 1
                return _n
            return step

        if isinstance(instr, isa.Store):
            addr, src = slot(instr.addr), slot(instr.src)

            def step(st, _a=addr, _s=src, _n=nxt, _name=instr.src):
                r = st.regs
                value = r[_s]
                if value is None:
                    raise MachineError(f"register {_name!r} is uninitialized")
                st.memory[r[_a]] = value
                st.stores += 1
                return _n
            return step

        if isinstance(instr, isa.BitcastToInt):
            dst, src = slot(instr.dst), slot(instr.src)

            def step(st, _d=dst, _s=src, _n=nxt):
                r = st.regs
                r[_d] = double_to_bits(r[_s].value)
                return _n
            return step

        if isinstance(instr, isa.BitcastToFloat):
            dst, src = slot(instr.dst), slot(instr.src)

            def step(st, _d=dst, _s=src, _n=nxt):
                r = st.regs
                r[_d] = FloatBox(bits_to_double(r[_s] & ((1 << 64) - 1)))
                return _n
            return step

        if isinstance(instr, isa.FloatToInt):
            dst, src = slot(instr.dst), slot(instr.src)
            on_f2i = self._on_float_to_int

            def step(st, _d=dst, _s=src, _n=nxt, _cb=on_f2i, _i=instr):
                r = st.regs
                box = r[_s]
                result = _truncate_to_int(box.value)
                r[_d] = result
                if _cb is not None:
                    _cb(_i, box, result)
                return _n
            return step

        if isinstance(instr, isa.IntToFloat):
            dst, src = slot(instr.dst), slot(instr.src)
            on_i2f = self._on_int_to_float

            def step(st, _d=dst, _s=src, _n=nxt, _cb=on_i2f, _i=instr):
                r = st.regs
                value = r[_s]
                box = FloatBox(float(value))
                r[_d] = box
                if _cb is not None:
                    _cb(_i, value, box)
                return _n
            return step

        if isinstance(instr, isa.Branch):
            pred = _PREDICATES.get(instr.pred)
            if pred is None:
                return _error_step(f"unknown predicate {instr.pred!r}")
            lhs, rhs = slot(instr.lhs), slot(instr.rhs)
            try:
                target = function.label_index(instr.target)
            except KeyError as error:
                return _error_step(str(error))
            on_branch = self._on_branch
            site_cb = self.tracer.fused_branch_callback(instr)
            if site_cb is not None:
                def step(st, _l=lhs, _r=rhs, _p=pred, _t=target, _n=nxt,
                         _scb=site_cb, _f=self._fill_shadow):
                    r = st.regs
                    a = r[_l]
                    b = r[_r]
                    taken = _p(a.value, b.value)
                    st.branches += 1
                    _scb(a.shadow or _f(a), b.shadow or _f(b), taken)
                    return _t if taken else _n
                return step

            def step(st, _l=lhs, _r=rhs, _p=pred, _t=target, _n=nxt,
                     _cb=on_branch, _i=instr):
                r = st.regs
                a = r[_l]
                b = r[_r]
                taken = _p(a.value, b.value)
                st.branches += 1
                if _cb is not None:
                    _cb(_i, a, b, taken)
                return _t if taken else _n
            return step

        if isinstance(instr, isa.IntBranch):
            pred = _PREDICATES.get(instr.pred)
            if pred is None:
                return _error_step(f"unknown predicate {instr.pred!r}")
            lhs, rhs = slot(instr.lhs), slot(instr.rhs)
            try:
                target = function.label_index(instr.target)
            except KeyError as error:
                return _error_step(str(error))

            def step(st, _l=lhs, _r=rhs, _p=pred, _t=target, _n=nxt):
                r = st.regs
                st.branches += 1
                return _t if _p(r[_l], r[_r]) else _n
            return step

        if isinstance(instr, isa.Jump):
            try:
                target = function.label_index(instr.target)
            except KeyError as error:
                return _error_step(str(error))

            def step(st, _t=target):
                return _t
            return step

        if isinstance(instr, isa.Call):
            return self._compile_call(instr, nxt, slot)

        if isinstance(instr, isa.Ret):
            return self._compile_ret(
                slot(instr.src) if instr.src else None,
                function_name=function.name,
            )

        if isinstance(instr, isa.Read):
            dst = slot(instr.dst)
            on_read = self._on_read

            def step(st, _d=dst, _n=nxt, _cb=on_read, _i=instr):
                position = st.input_pos
                if position >= len(st.inputs):
                    raise MachineError(
                        "program read past the end of its inputs"
                    )
                box = FloatBox(st.inputs[position])
                st.regs[_d] = box
                if _cb is not None:
                    _cb(_i, box, position)
                st.input_pos = position + 1
                return _n
            return step

        if isinstance(instr, isa.Out):
            src = slot(instr.src)
            on_out = self._on_out

            def step(st, _s=src, _n=nxt, _cb=on_out, _i=instr):
                box = st.regs[_s]
                st.outputs.append(box.value)
                if _cb is not None:
                    _cb(_i, box)
                return _n
            return step

        if isinstance(instr, isa.Halt):
            def step(st):
                return _HALT
            return step

        return _error_step(f"unknown instruction {instr!r}")

    # ------------------------------------------------------------------

    def _compile_float_op(self, instr: isa.FloatOp, nxt: int, slot) -> Callable:
        fn = self.double_handlers.get(instr.op)
        if fn is None:
            return _error_step(f"unknown operation: {instr.op!r}")
        src_slots = tuple(slot(s) for s in instr.srcs)
        dst = slot(instr.dst)
        on_op = self._on_op
        single = instr.single
        # Site-compiled analysis pipeline: the tracer may hand back a
        # per-site step, bound once per site (its code generated once
        # per process for its arity and config flags), that replaces
        # the generic on_op dispatch entirely.
        site_cb = self.tracer.fused_site_callback(
            instr, instr.op, len(src_slots), single
        )
        if site_cb is not None and len(src_slots) == 2:
            s0, s1 = src_slots

            def step(st, _s0=s0, _s1=s1, _d=dst, _fn=fn, _n=nxt,
                     _scb=site_cb, _f=self._fill_shadow, _single=single):
                r = st.regs
                a = r[_s0]
                b = r[_s1]
                av = a.value
                bv = b.value
                value = _fn(av, bv)
                if _single:
                    value = to_single(value)
                box = FloatBox(value)
                r[_d] = box
                st.float_ops += 1
                box.shadow = _scb(
                    a.shadow or _f(a), b.shadow or _f(b), av, bv, value
                )
                return _n
            return step
        if site_cb is not None:

            def step(st, _s0=src_slots[0], _d=dst, _fn=fn, _n=nxt,
                     _scb=site_cb, _f=self._fill_shadow, _single=single):
                r = st.regs
                a = r[_s0]
                av = a.value
                value = _fn(av)
                if _single:
                    value = to_single(value)
                box = FloatBox(value)
                r[_d] = box
                st.float_ops += 1
                box.shadow = _scb(a.shadow or _f(a), av, value)
                return _n
            return step
        if len(src_slots) == 2 and not single:
            # The overwhelmingly common shape gets its own closure.
            s0, s1 = src_slots

            def step(st, _s0=s0, _s1=s1, _d=dst, _fn=fn, _n=nxt,
                     _cb=on_op, _i=instr, _op=instr.op):
                r = st.regs
                a = r[_s0]
                b = r[_s1]
                box = FloatBox(_fn(a.value, b.value))
                r[_d] = box
                st.float_ops += 1
                if _cb is not None:
                    override = _cb(_i, _op, (a, b), box)
                    if override is not None:
                        box.value = override
                return _n
            return step

        def step(st, _slots=src_slots, _d=dst, _fn=fn, _n=nxt,
                 _cb=on_op, _i=instr, _op=instr.op, _single=single):
            r = st.regs
            args = [r[s] for s in _slots]
            value = _fn(*[a.value for a in args])
            if _single:
                value = to_single(value)
            box = FloatBox(value)
            r[_d] = box
            st.float_ops += 1
            if _cb is not None:
                override = _cb(_i, _op, args, box)
                if override is not None:
                    box.value = to_single(override) if _single else override
            return _n
        return step

    def _compile_packed_op(self, instr: isa.PackedOp, nxt: int, slot) -> Callable:
        if len(instr.dsts) != len(instr.lanes):
            return _error_step("packed op lane/destination mismatch")
        fn = self.double_handlers.get(instr.op)
        if fn is None:
            return _error_step(f"unknown operation: {instr.op!r}")
        lanes = tuple(tuple(slot(s) for s in lane) for lane in instr.lanes)
        dsts = tuple(slot(d) for d in instr.dsts)
        on_op = self._on_op
        single = instr.single

        def step(st, _lanes=lanes, _dsts=dsts, _fn=fn, _n=nxt,
                 _cb=on_op, _i=instr, _op=instr.op, _single=single):
            r = st.regs
            # Gather every lane's boxes before writing any destination,
            # exactly like the reference (lanes may overlap dsts).
            lane_boxes = [[r[s] for s in lane] for lane in _lanes]
            for dst, args in zip(_dsts, lane_boxes):
                value = _fn(*[a.value for a in args])
                if _single:
                    value = to_single(value)
                box = FloatBox(value)
                r[dst] = box
                st.float_ops += 1
                if _cb is not None:
                    override = _cb(_i, _op, args, box)
                    if override is not None:
                        box.value = to_single(override) if _single else override
            return _n
        return step

    def _compile_float_bit_op(
        self, instr: isa.FloatBitOp, nxt: int, slot
    ) -> Callable:
        bit_fn = {
            "xor": operator.xor, "and": operator.and_, "or": operator.or_,
        }.get(instr.op)
        if bit_fn is None:
            return _error_step(f"unknown float bit op {instr.op!r}")
        dst, src = slot(instr.dst), slot(instr.src)
        mask = instr.mask
        on_bitop = self._on_bitop

        def step(st, _d=dst, _s=src, _m=mask, _fn=bit_fn, _n=nxt,
                 _cb=on_bitop, _i=instr):
            r = st.regs
            box = r[_s]
            bits = _fn(double_to_bits(box.value), _m)
            result = FloatBox(bits_to_double(bits & ((1 << 64) - 1)))
            r[_d] = result
            st.float_ops += 1
            if _cb is not None:
                _cb(_i, box, result)
            return _n
        return step

    def _compile_call(self, instr: isa.Call, nxt: int, slot) -> Callable:
        name = instr.function
        is_library = name in LIBRARY_OPERATIONS
        if is_library and (self.wrap_libraries or name not in self.libm):
            # Wrapped: one atomic operation (paper Section 5.3).
            fn = self.double_handlers[name]
            arg_slots = tuple(slot(a) for a in instr.args)
            dst = slot(instr.dst)
            on_library = self._on_library
            site_cb = self.tracer.fused_site_callback(
                instr, name, len(arg_slots)
            )
            if site_cb is not None and len(arg_slots) == 1:

                def step(st, _s0=arg_slots[0], _d=dst, _fn=fn, _n=nxt,
                         _scb=site_cb, _f=self._fill_shadow):
                    r = st.regs
                    a = r[_s0]
                    av = a.value
                    value = _fn(av)
                    box = FloatBox(value)
                    r[_d] = box
                    st.calls += 1
                    st.library_calls += 1
                    box.shadow = _scb(a.shadow or _f(a), av, value)
                    return _n
                return step
            if site_cb is not None:
                s0, s1 = arg_slots

                def step(st, _s0=s0, _s1=s1, _d=dst, _fn=fn, _n=nxt,
                         _scb=site_cb, _f=self._fill_shadow):
                    r = st.regs
                    a = r[_s0]
                    b = r[_s1]
                    av = a.value
                    bv = b.value
                    value = _fn(av, bv)
                    box = FloatBox(value)
                    r[_d] = box
                    st.calls += 1
                    st.library_calls += 1
                    box.shadow = _scb(
                        a.shadow or _f(a), b.shadow or _f(b), av, bv, value
                    )
                    return _n
                return step

            def step(st, _slots=arg_slots, _d=dst, _fn=fn, _n=nxt,
                     _cb=on_library, _i=instr, _name=name):
                r = st.regs
                args = [r[s] for s in _slots]
                box = FloatBox(_fn(*[a.value for a in args]))
                r[_d] = box
                st.calls += 1
                st.library_calls += 1
                if _cb is not None:
                    override = _cb(_i, _name, args, box)
                    if override is not None:
                        box.value = override
                return _n
            return step

        if is_library:
            callee = self.libm.get(name)
        else:
            callee = self.program.functions.get(name) or self.libm.get(name)
        if callee is None:
            return _error_step(f"call to unknown function {name!r}")
        if len(callee.params) != len(instr.args):
            return _error_step(
                f"{name} expects {len(callee.params)} arguments,"
                f" got {len(instr.args)}"
            )
        compiled = self._compile_function(callee)
        arg_slots = tuple(slot(a) for a in instr.args)
        ret_slot = slot(instr.dst)
        arg_names = instr.args

        def step(st, _callee=compiled, _slots=arg_slots, _ret=ret_slot,
                 _n=nxt, _names=arg_names):
            regs = st.regs
            frame = [None] * _callee.nregs
            params = _callee.param_slots
            for position, src in enumerate(_slots):
                value = regs[src]
                if value is None:
                    raise MachineError(
                        f"argument register {_names[position]!r} is"
                        " uninitialized"
                    )
                frame[params[position]] = value
            st.frames.append((st.code, regs, _ret, _n))
            st.code = _callee.code
            st.regs = frame
            st.pc = 0
            st.calls += 1
            return _SYNC
        return step

    def _compile_ret(
        self,
        src_slot: Optional[int],
        function_name: str = "?",
        implicit: bool = False,
    ) -> Callable:
        if implicit:
            # Falling off the end behaves like the reference's frame
            # pop: no step is counted, no return value is demanded, and
            # the caller's destination register stays untouched.
            def fall_off(st):
                st.implicit_steps += 1
                frames = st.frames
                if not frames:
                    return _HALT
                code, regs, __, ret_pc = frames.pop()
                st.code = code
                st.regs = regs
                st.pc = ret_pc
                return _SYNC
            return fall_off

        def step(st, _s=src_slot, _name=function_name):
            result = st.regs[_s] if _s is not None else None
            frames = st.frames
            if not frames:
                return _HALT
            code, regs, ret_slot, ret_pc = frames.pop()
            if ret_slot is not None:
                if result is None:
                    raise MachineError(f"{_name} returned nothing")
                regs[ret_slot] = result
            st.code = code
            st.regs = regs
            st.pc = ret_pc
            return _SYNC
        return step
