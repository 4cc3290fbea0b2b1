"""The threaded-code engine against the reference interpreter.

Every test runs the same program through both engines and demands
identical outputs, statistics, and tracer event streams — the
instruction-level half of the engine-parity guarantee (the analysis
half lives in ``tests/core/test_engine_parity.py``).
"""

import gc
import math
import struct
import weakref

import pytest

from repro.machine import (
    CompiledProgram,
    FunctionBuilder,
    Interpreter,
    MachineError,
    Program,
    Tracer,
    build_libm,
    compile_fpcore,
    isa,
)
from repro.fpcore import load_corpus
from repro.api.sampling import sample_inputs


def program_of(*builders: FunctionBuilder) -> Program:
    program = Program()
    for builder in builders:
        program.add(builder.build())
    return program


def stats_tuple(stats):
    return (stats.steps, stats.float_ops, stats.library_calls,
            stats.branches, stats.loads, stats.stores, stats.calls)


def assert_parity(program: Program, inputs=(), wrap_libraries=True, libm=None):
    reference = Interpreter(program, wrap_libraries=wrap_libraries, libm=libm)
    expected = reference.run(inputs)
    compiled = CompiledProgram(
        program, wrap_libraries=wrap_libraries, libm=libm
    )
    actual = compiled.run(inputs)
    packed = [struct.pack("<d", v) for v in expected]
    assert [struct.pack("<d", v) for v in actual] == packed
    assert stats_tuple(compiled.stats) == stats_tuple(reference.stats)
    return actual


class EventTracer(Tracer):
    """Records every callback so event streams can be compared."""

    def __init__(self):
        self.events = []

    def on_const(self, instr, box):
        self.events.append(("const", id(instr), box.value))

    def on_read(self, instr, box, index):
        self.events.append(("read", id(instr), box.value, index))

    def on_op(self, instr, op, args, result):
        self.events.append(
            ("op", id(instr), op, tuple(a.value for a in args), result.value)
        )
        return None

    def on_library(self, instr, name, args, result):
        self.events.append(
            ("lib", id(instr), name, tuple(a.value for a in args), result.value)
        )
        return None

    def on_bitop(self, instr, box, result):
        self.events.append(("bitop", id(instr), box.value, result.value))

    def on_int_to_float(self, instr, value, box):
        self.events.append(("i2f", id(instr), value, box.value))

    def on_float_to_int(self, instr, box, result):
        self.events.append(("f2i", id(instr), box.value, result))

    def on_branch(self, instr, lhs, rhs, taken):
        self.events.append(("branch", id(instr), lhs.value, rhs.value, taken))

    def on_out(self, instr, box):
        self.events.append(("out", id(instr), box.value))


def assert_event_parity(program, inputs=(), wrap_libraries=True, libm=None):
    ref_tracer = EventTracer()
    Interpreter(
        program, tracer=ref_tracer, wrap_libraries=wrap_libraries, libm=libm
    ).run(inputs)
    fast_tracer = EventTracer()
    CompiledProgram(
        program, tracer=fast_tracer, wrap_libraries=wrap_libraries, libm=libm
    ).run(inputs)
    assert fast_tracer.events == ref_tracer.events


class TestBasicParity:
    def test_arithmetic_and_consts(self):
        fn = FunctionBuilder("main")
        a = fn.const(3.0)
        b = fn.read()
        fn.out(fn.op("+", a, fn.op("*", b, b)))
        fn.out(fn.op("/", fn.const(1.0), fn.const(0.0)))
        fn.halt()
        assert_parity(program_of(fn), [4.0])
        assert_event_parity(program_of(fn), [4.0])

    def test_single_precision(self):
        fn = FunctionBuilder("main")
        x = fn.const(0.1, single=True)
        y = fn.read()
        fn.out(fn.op("+", x, y, single=True))
        fn.halt()
        assert_parity(program_of(fn), [0.2])

    def test_unary_and_ternary_ops(self):
        fn = FunctionBuilder("main")
        x = fn.read()
        fn.out(fn.op("neg", x))
        fn.out(fn.op("fabs", fn.op("neg", x)))
        fn.out(fn.op("sqrt", x))
        fn.out(fn.op("fma", x, x, fn.const(1.0)))
        fn.halt()
        assert_parity(program_of(fn), [2.25])

    def test_packed_op(self):
        fn = FunctionBuilder("main")
        a = fn.read()
        b = fn.read()
        lo, hi = fn.packed("+", [[a, a], [b, b]])
        fn.out(lo)
        fn.out(hi)
        fn.halt()
        assert_parity(program_of(fn), [1.5, 2.5])
        assert_event_parity(program_of(fn), [1.5, 2.5])

    def test_float_bit_tricks(self):
        fn = FunctionBuilder("main")
        x = fn.read()
        fn.out(fn.bit_negate(x))
        fn.out(fn.bit_fabs(fn.bit_negate(x)))
        fn.halt()
        assert_parity(program_of(fn), [7.5])
        assert_event_parity(program_of(fn), [7.5])

    def test_int_ops_and_bitcasts(self):
        fn = FunctionBuilder("main")
        x = fn.read()
        bits = fn.bitcast_to_int(x)
        masked = fn.int_op("iand", bits, fn.const_int((1 << 63) - 1))
        fn.out(fn.bitcast_to_float(masked))
        i = fn.float_to_int(x)
        j = fn.int_op("imul", i, fn.const_int(-3))
        fn.out(fn.int_to_float(fn.int_op("idiv", j, fn.const_int(2))))
        fn.out(fn.int_to_float(fn.int_op("imod", j, fn.const_int(2))))
        fn.halt()
        assert_parity(program_of(fn), [-5.75])
        assert_event_parity(program_of(fn), [-5.75])

    def test_memory(self):
        fn = FunctionBuilder("main")
        addr = fn.const_int(64)
        x = fn.read()
        fn.store(addr, x)
        fn.out(fn.load(addr))
        fn.halt()
        assert_parity(program_of(fn), [11.0])

    def test_loop_with_branches(self):
        fn = FunctionBuilder("main")
        total = fn.const(0.0)
        step = fn.const(0.1)
        limit = fn.read()
        head = fn.label()
        done = fn.fresh_label("done")
        fn.branch("ge", total, limit, done)
        fn.mov_to(total, fn.op("+", total, step))
        fn.jump(head)
        fn.label(done)
        fn.out(total)
        fn.halt()
        assert_parity(program_of(fn), [5.0])
        assert_event_parity(program_of(fn), [5.0])

    def test_nan_branch_semantics(self):
        for pred in sorted(isa.PREDICATES):
            fn = FunctionBuilder("main")
            x = fn.read()
            y = fn.const(1.0)
            taken = fn.fresh_label("taken")
            fn.branch(pred, x, y, taken)
            fn.out(fn.const(0.0))
            fn.halt()
            fn.label(taken)
            fn.out(fn.const(1.0))
            fn.halt()
            assert_parity(program_of(fn), [math.nan])


class TestCallsParity:
    def test_user_function_call(self):
        callee = FunctionBuilder("square", params=("x",))
        callee.ret(callee.op("*", "x", "x"))
        fn = FunctionBuilder("main")
        v = fn.read()
        fn.out(fn.call("square", v))
        fn.out(fn.call("square", fn.call("square", v)))
        fn.halt()
        assert_parity(program_of(fn, callee), [3.0])
        assert_event_parity(program_of(fn, callee), [3.0])

    def test_wrapped_library_call(self):
        fn = FunctionBuilder("main")
        fn.out(fn.call("sin", fn.read()))
        fn.halt()
        assert_parity(program_of(fn), [0.5])
        assert_event_parity(program_of(fn), [0.5])

    def test_unwrapped_library_call_inlines_ir(self):
        libm = build_libm()
        fn = FunctionBuilder("main")
        fn.out(fn.call("exp", fn.read()))
        fn.halt()
        program = program_of(fn)
        assert_parity(program, [0.75], wrap_libraries=False, libm=libm)
        assert_event_parity(program, [0.75], wrap_libraries=False, libm=libm)

    def test_falling_off_function_end(self):
        # A function without Ret behaves like a bare Ret; falling off
        # main halts without a counted step.
        helper = FunctionBuilder("noop", params=("x",))
        helper.op("+", "x", "x")
        fn = FunctionBuilder("main")
        fn.read()
        fn.out(fn.const(1.0))
        assert_parity(program_of(fn), [2.0])

    def test_callee_falling_off_with_unused_result(self):
        # The reference pops the frame silently; the caller's
        # destination register just stays uninitialized.  Both engines
        # must run to completion when the result is never read.
        helper = FunctionBuilder("noop", params=("x",))
        helper.op("+", "x", "x")  # no ret: falls off the end
        fn = FunctionBuilder("main")
        x = fn.read()
        fn.call("noop", x)  # result discarded
        fn.out(x)
        fn.halt()
        assert_parity(program_of(fn, helper), [1.5])

    def test_callee_returning_nothing_raises_when_used(self):
        helper = FunctionBuilder("noop", params=("x",))
        helper.op("+", "x", "x")  # no ret: falls off the end
        fn = FunctionBuilder("main")
        fn.out(fn.call("noop", fn.read()))  # Out reads the unset register
        fn.halt()
        with pytest.raises(MachineError):
            CompiledProgram(program_of(fn, helper)).run([1.0])

    def test_unknown_function_raises_only_when_reached(self):
        fn = FunctionBuilder("main")
        x = fn.read()
        skip = fn.fresh_label("skip")
        fn.branch("lt", x, fn.const(0.0), skip)
        fn.out(x)
        fn.halt()
        fn.label(skip)
        fn.call("no_such_function", x)
        fn.halt()
        program = program_of(fn)
        # Not reached: fine.  Reached: MachineError, like the reference.
        assert CompiledProgram(program).run([1.0]) == [1.0]
        with pytest.raises(MachineError):
            CompiledProgram(program).run([-1.0])


class TestErrorsAndLimits:
    def test_read_past_end(self):
        fn = FunctionBuilder("main")
        fn.read()
        fn.halt()
        with pytest.raises(MachineError):
            CompiledProgram(program_of(fn)).run([])

    def test_uninitialized_mov_raises(self):
        fn = FunctionBuilder("main")
        fn.mov_to("a", "never_written")
        fn.halt()
        with pytest.raises(MachineError):
            CompiledProgram(program_of(fn)).run([])

    def test_ill_typed_register_raises_machine_error(self):
        fn = FunctionBuilder("main")
        i = fn.const_int(3)
        fn.out(fn.op("+", i, i))  # ints where floats belong
        fn.halt()
        with pytest.raises(MachineError):
            CompiledProgram(program_of(fn)).run([])

    def test_int_op_on_floats_raises_machine_error(self):
        fn = FunctionBuilder("main")
        x = fn.const(2.0)
        y = fn.const(3.0)
        fn.int_op("iadd", x, y)  # boxes where integers belong
        fn.halt()
        with pytest.raises(MachineError):
            CompiledProgram(program_of(fn)).run([])

    def test_tracer_errors_propagate_unwrapped(self):
        class Buggy(Tracer):
            def on_op(self, instr, op, args, result):
                return result.no_such_attribute

        fn = FunctionBuilder("main")
        fn.out(fn.op("+", fn.const(1.0), fn.const(2.0)))
        fn.halt()
        with pytest.raises(AttributeError):
            CompiledProgram(program_of(fn), tracer=Buggy()).run([])

    def test_max_steps(self):
        fn = FunctionBuilder("main")
        head = fn.label()
        fn.jump(head)
        with pytest.raises(MachineError):
            CompiledProgram(program_of(fn), max_steps=1000).run([])

    def test_load_uninitialized_address(self):
        fn = FunctionBuilder("main")
        fn.out(fn.load(fn.const_int(8)))
        fn.halt()
        with pytest.raises(MachineError):
            CompiledProgram(program_of(fn)).run([])


class TestTracerOverride:
    def test_on_op_override_replaces_value(self):
        class Perturb(Tracer):
            def on_op(self, instr, op, args, result):
                return result.value + 1.0

        fn = FunctionBuilder("main")
        fn.out(fn.op("+", fn.read(), fn.read()))
        fn.halt()
        program = program_of(fn)
        ref = Interpreter(program, tracer=Perturb()).run([1.0, 2.0])
        fast = CompiledProgram(program, tracer=Perturb()).run([1.0, 2.0])
        assert fast == ref == [4.0]

    def test_on_library_override_replaces_value(self):
        class Perturb(Tracer):
            def on_library(self, instr, name, args, result):
                return 42.0

        fn = FunctionBuilder("main")
        fn.out(fn.call("sin", fn.read()))
        fn.halt()
        program = program_of(fn)
        ref = Interpreter(program, tracer=Perturb()).run([0.5])
        fast = CompiledProgram(program, tracer=Perturb()).run([0.5])
        assert fast == ref == [42.0]


class TestReuseAcrossRuns:
    def test_fresh_memory_and_outputs_per_run(self):
        fn = FunctionBuilder("main")
        addr = fn.const_int(1)
        x = fn.read()
        fn.store(addr, x)
        fn.out(fn.load(addr))
        fn.halt()
        compiled = CompiledProgram(program_of(fn))
        assert compiled.run([1.0]) == [1.0]
        assert compiled.run([2.0]) == [2.0]
        assert compiled.outputs == [2.0]
        assert list(compiled.memory.values())[0].value == 2.0

    def test_stats_reset_per_run(self):
        fn = FunctionBuilder("main")
        fn.out(fn.op("+", fn.read(), fn.const(1.0)))
        fn.halt()
        compiled = CompiledProgram(program_of(fn))
        compiled.run([1.0])
        first = stats_tuple(compiled.stats)
        compiled.run([2.0])
        assert stats_tuple(compiled.stats) == first

    def test_analysed_program_is_freed_without_the_cycle_collector(self):
        # The site steps hold the tracer's shadow fill-in, never the
        # program: a cycle through the program would keep each
        # analysis (pool, memo, shadows) alive until a full collection.
        from repro.core import AnalysisConfig, HerbgrindAnalysis

        fn = FunctionBuilder("main")
        x = fn.bitcast_to_float(fn.bitcast_to_int(fn.read()))
        total = fn.op("+", x, fn.read())
        fn.branch("lt", total, x, "done")
        fn.out(fn.op("sqrt", fn.call("exp", total)))
        fn.label("done")
        fn.halt()
        gc.disable()
        try:
            compiled = CompiledProgram(
                program_of(fn), tracer=HerbgrindAnalysis(AnalysisConfig())
            )
            compiled.run([1.5, 2.0])
            program_ref = weakref.ref(compiled)
            del compiled
            assert program_ref() is None
        finally:
            gc.enable()


class TestCorpusParity:
    def test_outputs_and_stats_across_corpus(self):
        for core in load_corpus()[::7]:  # a spread-out slice
            program = compile_fpcore(core)
            for point in sample_inputs(core, 2, seed=11):
                assert_parity(program, point)
