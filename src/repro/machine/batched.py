"""Lockstep batched execution: all sample points through one pass.

The analysis driver re-runs a program once per sample point, paying
instruction dispatch and boxing N times.  :class:`BatchedProgram` runs
all N points *in lockstep* instead: registers become SoA columns (a
flat list of machine values plus a parallel list of per-lane shadows
per slot), and every instruction is dispatched once per batch.  A float
op or wrapped library call loops its lanes inside one closure: each
lane's machine value comes from the site's ⟦f⟧_F handler (narrowed for
single-precision sites) and its shadow from the same per-site analysis
step the sequential compiled engine calls
(``HerbgrindAnalysis.fused_site_callback``), unboxed, so no lane
allocates a :class:`FloatBox` and both engines share one copy of the
per-op pipeline, including its per-ident shadow memo.

Byte-identical reports are the non-negotiable contract, and they follow
from an ordering argument: event order is only observable *per record*
(per analysis site), and when no instruction executes twice in a run,
visiting sites in program order and lanes in ascending order inside
each site delivers events at every record in exactly the order the
sequential per-point loop does.  Three mechanisms enforce the premise:

* **Static gate** — only forward-control programs compile: constants,
  float/int ALU ops, moves, wrapped library calls, reads, outs,
  conversions, bitcasts, and *forward* branches/jumps.  Backward edges
  (loops), memory traffic, user calls, packed ops, and integer branches
  make :meth:`BatchedProgram.compile` return None and the driver falls
  back to the sequential engine.
* **Branch-signature grouping** — before any aggregation, each lane is
  probed through a native :class:`CompiledProgram` recording its
  branch-taken signature; lanes are then partitioned into maximal runs
  of *consecutive* lanes with identical signatures.  Each group runs as
  one uniform sub-batch (divergent regions degrade to one-lane
  batches), and groups execute in lane order, which keeps cross-group
  aggregation at shared records in global lane order.
* **Fallback on error** — a probe failure aborts before aggregation
  starts; a :class:`MachineError` mid-batch is caught by the driver,
  which discards the partially aggregated analysis and re-runs the
  sequential loop from scratch, reproducing exact sequential error
  semantics.

Each sub-batch is one tracer run (``on_batch_start`` /
``on_batch_finish``) inside the analysis' trace-pool epoch: leaf idents
are value-keyed and every ident-keyed memo entry is a pure function of
its ident, so lanes — and earlier sub-batches — only warm each other's
caches.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.bigfloat.functions import DOUBLE_HANDLERS, LIBRARY_OPERATIONS
from repro.ieee.float32 import to_single
from repro.ieee.float64 import bits_to_double, double_to_bits
from repro.machine import isa
from repro.machine.compiled import CompiledProgram
from repro.machine.interpreter import (
    MachineError,
    Tracer,
    _float_predicate,
    _int_alu,
    _truncate_to_int,
)
from repro.machine.values import FloatBox

#: Marker for integer register columns (their ``shads`` entry): the
#: analysis does not shadow non-float computation, and the sentinel
#: doubles as the dynamic type check — a float op hitting ``_INT`` (or
#: an int op hitting a shadow list) raises instead of silently
#: computing on the wrong column.
_INT = object()

_MASK64 = (1 << 64) - 1
_HALT = -1


class _Ineligible(Exception):
    """Internal: the program cannot be batched (compile returns None)."""


class _ProbeTracer(Tracer):
    """Records the branch-taken signature of one native run."""

    def __init__(self) -> None:
        self.outcomes: List[bool] = []

    def on_branch(self, instr, lhs, rhs, taken) -> None:
        self.outcomes.append(taken)


class _BatchState:
    """Per-group run state: SoA register columns plus output streams."""

    __slots__ = ("vals", "shads", "outputs", "columns", "pos", "n")


class BatchedProgram:
    """A program compiled for lockstep multi-point execution.

    Construct through :meth:`compile`, which returns None when the
    program is statically ineligible.  :meth:`run_points` is the whole
    orchestration: probe, group, and run — returning each point's
    outputs in input order, or None when the probe failed (the caller
    then runs the untouched sequential path).
    """

    @classmethod
    def compile(
        cls,
        program: isa.Program,
        tracer: Tracer,
        wrap_libraries: bool = True,
        libm: Optional[Dict[str, isa.Function]] = None,
        max_steps: int = 50_000_000,
        double_handlers: Optional[Dict[str, Callable[..., float]]] = None,
    ) -> Optional["BatchedProgram"]:
        try:
            return cls(
                program, tracer, wrap_libraries, libm, max_steps,
                double_handlers,
            )
        except _Ineligible:
            return None

    def __init__(
        self,
        program: isa.Program,
        tracer: Tracer,
        wrap_libraries: bool = True,
        libm: Optional[Dict[str, isa.Function]] = None,
        max_steps: int = 50_000_000,
        double_handlers: Optional[Dict[str, Callable[..., float]]] = None,
    ) -> None:
        self.program = program
        self.tracer = tracer
        self.wrap_libraries = wrap_libraries
        self.libm = libm if libm is not None else {}
        self.max_steps = max_steps
        self.double_handlers = (
            double_handlers if double_handlers is not None
            else DOUBLE_HANDLERS
        )
        #: Uniform sub-batches executed by the last run_points call.
        self.groups_run = 0
        self._probe_program: Optional[CompiledProgram] = None
        self._probe_tracer: Optional[_ProbeTracer] = None
        function = program.functions.get(program.entry)
        if function is None:
            raise _Ineligible("no entry function")
        self._slots: Dict[str, int] = {}
        self._has_branches = False
        self._code = [
            self._compile_instr(instr, index, function)
            for index, instr in enumerate(function.instrs)
        ]
        self.nslots = len(self._slots)

    # ------------------------------------------------------------------
    # Orchestration: probe, group, run
    # ------------------------------------------------------------------

    def run_points(
        self, input_sets: Sequence[Sequence[float]]
    ) -> Optional[List[List[float]]]:
        """All points' outputs, in input order; None if the probe failed.

        Raises :class:`MachineError` if a lane fails *during* a batch —
        by then aggregation has begun, and the caller must discard the
        analysis and fall back to the sequential loop.
        """
        points = [list(map(float, inputs)) for inputs in input_sets]
        self.groups_run = 0
        if not points:
            return []
        signatures = None
        if self._has_branches:
            signatures = self._probe(points)
            if signatures is None:
                return None
        outputs: List[List[float]] = []
        start = 0
        total = len(points)
        while start < total:
            end = start + 1
            if signatures is not None:
                signature = signatures[start]
                while end < total and signatures[end] == signature:
                    end += 1
            else:
                end = total
            outputs.extend(self._run_group(points[start:end]))
            self.groups_run += 1
            start = end
        return outputs

    def _probe(
        self, points: List[List[float]]
    ) -> Optional[List[tuple]]:
        """Native per-lane branch signatures, or None on any failure.

        The probe aggregates nothing (it runs under its own tracer), so
        failing here is free: the analysis is still pristine and the
        sequential path reproduces the error exactly, including partial
        aggregation up to the failing lane.
        """
        if self._probe_program is None:
            self._probe_tracer = _ProbeTracer()
            self._probe_program = CompiledProgram(
                self.program,
                tracer=self._probe_tracer,
                wrap_libraries=self.wrap_libraries,
                libm=self.libm,
                max_steps=self.max_steps,
                double_handlers=self.double_handlers,
            )
        tracer = self._probe_tracer
        signatures = []
        for inputs in points:
            tracer.outcomes = []
            try:
                self._probe_program.run(inputs)
            except MachineError:
                return None
            signatures.append(tuple(tracer.outcomes))
        return signatures

    def _run_group(self, points: List[List[float]]) -> List[List[float]]:
        """One uniform sub-batch in lockstep; one tracer run."""
        n = len(points)
        st = _BatchState()
        st.n = n
        st.vals = [None] * self.nslots
        st.shads = [None] * self.nslots
        st.columns = points
        st.pos = 0
        st.outputs = [[] for _ in range(n)]
        tracer = self.tracer
        tracer.on_batch_start(self, n)
        code = self._code
        end = len(code)
        pc = 0
        while 0 <= pc < end:
            pc = code[pc](st)
        tracer.on_batch_finish(self)
        return st.outputs

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _slot(self, register: str) -> int:
        slot = self._slots.get(register)
        if slot is None:
            slot = self._slots[register] = len(self._slots)
        return slot

    def _hook(self, name: str):
        """The tracer's override of ``name``, or None (call elided)."""
        if getattr(type(self.tracer), name) is getattr(Tracer, name):
            return None
        return getattr(self.tracer, name)

    def _compile_instr(self, instr, index: int, function: isa.Function):
        slot = self._slot
        nxt = index + 1

        if isinstance(instr, isa.Const):
            d = slot(instr.dst)
            value = to_single(instr.value) if instr.single \
                else float(instr.value)
            const_cb = self.tracer.fused_const_callback(instr)
            on_const = self._hook("on_const")

            def step(st, _d=d, _v=value, _cb=const_cb, _g=on_const,
                     _i=instr, _n=nxt):
                # One call, broadcast: constant shadows are a pure
                # function of (site, value) within an epoch, so every
                # lane of the batch shares the one shadow the
                # sequential path would intern per lane anyway.
                shadow = None
                if _cb is not None:
                    box = FloatBox(_v)
                    _cb(box)
                    shadow = box.shadow
                elif _g is not None:
                    box = FloatBox(_v)
                    _g(_i, box)
                    shadow = box.shadow
                n = st.n
                st.vals[_d] = [_v] * n
                st.shads[_d] = [shadow] * n
                return _n
            return step

        if isinstance(instr, isa.ConstInt):
            d = slot(instr.dst)
            value = instr.value

            def step(st, _d=d, _v=value, _n=nxt):
                st.vals[_d] = [_v] * st.n
                st.shads[_d] = _INT
                return _n
            return step

        if isinstance(instr, isa.FloatOp):
            machine_fn = self.double_handlers.get(instr.op)
            if machine_fn is None:
                raise _Ineligible(f"unknown operation {instr.op!r}")
            return self._site_op(
                instr, instr.op, [slot(s) for s in instr.srcs],
                slot(instr.dst), machine_fn, instr.single,
                self._hook("on_op"), nxt,
            )

        if isinstance(instr, isa.Call):
            name = instr.function
            wrapped = name in LIBRARY_OPERATIONS and (
                self.wrap_libraries or name not in self.libm
            )
            if not wrapped:
                raise _Ineligible(f"unwrapped call to {name!r}")
            machine_fn = self.double_handlers.get(name)
            if machine_fn is None:
                raise _Ineligible(f"unknown library {name!r}")
            return self._site_op(
                instr, name, [slot(s) for s in instr.args],
                slot(instr.dst), machine_fn, False,
                self._hook("on_library"), nxt,
            )

        if isinstance(instr, isa.Mov):
            s = slot(instr.src)
            d = slot(instr.dst)

            def step(st, _s=s, _d=d, _n=nxt):
                vals = st.vals[_s]
                if vals is None:
                    raise MachineError(
                        f"register {instr.src!r} is uninitialized"
                    )
                # Alias the columns: copies share shadow state exactly
                # as boxed copies share the box.  Safe because writes
                # always install fresh column lists.
                st.vals[_d] = vals
                st.shads[_d] = st.shads[_s]
                return _n
            return step

        if isinstance(instr, isa.IntOp):
            lhs = slot(instr.lhs)
            rhs = slot(instr.rhs)
            d = slot(instr.dst)
            op = instr.op

            def step(st, _l=lhs, _r=rhs, _d=d, _op=op, _n=nxt):
                lv = st.vals[_l]
                rv = st.vals[_r]
                if lv is None or rv is None \
                        or st.shads[_l] is not _INT \
                        or st.shads[_r] is not _INT:
                    raise MachineError(
                        "integer op on a non-integer register"
                    )
                st.vals[_d] = [
                    _int_alu(_op, lv[i], rv[i]) for i in range(st.n)
                ]
                st.shads[_d] = _INT
                return _n
            return step

        if isinstance(instr, isa.BitcastToInt):
            s = slot(instr.src)
            d = slot(instr.dst)

            def step(st, _s=s, _d=d, _n=nxt):
                vals = st.vals[_s]
                if vals is None or st.shads[_s] is _INT:
                    raise MachineError("bitcast of a non-float register")
                st.vals[_d] = [double_to_bits(v) for v in vals]
                st.shads[_d] = _INT
                return _n
            return step

        if isinstance(instr, isa.BitcastToFloat):
            s = slot(instr.src)
            d = slot(instr.dst)

            def step(st, _s=s, _d=d, _n=nxt):
                vals = st.vals[_s]
                if vals is None or st.shads[_s] is not _INT:
                    raise MachineError(
                        "bitcast of a non-integer register"
                    )
                st.vals[_d] = [
                    bits_to_double(v & _MASK64) for v in vals
                ]
                # Shadows stay lazy (None) exactly like an unshadowed
                # box: the first consumer interns an opaque leaf into
                # the column, sharing it with later consumers.
                st.shads[_d] = [None] * st.n
                return _n
            return step

        if isinstance(instr, isa.FloatBitOp):
            s = slot(instr.src)
            d = slot(instr.dst)
            mask = instr.mask
            bit_op = instr.op
            if bit_op not in ("xor", "and", "or"):
                raise _Ineligible(f"unknown float bit op {bit_op!r}")
            on_bitop = self._hook("on_bitop")

            def step(st, _s=s, _d=d, _op=bit_op, _m=mask,
                     _cb=on_bitop, _i=instr, _n=nxt):
                vals = st.vals[_s]
                shads = st.shads[_s]
                if vals is None or shads is _INT:
                    raise MachineError(
                        "float bit op on a non-float register"
                    )
                n = st.n
                rv = [0.0] * n
                rs = [None] * n
                for i in range(n):
                    bits = double_to_bits(vals[i])
                    if _op == "xor":
                        bits ^= _m
                    elif _op == "and":
                        bits &= _m
                    else:
                        bits |= _m
                    value = bits_to_double(bits & _MASK64)
                    if _cb is not None:
                        src_box = FloatBox(vals[i])
                        src_box.shadow = shads[i]
                        box = FloatBox(value)
                        _cb(_i, src_box, box)
                        if shads[i] is None:
                            shads[i] = src_box.shadow
                        rv[i] = box.value
                        rs[i] = box.shadow
                    else:
                        rv[i] = value
                st.vals[_d] = rv
                st.shads[_d] = rs
                return _n
            return step

        if isinstance(instr, isa.FloatToInt):
            s = slot(instr.src)
            d = slot(instr.dst)
            on_f2i = self._hook("on_float_to_int")

            def step(st, _s=s, _d=d, _cb=on_f2i, _i=instr, _n=nxt):
                vals = st.vals[_s]
                shads = st.shads[_s]
                if vals is None or shads is _INT:
                    raise MachineError(
                        "float->int of a non-float register"
                    )
                n = st.n
                rv = [0] * n
                for i in range(n):
                    result = _truncate_to_int(vals[i])
                    rv[i] = result
                    if _cb is not None:
                        box = FloatBox(vals[i])
                        box.shadow = shads[i]
                        _cb(_i, box, result)
                        if shads[i] is None:
                            shads[i] = box.shadow
                st.vals[_d] = rv
                st.shads[_d] = _INT
                return _n
            return step

        if isinstance(instr, isa.IntToFloat):
            s = slot(instr.src)
            d = slot(instr.dst)
            on_i2f = self._hook("on_int_to_float")

            def step(st, _s=s, _d=d, _cb=on_i2f, _i=instr, _n=nxt):
                vals = st.vals[_s]
                if vals is None or st.shads[_s] is not _INT:
                    raise MachineError(
                        "int->float of a non-integer register"
                    )
                n = st.n
                rv = [0.0] * n
                rs = [None] * n
                for i in range(n):
                    value = vals[i]
                    box = FloatBox(float(value))
                    if _cb is not None:
                        _cb(_i, value, box)
                    rv[i] = box.value
                    rs[i] = box.shadow
                st.vals[_d] = rv
                st.shads[_d] = rs
                return _n
            return step

        if isinstance(instr, isa.Branch):
            self._has_branches = True
            lhs = slot(instr.lhs)
            rhs = slot(instr.rhs)
            pred = instr.pred
            try:
                target = function.label_index(instr.target)
            except KeyError:
                raise _Ineligible(f"unknown label {instr.target!r}")
            if target <= index:
                raise _Ineligible("backward branch (loop)")
            site_cb = self.tracer.fused_branch_callback(instr)
            on_branch = self._hook("on_branch")

            def step(st, _l=lhs, _r=rhs, _p=pred, _t=target,
                     _cb=site_cb, _o=self.tracer.opaque_shadow,
                     _g=on_branch, _i=instr, _n=nxt):
                lv = st.vals[_l]
                rv = st.vals[_r]
                ls = st.shads[_l]
                rs = st.shads[_r]
                if lv is None or rv is None \
                        or ls is _INT or rs is _INT:
                    raise MachineError("branch on a non-float register")
                n = st.n
                taken = _float_predicate(_p, lv[0], rv[0])
                for i in range(1, n):
                    if _float_predicate(_p, lv[i], rv[i]) != taken:
                        # The probe partitions lanes by signature, so
                        # this is unreachable; raising falls back to
                        # the sequential loop rather than corrupting
                        # aggregation order.
                        raise MachineError(
                            "batched lanes diverged at a branch"
                        )
                if _cb is not None:
                    for i in range(n):
                        left = ls[i]
                        if left is None:
                            left = ls[i] = _o(lv[i])
                        right = rs[i]
                        if right is None:
                            right = rs[i] = _o(rv[i])
                        _cb(left, right, taken)
                elif _g is not None:
                    for i in range(n):
                        lbox = FloatBox(lv[i])
                        lbox.shadow = ls[i]
                        rbox = FloatBox(rv[i])
                        rbox.shadow = rs[i]
                        _g(_i, lbox, rbox, taken)
                        if ls[i] is None:
                            ls[i] = lbox.shadow
                        if rs[i] is None:
                            rs[i] = rbox.shadow
                return _t if taken else _n
            return step

        if isinstance(instr, isa.Jump):
            try:
                target = function.label_index(instr.target)
            except KeyError:
                raise _Ineligible(f"unknown label {instr.target!r}")
            if target <= index:
                raise _Ineligible("backward jump (loop)")

            def step(st, _t=target):
                return _t
            return step

        if isinstance(instr, isa.Read):
            d = slot(instr.dst)
            on_read = self._hook("on_read")

            def step(st, _d=d, _cb=on_read, _i=instr, _n=nxt):
                pos = st.pos
                n = st.n
                vals = [0.0] * n
                shads = [None] * n
                for i in range(n):
                    lane = st.columns[i]
                    if pos >= len(lane):
                        raise MachineError(
                            "program read past the end of its inputs"
                        )
                    value = lane[pos]
                    vals[i] = value
                    if _cb is not None:
                        box = FloatBox(value)
                        _cb(_i, box, pos)
                        shads[i] = box.shadow
                st.pos = pos + 1
                st.vals[_d] = vals
                st.shads[_d] = shads
                return _n
            return step

        if isinstance(instr, isa.Out):
            s = slot(instr.src)
            on_out = self._hook("on_out")

            def step(st, _s=s, _cb=on_out, _i=instr, _n=nxt):
                vals = st.vals[_s]
                shads = st.shads[_s]
                if vals is None or shads is _INT:
                    raise MachineError("out of a non-float register")
                outputs = st.outputs
                for i in range(st.n):
                    value = vals[i]
                    outputs[i].append(value)
                    if _cb is not None:
                        box = FloatBox(value)
                        box.shadow = shads[i]
                        _cb(_i, box)
                        if shads[i] is None:
                            shads[i] = box.shadow
                return _n
            return step

        if isinstance(instr, isa.Halt):
            def step(st):
                return _HALT
            return step

        # PackedOp, Load, Store, IntBranch, Ret, user calls: sequential.
        raise _Ineligible(f"unsupported instruction {type(instr).__name__}")

    def _site_op(self, instr, op, srcs, d, machine_fn, single, hook, nxt):
        """A float op or wrapped library call: each lane's machine value
        through ``machine_fn`` and its shadow through the tracer's site
        step (see :meth:`Tracer.fused_site_callback`), lanes in
        ascending order.  A missing argument shadow is filled in with an
        opaque leaf written back into the column, so later consumers
        share it as they would share a box.  Sites without a step
        (arity outside 1-2, kernels unknown to ⟦f⟧_R, non-analysis
        tracers) loop the lanes through the sequential hook instead."""
        site_cb = self.tracer.fused_site_callback(
            instr, op, len(srcs), single
        )
        if site_cb is None:
            return self._per_lane_op(
                instr, op, srcs, d, machine_fn, single, hook, nxt
            )
        opaque = self.tracer.opaque_shadow
        if len(srcs) == 2:
            a, b = srcs

            def step(st, _a=a, _b=b, _d=d, _fn=machine_fn, _single=single,
                     _cb=site_cb, _o=opaque, _n=nxt):
                avals = st.vals[_a]
                bvals = st.vals[_b]
                ashads = st.shads[_a]
                bshads = st.shads[_b]
                if avals is None or bvals is None \
                        or ashads is _INT or bshads is _INT:
                    raise MachineError("float op on a non-float register")
                n = st.n
                rv = [0.0] * n
                rs = [None] * n
                for i in range(n):
                    av = avals[i]
                    bv = bvals[i]
                    sa = ashads[i]
                    if sa is None:
                        sa = ashads[i] = _o(av)
                    sb = bshads[i]
                    if sb is None:
                        sb = bshads[i] = _o(bv)
                    value = _fn(av, bv)
                    if _single:
                        value = to_single(value)
                    rv[i] = value
                    rs[i] = _cb(sa, sb, av, bv, value)
                st.vals[_d] = rv
                st.shads[_d] = rs
                return _n
            return step
        a = srcs[0]

        def step(st, _a=a, _d=d, _fn=machine_fn, _single=single,
                 _cb=site_cb, _o=opaque, _n=nxt):
            avals = st.vals[_a]
            ashads = st.shads[_a]
            if avals is None or ashads is _INT:
                raise MachineError("float op on a non-float register")
            n = st.n
            rv = [0.0] * n
            rs = [None] * n
            for i in range(n):
                av = avals[i]
                sa = ashads[i]
                if sa is None:
                    sa = ashads[i] = _o(av)
                value = _fn(av)
                if _single:
                    value = to_single(value)
                rv[i] = value
                rs[i] = _cb(sa, av, value)
            st.vals[_d] = rv
            st.shads[_d] = rs
            return _n
        return step

    def _per_lane_op(self, instr, op, srcs, d, machine_fn, single,
                     hook, nxt):
        """Generic fallback for sites without a site step: loop the
        lanes through the sequential hook with temporary boxes.  Lane
        order is ascending, so aggregation order still matches the
        sequential loop."""
        def step(st, _srcs=tuple(srcs), _d=d, _fn=machine_fn,
                 _single=single, _cb=hook, _i=instr, _op=op, _n=nxt):
            cols = []
            shad_cols = []
            for s in _srcs:
                vals = st.vals[s]
                shads = st.shads[s]
                if vals is None or shads is _INT:
                    raise MachineError(
                        "float op on a non-float register"
                    )
                cols.append(vals)
                shad_cols.append(shads)
            n = st.n
            rv = [0.0] * n
            rs = [None] * n
            for i in range(n):
                boxes = []
                for vals, shads in zip(cols, shad_cols):
                    box = FloatBox(vals[i])
                    box.shadow = shads[i]
                    boxes.append(box)
                value = _fn(*[box.value for box in boxes])
                if _single:
                    value = to_single(value)
                result = FloatBox(value)
                if _cb is not None:
                    override = _cb(_i, _op, boxes, result)
                    if override is not None:
                        result.value = (
                            to_single(override) if _single else override
                        )
                    for box, shads in zip(boxes, shad_cols):
                        if shads[i] is None and box.shadow is not None:
                            shads[i] = box.shadow
                rv[i] = result.value
                rs[i] = result.shadow
            st.vals[_d] = rv
            st.shads[_d] = rs
            return _n
        return step
