"""In-memory span recorder and the layer wrappers that feed it.

The traced run installs wrappers around the public entry points of each
layer, at the names their callers look up at call time (for example
``repro.api.session.compile_fpcore``, which ``AnalysisSession`` calls by
that module-global name).  Each wrapper records one :class:`Span`: its
layer name, start and end, the enclosing span, the request it served,
the benchmark phase it ran in, and one optional count (instructions
compiled, points sampled, operations analysed, bytes serialized...).

Spans stay in memory and are written out when the run ends.  Parent
links follow a :mod:`contextvars` variable, so concurrent requests on
the server's event loop and on the client threads keep separate
chains.  Wrappers do nothing but call through when recording is off or
when they run in a forked serve worker (which inherits them but whose
spans nobody could collect).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_current: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "phase",
                 "value")

    def __init__(self, name: str, parent: Optional["Span"],
                 request: Optional[str], phase: str) -> None:
        self.name = name
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.parent = parent
        self.request = request
        self.phase = phase
        #: One layer-specific count (ops, instructions, bytes, hit=1).
        self.value: Optional[float] = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Recorder:
    """Collects spans while ``enabled``; one per benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        #: Benchmark phase label stamped on every span at open time
        #: ("setup", "cold", "warm", "replay"...), set by the benchmark.
        self.phase = "setup"
        self._pid = os.getpid()
        self._lock = threading.Lock()

    def active(self) -> bool:
        return self.enabled and os.getpid() == self._pid

    def open(self, name: str, request: Optional[str] = None) -> Span:
        parent = _current.get()
        if request is None and parent is not None:
            request = parent.request
        span = Span(name, parent, request, self.phase)
        with self._lock:
            self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()

    def span(self, name: str, request: Optional[str] = None) -> "_SpanScope":
        """``with recorder.span(name): ...`` — a span around a block."""
        return _SpanScope(self, name, request)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             measure: Optional[Callable[[tuple, Any], Optional[float]]] = None,
             request_of: Optional[Callable[[tuple], Optional[str]]] = None,
             request_from: Optional[Callable[[Any], Optional[str]]] = None,
             ) -> Callable:
        """A span-recording stand-in for ``fn``.

        ``measure(args, result)`` gives the span's count;
        ``request_of(args)`` its request id when the call carries one,
        ``request_from(result)`` when only the result names it.
        """
        recorder = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not recorder.active():
                    return await fn(*args, **kwargs)
                span = recorder.open(
                    name, request_of(args) if request_of else None
                )
                token = _current.set(span)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    _current.reset(token)
                    recorder.close(span)
                if measure is not None:
                    span.value = measure(args, result)
                if request_from is not None:
                    span.request = request_from(result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active():
                return fn(*args, **kwargs)
            span = recorder.open(
                name, request_of(args) if request_of else None
            )
            token = _current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                _current.reset(token)
                recorder.close(span)
            if measure is not None:
                span.value = measure(args, result)
            if request_from is not None:
                span.request = request_from(result)
            return result

        return wrapper

    def wrap_future(self, name: str, submit: Callable) -> Callable:
        """Wrap a method returning a ``concurrent.futures.Future``: the
        span runs from the call until the future resolves."""
        recorder = self

        @functools.wraps(submit)
        def wrapper(*args, **kwargs):
            if not recorder.active():
                return submit(*args, **kwargs)
            span = recorder.open(name)
            future = submit(*args, **kwargs)
            future.add_done_callback(lambda _f: recorder.close(span))
            return future

        return wrapper

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Self time per span (keyed by ``id``): its duration minus the
        part of its interval that its child spans cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        result: Dict[int, float] = {}
        for span in self.spans:
            if span.end is None:
                continue
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(id(span), ()),
                                key=lambda c: c.start):
                if child.end is None:
                    continue
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[id(span)] = max(0.0, span.duration - covered)
        return result

    def dump(self) -> List[Dict[str, Any]]:
        """Every span as a plain record (for the trace results file)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": (index.get(id(span.parent))
                           if span.parent is not None else None),
                "request": span.request,
                "phase": span.phase,
                "value": span.value,
            }
            for span in self.spans
        ]


class _SpanScope:
    def __init__(self, recorder: Recorder, name: str,
                 request: Optional[str]) -> None:
        self._recorder = recorder
        self._name = name
        self._request = request
        self._span: Optional[Span] = None
        self._token = None

    def __enter__(self) -> Optional[Span]:
        if self._recorder.active():
            self._span = self._recorder.open(self._name, self._request)
            self._token = _current.set(self._span)
        return self._span

    def __exit__(self, *exc_info) -> None:
        if self._span is not None:
            _current.reset(self._token)
            self._recorder.close(self._span)


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the benchmark attributes time to.

    Wrappers are installed once per process, before ``load_corpus()``
    so set-up parsing is covered, and stay in place; ``recorder.enabled``
    decides whether they record.
    """
    import repro.api.session as session_mod
    import repro.core.analysis as analysis_mod
    import repro.core.report as report_mod
    import repro.fpcore.corpus as corpus_mod
    import repro.staticanalysis as static_mod
    from repro.api.results import AnalysisResult
    from repro.api.store import ShardedResultStore
    from repro.machine.batched import BatchedProgram
    from repro.machine.compiled import CompiledProgram
    from repro.serve.pool import WorkerPool
    from repro.serve.service import AnalysisService

    wrap = recorder.wrap
    corpus_mod.parse_fpcores = wrap(
        "fpcore.parse", corpus_mod.parse_fpcores,
        measure=lambda args, cores: len(cores),
    )
    session_mod.compile_fpcore = wrap(
        "compiler.compile", session_mod.compile_fpcore,
        measure=lambda args, program: program.instruction_count(),
    )
    session_mod.sample_inputs = wrap(
        "sampling.sample", session_mod.sample_inputs,
        measure=lambda args, points: len(points),
    )
    analysis_mod.analyze_program = wrap(
        "analysis.execute", analysis_mod.analyze_program,
        measure=lambda args, result: sum(
            record.executions for record in result[0].op_records.values()
        ),
    )
    report_mod.root_cause_report = wrap(
        "report.root_cause", report_mod.root_cause_report
    )
    static_mod.static_report = wrap("static.report", static_mod.static_report)
    static_mod.cross_check = wrap("static.cross_check", static_mod.cross_check)

    batched_compile = BatchedProgram.compile.__func__
    BatchedProgram.compile = classmethod(wrap(
        "batched.compile", batched_compile,
        measure=lambda args, program: 0 if program is None else 1,
    ))
    BatchedProgram.run_points = wrap("batched.run", BatchedProgram.run_points)
    CompiledProgram.run = wrap("compiled.run", CompiledProgram.run)
    AnalysisResult.to_json = wrap(
        "results.serialize", AnalysisResult.to_json,
        measure=lambda args, text: len(text),
    )
    ShardedResultStore.get_text = wrap(
        "store.get", ShardedResultStore.get_text,
        measure=lambda args, text: 0 if text is None else 1,
        request_of=lambda args: args[1],
    )
    ShardedResultStore.put_text = wrap(
        "store.put", ShardedResultStore.put_text,
        request_of=lambda args: args[1],
    )
    AnalysisService.analyze_payload = wrap(
        "service.handle", AnalysisService.analyze_payload,
        request_from=lambda outcome: outcome.digest,
    )
    WorkerPool.submit = recorder.wrap_future("pool.roundtrip",
                                             WorkerPool.submit)
