"""The :class:`AnalysisSession` façade — configure once, analyze many.

A session owns the cross-call caches (compiled programs and sampled
input sets, keyed by benchmark source text; full analysis results,
keyed by the request digest) and routes every request through the
backend registry.  ``analyze_batch`` fans a corpus out over a
``multiprocessing`` pool; results are byte-identical to sequential
execution with the same seed because all sampling is seeded
per-benchmark and every serialized list is deterministically ordered
(see :mod:`repro.api.results`).

Result caching: every fully specified request has a stable digest —
the SHA-256 of its canonical JSON serialization, which covers the
benchmark source, backend, sampling parameters (or explicit points),
the :class:`AnalysisConfig` minus its execution plan
(:data:`~repro.core.config.PLAN_FIELDS`), library wrapping, and the
result schema version.  Every plan yields the same bytes, so a request
is answered by an entry any plan computed.  Identical work is skipped:
in-memory hits return the original :class:`AnalysisResult` object
(``raw`` intact), and an
optional on-disk store (``cache_dir``) persists results in the sharded
``<digest[:2]>/<digest>.json`` layout of
:class:`repro.api.store.ShardedResultStore` — the same store format
the serving subsystem (:mod:`repro.serve`) uses — so *separate
processes and later runs* skip it too
(disk hits have ``raw=None``, like results that crossed a process
boundary).  Requests carrying an in-process ``libm`` override are
never cached.
"""

from __future__ import annotations

import collections
import hashlib
import json
import multiprocessing
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.backends import get_backend
from repro.api.requests import AnalysisRequest, CoreLike, coerce_core
from repro.api.results import RESULT_SCHEMA_VERSION, AnalysisResult
from repro.api.sampling import sample_inputs
from repro.api.store import ShardedResultStore
from repro.core.config import PLAN_FIELDS, AnalysisConfig
from repro.fpcore.ast import FPCore
from repro.machine import isa
from repro.machine.compiler import compile_fpcore

RequestLike = Union[CoreLike, AnalysisRequest]


def request_digest(request: AnalysisRequest) -> str:
    """The stable cache key of a fully specified request.

    Covers the request minus its config's execution plan, which never
    changes the result bytes, *and* the result schema version, so a
    schema bump invalidates persisted cache entries instead of
    serving stale shapes.
    """
    return payload_digest(request.to_dict())


def payload_digest(payload: Dict[str, Any]) -> str:
    """:func:`request_digest` of a request's ``to_dict()`` form.

    For callers that need the dict anyway (the serving path ships it
    to a worker); ``payload`` is not modified.
    """
    config = {key: value for key, value in payload["config"].items()
              if key not in PLAN_FIELDS}
    keyed = dict(payload, config=config,
                 result_schema_version=RESULT_SCHEMA_VERSION)
    return hashlib.sha256(
        json.dumps(keyed, sort_keys=True).encode("utf-8")
    ).hexdigest()


class ResultCache:
    """An LRU of :class:`AnalysisResult` with an optional disk layer.

    The memory layer stores result *objects* (so an in-process hit
    keeps ``raw``); the disk layer is a
    :class:`~repro.api.store.ShardedResultStore` rooted at
    ``cache_dir`` — digest-prefix shard directories with atomic
    writes, shared with the serving subsystem (:mod:`repro.serve`) so
    offline sessions and servers read and write one store format.
    """

    def __init__(self, capacity: int = 256,
                 cache_dir: Optional[str] = None) -> None:
        if capacity < 0:
            raise ValueError("result cache capacity must be >= 0")
        #: capacity 0 = no memory layer (disk-only, when cache_dir set).
        self.capacity = capacity
        self.cache_dir = cache_dir
        #: The shared on-disk layer, or None for a memory-only cache.
        self.store: Optional[ShardedResultStore] = (
            ShardedResultStore(cache_dir) if cache_dir is not None else None
        )
        self._memory: "collections.OrderedDict[str, AnalysisResult]" = \
            collections.OrderedDict()

    def __len__(self) -> int:
        return len(self._memory)

    def get(self, key: str) -> Optional[AnalysisResult]:
        result = self._memory.get(key)
        if result is not None:
            self._memory.move_to_end(key)
            return result
        if self.store is not None:
            # One parse validates and decodes the entry; one that is
            # corrupt or of the wrong shape is quarantined and misses.
            entry = self.store.load(key, AnalysisResult.from_json)
            if entry is not None:
                text, result = entry
                # The stored bytes are this result's to_json(): a warm
                # hit is served from them, never re-serialized.
                result.stored_json = text
                self._insert(key, result)
                return result
        return None

    def put(self, key: str, result: AnalysisResult) -> None:
        self._insert(key, result)
        if self.store is not None:
            text = result.to_json()
            result.stored_json = text
            # A failed disk write is never fatal: the result was
            # computed, the caller gets it, the entry is just a miss
            # next time (mirrors get()'s corrupt-entry handling).
            self.store.put_text(key, text)

    def _insert(self, key: str, result: AnalysisResult) -> None:
        if self.capacity == 0:
            return
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    def clear(self) -> None:
        """Drop the memory layer (the disk layer, if any, persists)."""
        self._memory.clear()


def _run_request(
    request: AnalysisRequest,
    program: isa.Program,
    points: List[List[float]],
    degrade: Optional[bool] = None,
) -> AnalysisResult:
    """One backend run behind the degradation ladder.

    Every analysis execution — in-process, batch worker, serve worker —
    funnels through here, so a classified failure (kernel fault, engine
    fault, resource exhaustion, MachineError) retries down the ladder
    (:mod:`repro.resilience.ladder`) instead of propagating, unless
    degradation is disabled (``degrade=False`` or ``REPRO_DEGRADE=0``).
    """
    from repro.resilience.ladder import run_with_ladder

    def execute(req: AnalysisRequest) -> AnalysisResult:
        return get_backend(req.backend).run(program, points, req)

    return run_with_ladder(request, execute, enabled=degrade)


#: Bound on :data:`_WORKER_PROGRAMS`; the table resets when full.
WORKER_PROGRAM_LIMIT = 256

#: Compiled programs by canonical source text, per process: a serve
#: pool worker or ``analyze_batch`` worker that gets the same program
#: at many seeds compiles it once.  An ``isa.Program`` keeps no
#: analysis state, which ``AnalysisSession.compiled`` relies on too.
_WORKER_PROGRAMS: Dict[str, isa.Program] = {}


def _worker_program(core: FPCore) -> isa.Program:
    key = core.canonical_text
    program = _WORKER_PROGRAMS.get(key)
    if program is None:
        # A program that fails to compile raises and is never cached.
        program = compile_fpcore(core)
        if len(_WORKER_PROGRAMS) >= WORKER_PROGRAM_LIMIT:
            _WORKER_PROGRAMS.clear()
        _WORKER_PROGRAMS[key] = program
    return program


def _execute(request: AnalysisRequest,
             degrade: Optional[bool] = None) -> AnalysisResult:
    """Run one request without result caches — the worker path."""
    program = _worker_program(request.core)
    points = request.points
    if points is None:
        points = sample_inputs(
            request.core, request.num_points, seed=request.seed
        )
    return _run_request(request, program, points, degrade)


def _worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool worker: dict in, dict out — keeps everything picklable."""
    result = _execute(AnalysisRequest.from_dict(payload))
    data = result.to_dict()
    degradation = result.extra.get("degradation")
    if degradation is not None:
        # to_dict() strips the degradation record (byte-identity of
        # the serialized result); smuggle it next to the payload so
        # analyze_batch can reattach it for in-process observers.
        data["__degradation__"] = degradation
    return data


class AnalysisSession:
    """One configured analysis context, reusable across many calls.

    >>> session = AnalysisSession(config=AnalysisConfig(shadow_precision=256))
    >>> result = session.analyze("(FPCore (x) :pre (<= 1e15 x 1e16) (- (+ x 1) x))")
    >>> result.max_output_error > 5
    True
    """

    def __init__(
        self,
        config: Optional[AnalysisConfig] = None,
        backend: str = "herbgrind",
        num_points: int = 16,
        seed: int = 0,
        wrap_libraries: bool = True,
        result_cache_size: int = 256,
        cache_dir: Optional[str] = None,
        point_cache_size: int = 1024,
        degrade: Optional[bool] = None,
    ) -> None:
        self.config = config if config is not None else AnalysisConfig()
        self.backend = backend
        self.num_points = num_points
        self.seed = seed
        self.wrap_libraries = wrap_libraries
        #: Degradation-ladder switch: True/False force it, None defers
        #: to the ``REPRO_DEGRADE`` environment default (on).
        self.degrade = degrade
        self._programs: Dict[str, isa.Program] = {}
        #: Sampled-input LRU, bounded like :class:`ResultCache`'s
        #: memory layer: a corpus swept at many (count, seed)
        #: combinations would otherwise grow this without limit.
        self.point_cache_size = point_cache_size
        self._points: (
            "collections.OrderedDict[Tuple[str, int, int], List[List[float]]]"
        ) = (
            collections.OrderedDict()
        )
        self.cache_hits = 0
        self.cache_misses = 0
        #: Full-result cache; ``result_cache_size=0`` disables the
        #: memory layer (disk-only if ``cache_dir`` is also given),
        #: and with no ``cache_dir`` disables result caching entirely.
        self._results: Optional[ResultCache] = (
            ResultCache(result_cache_size, cache_dir)
            if result_cache_size > 0 or cache_dir is not None else None
        )
        self.result_hits = 0
        self.result_misses = 0

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------

    def compiled(self, core: CoreLike) -> isa.Program:
        """The compiled program for ``core``, cached by source text."""
        core = coerce_core(core)
        key = core.canonical_text
        program = self._programs.get(key)
        if program is None:
            self.cache_misses += 1
            program = compile_fpcore(core)
            self._programs[key] = program
        else:
            self.cache_hits += 1
        return program

    def sampled(
        self,
        core: CoreLike,
        count: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> List[List[float]]:
        """Sampled inputs for ``core``, cached by (source, count, seed)."""
        core = coerce_core(core)
        count = self.num_points if count is None else count
        seed = self.seed if seed is None else seed
        key = (core.canonical_text, count, seed)
        points = self._points.get(key)
        if points is None:
            self.cache_misses += 1
            points = sample_inputs(core, count, seed=seed)
            if self.point_cache_size > 0:
                self._points[key] = points
                self._points.move_to_end(key)
                while len(self._points) > self.point_cache_size:
                    self._points.popitem(last=False)
        else:
            self.cache_hits += 1
            self._points.move_to_end(key)
        return points

    def clear_caches(self) -> None:
        self._programs.clear()
        self._points.clear()
        if self._results is not None:
            self._results.clear()
        self.cache_hits = 0
        self.cache_misses = 0
        self.result_hits = 0
        self.result_misses = 0

    def cache_stats(self) -> Dict[str, int]:
        return {
            "programs": len(self._programs),
            "input_sets": len(self._points),
            "input_set_capacity": self.point_cache_size,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "results": len(self._results) if self._results else 0,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
        }

    def _result_key(self, request: AnalysisRequest) -> Optional[str]:
        """The cache key for ``request``, or None when uncacheable."""
        if self._results is None or request.libm is not None:
            return None
        return request_digest(request)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    _OVERRIDE_KEYS = frozenset(
        ("backend", "num_points", "seed", "points", "config",
         "wrap_libraries", "profile", "libm")
    )

    def request(self, core: RequestLike, **overrides) -> AnalysisRequest:
        """Build a request from session defaults plus ``overrides``."""
        unknown = set(overrides) - self._OVERRIDE_KEYS
        if unknown:
            raise TypeError(
                f"unknown analysis override(s): {sorted(unknown)} "
                f"(expected from {sorted(self._OVERRIDE_KEYS)})"
            )
        if isinstance(core, AnalysisRequest):
            if overrides:
                raise TypeError(
                    "cannot combine overrides with a prebuilt "
                    "AnalysisRequest; set the fields on the request"
                )
            return core
        return AnalysisRequest.build(
            core,
            backend=overrides.get("backend", self.backend),
            num_points=overrides.get("num_points", self.num_points),
            seed=overrides.get("seed", self.seed),
            points=overrides.get("points"),
            config=overrides.get("config", self.config),
            wrap_libraries=overrides.get(
                "wrap_libraries", self.wrap_libraries
            ),
            profile=overrides.get("profile", False),
            libm=overrides.get("libm"),
        )

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def analyze(self, core: RequestLike, **overrides) -> AnalysisResult:
        """Analyze one benchmark through the configured backend.

        Compiled programs, sampled input sets, and *full results* are
        reused across calls: an identical request (same source,
        backend, sampling, and configuration) returns its cached
        :class:`AnalysisResult` without re-running the analysis.
        """
        request = self.request(core, **overrides)
        key = self._result_key(request)
        if key is not None:
            cached = self._results.get(key)
            if cached is not None:
                self.result_hits += 1
                return cached
            self.result_misses += 1
        program = self.compiled(request.core)
        points = request.points
        if points is None:
            points = self.sampled(
                request.core, request.num_points, request.seed
            )
        result = _run_request(request, program, points, self.degrade)
        if key is not None:
            self._results.put(key, result)
        return result

    def analyze_batch(
        self,
        cores: Sequence[RequestLike],
        workers: int = 1,
        **overrides,
    ) -> List[AnalysisResult]:
        """Analyze a corpus, optionally over a process pool.

        ``workers=1`` runs sequentially in-process (and warms this
        session's caches); ``workers=N`` fans out over N processes.
        Either way the results arrive in corpus order and serialize to
        byte-identical JSON for the same seed.  Cached results are
        served without touching the pool, and duplicate requests
        within one batch are executed once.
        """
        requests = [self.request(core, **overrides) for core in cores]
        if workers <= 1 or len(requests) <= 1:
            return [self.analyze(request) for request in requests]
        results: List[Optional[AnalysisResult]] = [None] * len(requests)
        pending: List[Tuple[int, Optional[str]]] = []
        first_index: Dict[str, int] = {}
        duplicates: List[Tuple[int, int]] = []
        for index, request in enumerate(requests):
            key = self._result_key(request)
            if key is not None:
                cached = self._results.get(key)
                if cached is not None:
                    self.result_hits += 1
                    results[index] = cached
                    continue
                owner = first_index.get(key)
                if owner is not None:
                    self.result_hits += 1
                    duplicates.append((index, owner))
                    continue
                first_index[key] = index
                self.result_misses += 1
            pending.append((index, key))
        if pending:
            payloads = [requests[i].to_dict() for i, __ in pending]
            with multiprocessing.Pool(processes=workers) as pool:
                dicts = pool.map(_worker, payloads, chunksize=1)
            for (index, key), data in zip(pending, dicts):
                degradation = data.pop("__degradation__", None)
                result = AnalysisResult.from_dict(data)
                if degradation is not None:
                    result.extra["degradation"] = degradation
                results[index] = result
                if key is not None:
                    self._results.put(key, result)
        for index, owner in duplicates:
            results[index] = results[owner]
        return results
