"""The serving core: digest-addressed analysis with dedupe and caching.

:class:`AnalysisService` is the transport-free heart of the subsystem —
the HTTP layer (:mod:`repro.serve.server`) is a thin shell over it, and
tests drive it directly.  One request flows::

    body ─ body table ─ hit ──────────────────────────────┬─ digest ─
                      └ miss ─ decode ─ validate ─ digest ┘
      in-flight map ─ memory LRU ─ sharded store ─
      worker pool (compute ─ store write) ─ response

* **Body table**: the SHA-256 of a request body a process has seen
  maps straight to the request's digest, so a repeated body skips JSON
  decoding, validation and digesting.  It is decoded again only if its
  result has to be computed, and the pool then gets the same dict as
  for a first sighting.  A body enters the table only after it decoded
  and validated, so a malformed body gets its 400 every time.
* **Warm path**: a digest found in the in-process LRU or the shared
  :class:`~repro.api.store.ShardedResultStore` is answered from the
  stored canonical JSON text — byte-identical to the cold response by
  construction, at microseconds instead of the engine's per-op floor.
  Validation and the digest skip the FPCore parser and printer for a
  program the process has seen: the parse comes from
  :data:`~repro.api.requests.PARSED_CORES` and the canonical text is
  cached on the core.
* **In-flight dedupe**: concurrent identical requests coalesce on a
  digest-keyed ``asyncio.Future`` — exactly one computation runs, and
  every waiter (including failures) receives that one outcome.
* **Cold path**: misses go to the supervised
  :class:`~repro.serve.pool.WorkerPool`, one
  :class:`~repro.serve.pool.Shard` task per request, naming its digest
  and the store root.  The pool runs on this service's event loop: a
  submit writes the task to an idle worker's pipe, and the loop reads
  the reply and resumes the waiting coroutine, with no thread between
  them.  The worker that computed a result writes it to
  the store before replying, so the entry is on disk before the 200
  and the event loop never blocks on a store write; the reply says
  whether the write landed, which ``/v1/stats`` counts.  Queue
  saturation surfaces as HTTP 429, shutdown as 503, per-request
  timeouts as 504, worker death as 500, a spent ``op_budget`` as 422 —
  always as structured JSON
  ``{"error": {type, message, digest}}``, never a hung or silently
  closed connection.
* **Batches**: ``/v1/batch`` runs each entry down the same path, so
  its entries coalesce with each other, with single requests and with
  other batches; each cold entry is one pool task with its own
  deadline, crash accounting and quarantine.

With INFO enabled, every request emits one structured log line
(digest, outcome, queue depth, wall-clock) on the ``repro.serve``
logger.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import json
import logging
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Dict, Optional, Tuple, Union

from repro.api.requests import PARSED_CORES, AnalysisRequest
from repro.api.results import RESULT_SCHEMA_VERSION
from repro.api.session import payload_digest
from repro.api.store import ShardedResultStore, is_digest
from repro.bigfloat.backend import substrate_status
from repro.core.config import AnalysisConfig
from repro.serve.pool import (
    AnalysisTimeout,
    PoolClosed,
    QueueFull,
    Shard,
    WorkerCrashed,
    WorkerPool,
)

logger = logging.getLogger("repro.serve")

#: Outcome sources, in the order a request probes them.
SOURCE_MEMORY = "memory"
SOURCE_STORE = "store"
SOURCE_DEDUPE = "dedupe"
SOURCE_COMPUTED = "computed"
SOURCE_ERROR = "error"


def error_body(error_type: str, message: str,
               digest: Optional[str] = None) -> str:
    """The canonical structured-error JSON text."""
    payload: Dict[str, Any] = {
        "error": {"type": error_type, "message": message}
    }
    if digest is not None:
        payload["error"]["digest"] = digest
    return json.dumps(payload, indent=2, sort_keys=True)


def _decode_body(body: bytes) -> Tuple[Any, Optional["ServeOutcome"]]:
    """A request body as JSON data, or the 400 for one that is not."""
    try:
        return json.loads(body.decode("utf-8")), None
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        return None, ServeOutcome(400, error_body("invalid_json", str(exc)))


@dataclass
class ServeOutcome:
    """One routed request: HTTP status, exact body text, and metadata."""

    status: int
    body: str
    digest: Optional[str] = None
    source: str = SOURCE_ERROR
    #: Backpressure hint (seconds) rendered as a ``Retry-After`` header
    #: on 429/503 responses; clients honor it before retrying.
    retry_after: Optional[float] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def as_dedupe(self) -> "ServeOutcome":
        """The same outcome as seen by a coalesced waiter."""
        if not self.ok:
            return self
        return ServeOutcome(self.status, self.body, self.digest,
                            SOURCE_DEDUPE)


#: Retry-After hints for shed (429) and draining (503) responses.
RETRY_AFTER_BUSY = 1.0
RETRY_AFTER_DRAINING = 5.0


@dataclass
class ServiceCounters:
    """Advisory request counters surfaced by ``/v1/stats``."""

    requests: int = 0
    batches: int = 0
    memory_hits: int = 0
    store_hits: int = 0
    dedupe_hits: int = 0
    computed: int = 0
    analysis_errors: int = 0
    timeouts: int = 0
    crashes: int = 0
    rejected: int = 0
    invalid: int = 0
    #: Analyses that spent their ``op_budget`` (answered 422).
    op_budget_exceeded: int = 0
    #: Successes the degradation ladder rescued on a lower rung.
    degraded: int = 0
    #: Requests refused because their digest is poison-quarantined.
    quarantined: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class _Lru:
    """A bounded map that evicts its least recently used entry.

    A limit of 0 keeps nothing.  ``hits`` and ``misses`` count
    :meth:`get` calls.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self._entries: "collections.OrderedDict[Any, str]" = \
            collections.OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Optional[str]:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def put(self, key: Any, value: str) -> None:
        if self.limit <= 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "capacity": self.limit,
            "hits": self.hits,
            "misses": self.misses,
        }


#: A request as the service takes it: the raw body, or its decoded dict.
Payload = Union[bytes, Dict[str, Any]]


class AnalysisService:
    """Digest-addressed analysis serving over a store and worker pool.

    All coroutine methods must run on one event loop (the server's),
    which also drives the pool's worker pipes; the analyses run in the
    pool's processes.
    """

    def __init__(
        self,
        store: Optional[ShardedResultStore] = None,
        pool: Optional[WorkerPool] = None,
        workers: int = 2,
        queue_limit: int = 64,
        timeout: Optional[float] = 300.0,
        memory_cache_size: int = 512,
        poison_threshold: int = 3,
    ) -> None:
        self.store = store
        #: Where pool workers persist the results they compute.
        self._store_root = store.root if store is not None else None
        self.pool = pool if pool is not None else WorkerPool(
            workers=workers, queue_limit=queue_limit, timeout=timeout
        )
        #: Batch entries submit to the pool only through this gate, so
        #: all batches together hold at most one queued task per worker
        #: and a batch larger than the queue is never shed.  A permit
        #: returns when a worker takes its task off the queue.
        self._batch_gate = asyncio.Semaphore(self.pool.workers)
        #: Poison-request circuit breaker: a digest whose computation
        #: kills or times out a worker this many times in a row is
        #: quarantined — answered with a structured 500 instead of
        #: respawn-looping the pool.  ``0`` disables the breaker.
        self.poison_threshold = poison_threshold
        self.counters = ServiceCounters()
        #: Digest → canonical result text.
        self._memory = _Lru(memory_cache_size)
        #: SHA-256 of a request body → the request's digest.  Keys are
        #: fixed-size, so an entry costs the same for any body size.
        self._bodies = _Lru(memory_cache_size)
        self._inflight: Dict[str, "asyncio.Future[ServeOutcome]"] = {}
        #: Consecutive infra failures (timeout / crash) per digest.
        self._infra_failures: Dict[str, int] = {}
        #: Quarantined digest → the failure kind that tripped it.
        self._quarantined: Dict[str, str] = {}
        self._degraded_rungs: "collections.Counter[str]" = \
            collections.Counter()
        #: Aggregated precision-tier residency across computed results
        #: (hardware / working / full tier ops, escalation causes).
        self._tier_residency: "collections.Counter[str]" = \
            collections.Counter()
        #: :pre evaluations that raised while computing results, by
        #: exception type (the workers' sampler counts, summed).
        self._precondition_errors: "collections.Counter[str]" = \
            collections.Counter()
        self._draining = False
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Lookup layers
    # ------------------------------------------------------------------

    def _lookup(self, digest: str) -> Optional[ServeOutcome]:
        """Probe the warm layers (memory, then the shared store)."""
        text = self._memory.get(digest)
        if text is not None:
            self.counters.memory_hits += 1
            return ServeOutcome(200, text, digest, SOURCE_MEMORY)
        if self.store is not None:
            text = self.store.get_text(digest)
            if text is not None:
                self.counters.store_hits += 1
                self._memory.put(digest, text)
                return ServeOutcome(200, text, digest, SOURCE_STORE)
        return None

    def lookup_digest(self, digest: str) -> ServeOutcome:
        """``GET /v1/result/<digest>`` — warm layers only, no compute."""
        if not is_digest(digest):
            return ServeOutcome(
                400, error_body("invalid_digest",
                                "expected 64 lowercase hex characters"),
            )
        outcome = self._lookup(digest)
        if outcome is not None:
            return outcome
        return ServeOutcome(
            404, error_body("not_found", "no stored result", digest),
            digest,
        )

    # ------------------------------------------------------------------
    # Single analysis
    # ------------------------------------------------------------------

    def _validate(self, data: Payload,
                  ) -> Tuple[Optional[Dict[str, Any]], Optional[ServeOutcome]]:
        """A request as its worker payload dict, or its counted 400."""
        if isinstance(data, bytes):
            data, error = _decode_body(data)
            if error is not None:
                self.counters.invalid += 1
                return None, error
        if not isinstance(data, dict):
            message = "request body must be a JSON object"
        else:
            try:
                return AnalysisRequest.from_dict(data).to_dict(), None
            except Exception as exc:  # noqa: BLE001 — any failure is a 400
                message = f"{type(exc).__name__}: {exc}"
        self.counters.invalid += 1
        return None, ServeOutcome(400, error_body("invalid_request", message))

    async def analyze_payload(self, data: Payload) -> ServeOutcome:
        """``POST /v1/analyze`` — one request in, one outcome out.

        ``data`` is the raw request body (the server passes it as read)
        or its decoded dict (tests, programmatic callers).  A body the
        body table holds goes straight to its digest.
        """
        started = time.monotonic()
        self.counters.requests += 1
        key = digest = None
        if isinstance(data, bytes) and self._bodies.limit > 0:
            key = hashlib.sha256(data).digest()
            digest = self._bodies.get(key)
        if digest is None:
            payload, error = self._validate(data)
            if error is not None:
                self._log(error, started)
                return error
            digest = payload_digest(payload)
            if key is not None:
                self._bodies.put(key, digest)
            data = payload
        outcome = await self._analyze_digest(digest, data)
        self._log(outcome, started)
        return outcome

    async def _analyze_digest(self, digest: str, data: Payload,
                              gate: Optional[asyncio.Semaphore] = None,
                              ) -> ServeOutcome:
        future = self._inflight.get(digest)
        if future is not None:
            # Identical request already computing: coalesce onto it.
            # Checked before the store, which the computing worker
            # writes before its reply reaches this loop.
            self.counters.dedupe_hits += 1
            return (await asyncio.shield(future)).as_dedupe()
        outcome = self._lookup(digest)
        if outcome is not None:
            return outcome
        if self._draining:
            return ServeOutcome(
                503, error_body("shutting_down",
                                "server is draining", digest),
                digest, retry_after=RETRY_AFTER_DRAINING,
            )
        future = asyncio.get_running_loop().create_future()
        self._inflight[digest] = future
        try:
            outcome = await self._compute(digest, data, gate)
        except BaseException:
            # _compute raised (cancellation, loop teardown): the
            # waiters must still get an answer, not hang forever.
            self._inflight.pop(digest, None)
            future.set_result(ServeOutcome(
                500, error_body("internal_error",
                                "computation failed", digest),
                digest,
            ))
            raise
        self._inflight.pop(digest, None)
        future.set_result(outcome)
        return outcome

    # ------------------------------------------------------------------
    # Poison-request circuit breaker
    # ------------------------------------------------------------------

    def _quarantine_outcome(self, digest: str) -> Optional[ServeOutcome]:
        """The structured refusal for a quarantined digest, if any."""
        kind = self._quarantined.get(digest)
        if kind is None:
            return None
        self.counters.quarantined += 1
        return ServeOutcome(
            500, error_body(
                "quarantined",
                f"request repeatedly killed workers ({kind}); "
                f"quarantined after {self.poison_threshold} failures",
                digest,
            ),
            digest,
        )

    def _note_infra_failure(self, digest: str, kind: str) -> None:
        """Count one timeout/crash against ``digest``; trip at threshold.

        A crash-looping *request* (not a flaky worker) shows up as the
        same digest killing worker after worker; once it crosses
        ``poison_threshold`` consecutive failures, the digest is
        quarantined and answered without touching the pool.
        """
        if self.poison_threshold <= 0:
            return
        count = self._infra_failures.get(digest, 0) + 1
        self._infra_failures[digest] = count
        if count >= self.poison_threshold and \
                digest not in self._quarantined:
            self._quarantined[digest] = kind
            logger.warning(
                "quarantined poison digest %s after %d consecutive "
                "%s failures", digest, count, kind,
            )

    async def _compute(self, digest: str, data: Payload,
                       gate: Optional[asyncio.Semaphore]) -> ServeOutcome:
        """Run one request on the pool and map the pool's failures."""
        poisoned = self._quarantine_outcome(digest)
        if poisoned is not None:
            return poisoned
        if isinstance(data, bytes):
            # A body-table hit with no warm result: the pool gets the
            # same dict a first sighting of the body would send.
            data, error = self._validate(data)
            if error is not None:
                return error
        held, on_start = False, None
        if gate is not None:
            # A batch task holds its permit only while it is queued, so
            # a worker that finishes one finds the next already waiting.
            await gate.acquire()
            held = True

            def on_start() -> None:
                nonlocal held
                held = False
                gate.release()

        try:
            reply = await self.pool.submit(
                Shard(data, digest, self._store_root), on_start=on_start
            )
        except QueueFull as exc:
            self.counters.rejected += 1
            return ServeOutcome(
                429, error_body("queue_full", str(exc), digest), digest,
                retry_after=RETRY_AFTER_BUSY,
            )
        except PoolClosed as exc:
            return ServeOutcome(
                503, error_body("shutting_down", str(exc), digest), digest,
                retry_after=RETRY_AFTER_DRAINING,
            )
        except AnalysisTimeout as exc:
            self.counters.timeouts += 1
            self._note_infra_failure(digest, "analysis_timeout")
            return ServeOutcome(
                504, error_body("analysis_timeout", str(exc), digest),
                digest,
            )
        except WorkerCrashed as exc:
            self.counters.crashes += 1
            self._note_infra_failure(digest, "worker_crashed")
            return ServeOutcome(
                500, error_body("worker_crashed", str(exc), digest),
                digest,
            )
        finally:
            if held:
                gate.release()  # never started, so on_start never ran
        return self._absorb(digest, reply)

    def _absorb(self, digest: str, reply: Tuple[Any, ...]) -> ServeOutcome:
        """Turn one worker reply into an outcome.

        The worker already wrote a success to the store; its reply says
        whether the write landed, which the store's counters record.
        """
        if reply[0] == "ok":
            _, text, sidecar, stored = reply
            self.counters.computed += 1
            self._infra_failures.pop(digest, None)
            if sidecar is not None:
                # Metadata sidecar from the worker (degradation trail,
                # tier residency): the body is byte-identical to a
                # clean run; only the stats move.
                self._note_sidecar(digest, sidecar)
            self._memory.put(digest, text)
            if stored is not None:  # the task named our store
                self.store.count_write(stored)
            return ServeOutcome(200, text, digest, SOURCE_COMPUTED)
        kind, error_type, message = reply
        if kind == "invalid":
            # The program itself is wrong (unknown function, empty
            # :pre range): a client error, and never worth a retry.
            self.counters.invalid += 1
            return ServeOutcome(
                400, error_body("invalid_request",
                                f"{error_type}: {message}", digest),
                digest,
            )
        if kind == "op_budget":
            # Deterministic: every plan analyses the same operations,
            # so a retry spends the same budget.  Not poison either.
            self.counters.op_budget_exceeded += 1
            return ServeOutcome(
                422, error_body("op_budget_exceeded", message, digest),
                digest,
            )
        self.counters.analysis_errors += 1
        return ServeOutcome(
            500, error_body("analysis_error",
                            f"{error_type}: {message}", digest),
            digest,
        )

    def _note_sidecar(self, digest: str, meta_text: str) -> None:
        try:
            sidecar = json.loads(meta_text)
        except ValueError:
            sidecar = None
        if not isinstance(sidecar, dict):
            return
        degradation = sidecar.get("degradation")
        if isinstance(degradation, dict):
            self._note_degraded(digest, degradation)
        for name, totals in (
            ("tier_residency", self._tier_residency),
            ("precondition_errors", self._precondition_errors),
        ):
            counts = sidecar.get(name)
            if isinstance(counts, dict):
                for key, value in counts.items():
                    if isinstance(value, int):
                        totals[str(key)] += value

    def _note_degraded(self, digest: str, meta: Dict[str, Any]) -> None:
        try:
            rung = str(meta.get("rung", "unknown"))
            attempts = len(meta.get("attempts", []))
        except (AttributeError, TypeError):
            rung, attempts = "unknown", 0
        self.counters.degraded += 1
        self._degraded_rungs[rung] += 1
        logger.warning(
            "degraded digest=%s rung=%s attempts=%d",
            digest, rung, attempts,
        )

    # ------------------------------------------------------------------
    # Batch analysis
    # ------------------------------------------------------------------

    async def analyze_batch_payload(self, data: Payload) -> ServeOutcome:
        """``POST /v1/batch`` — every entry down the single-request path.

        Body: ``{"requests": [request-dict, ...]}``, raw or decoded.
        The response carries one entry per request, in order: the
        result dict of a success, or an ``{"error": ...}`` object.
        Each valid entry runs :meth:`_analyze_digest`, so warm digests
        are answered from the warm layers and duplicates — within the
        batch, or of requests already in flight — coalesce onto one
        computation.  Cold entries reach the pool through the batch
        gate, one task each.
        """
        started = time.monotonic()
        self.counters.batches += 1
        if isinstance(data, bytes):
            data, error = _decode_body(data)
            if error is not None:
                self.counters.invalid += 1
                return error
        if not isinstance(data, dict) or \
                not isinstance(data.get("requests"), list):
            self.counters.invalid += 1
            return ServeOutcome(400, error_body(
                "invalid_request",
                'batch body must be {"requests": [...]}',
            ))
        if self._draining:
            return ServeOutcome(
                503, error_body("shutting_down", "server is draining"),
                retry_after=RETRY_AFTER_DRAINING,
            )

        raw_requests = data["requests"]
        self.counters.requests += len(raw_requests)
        outcomes: Dict[int, ServeOutcome] = {}
        runs: Dict[int, Awaitable[ServeOutcome]] = {}
        for index, raw in enumerate(raw_requests):
            payload, error = self._validate(raw)
            if error is not None:
                outcomes[index] = error
                continue
            runs[index] = self._analyze_digest(
                payload_digest(payload), payload, self._batch_gate
            )
        ran = await asyncio.gather(*runs.values())
        outcomes.update(zip(runs, ran))

        entries = [json.loads(outcomes[index].body)
                   for index in range(len(raw_requests))]
        errors = sum(1 for outcome in outcomes.values() if not outcome.ok)
        body = json.dumps(
            {"count": len(entries), "errors": errors, "results": entries},
            indent=2, sort_keys=True,
        )
        warm = sum(1 for outcome in ran
                   if outcome.source in (SOURCE_MEMORY, SOURCE_STORE))
        result = ServeOutcome(
            200 if errors == 0 else 207, body, None,
            SOURCE_STORE if warm == len(ran) else SOURCE_COMPUTED,
        )
        if logger.isEnabledFor(logging.INFO):
            computed = sum(1 for outcome in ran
                           if outcome.source == SOURCE_COMPUTED)
            logger.info(
                "batch requests=%d warm=%d computed=%d "
                "errors=%d queue=%d wall_ms=%.2f",
                len(raw_requests), warm, computed, errors,
                self.pool.stats()["queue_depth"],
                (time.monotonic() - started) * 1000.0,
            )
        return result

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "draining": self._draining,
            "inflight": len(self._inflight),
            "memory_entries": len(self._memory),
            "service": self.counters.to_dict(),
            "quarantined_digests": len(self._quarantined),
            "degraded_rungs": dict(self._degraded_rungs),
            "tier_residency": dict(self._tier_residency),
            "precondition_errors": dict(self._precondition_errors),
            "bodies": self._bodies.stats(),
            "programs": PARSED_CORES.stats(),
            "substrate": substrate_status(AnalysisConfig().substrate),
            "pool": self.pool.stats(),
            "store": self.store.stats() if self.store is not None else None,
        }

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "schema_version": RESULT_SCHEMA_VERSION,
        }

    async def close(self, drain: bool = True) -> None:
        """Stop accepting work; with ``drain``, finish what's in flight."""
        self._draining = True
        if drain and self._inflight:
            await asyncio.gather(
                *list(self._inflight.values()),
                return_exceptions=True,
            )
        await self.pool.close(drain)

    def _log(self, outcome: ServeOutcome, started: float) -> None:
        # Build the line only when it is written.
        if not logger.isEnabledFor(logging.INFO):
            return
        logger.info(
            "analyze digest=%s outcome=%s status=%d queue=%d wall_ms=%.2f",
            outcome.digest or "-", outcome.source, outcome.status,
            self.pool.stats()["queue_depth"],
            (time.monotonic() - started) * 1000.0,
        )
