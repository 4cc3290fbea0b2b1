"""The serving core: digest-addressed analysis with dedupe and caching.

:class:`AnalysisService` is the transport-free heart of the subsystem —
the HTTP layer (:mod:`repro.serve.server`) is a thin shell over it, and
tests drive it directly.  One request flows::

    payload dict ─ validate ─ digest ─ memory LRU ─ sharded store ─
      in-flight map ─ worker pool ─ store write ─ response

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
  :class:`~repro.serve.pool.WorkerPool`; queue saturation surfaces as
  HTTP 429, shutdown as 503, per-request timeouts as 504, worker death
  as 500, a spent ``op_budget`` as 422 — always as structured JSON
  ``{"error": {type, message, digest}}``, never a hung or silently
  closed connection.

With INFO enabled, every request emits one structured log line
(digest, outcome, queue depth, wall-clock) on the ``repro.serve``
logger.
"""

from __future__ import annotations

import asyncio
import collections
import json
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

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


@dataclass
class _Inflight:
    future: "asyncio.Future[ServeOutcome]"
    waiters: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)


class AnalysisService:
    """Digest-addressed analysis serving over a store and worker pool.

    All coroutine methods must run on one event loop (the server's);
    the pool does its blocking work on its own threads and processes.
    """

    def __init__(
        self,
        store: Optional[ShardedResultStore] = None,
        pool: Optional[WorkerPool] = None,
        workers: int = 2,
        queue_limit: int = 64,
        timeout: Optional[float] = 300.0,
        memory_cache_size: int = 512,
        batch_shard_size: int = 4,
        poison_threshold: int = 3,
    ) -> None:
        self.store = store
        self.pool = pool if pool is not None else WorkerPool(
            workers=workers, queue_limit=queue_limit, timeout=timeout
        )
        self.memory_cache_size = memory_cache_size
        self.batch_shard_size = max(1, batch_shard_size)
        #: Poison-request circuit breaker: a digest whose computation
        #: kills or times out a worker this many times in a row is
        #: quarantined — answered with a structured 500 instead of
        #: respawn-looping the pool.  ``0`` disables the breaker.
        self.poison_threshold = poison_threshold
        self.counters = ServiceCounters()
        self._memory: "collections.OrderedDict[str, str]" = \
            collections.OrderedDict()
        self._inflight: Dict[str, _Inflight] = {}
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
        self._draining = False
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Lookup layers
    # ------------------------------------------------------------------

    def _memory_get(self, digest: str) -> Optional[str]:
        text = self._memory.get(digest)
        if text is not None:
            self._memory.move_to_end(digest)
        return text

    def _memory_put(self, digest: str, text: str) -> None:
        if self.memory_cache_size <= 0:
            return
        self._memory[digest] = text
        self._memory.move_to_end(digest)
        while len(self._memory) > self.memory_cache_size:
            self._memory.popitem(last=False)

    def _lookup(self, digest: str) -> Optional[ServeOutcome]:
        """Probe the warm layers (memory, then the shared store)."""
        text = self._memory_get(digest)
        if text is not None:
            self.counters.memory_hits += 1
            return ServeOutcome(200, text, digest, SOURCE_MEMORY)
        if self.store is not None:
            text = self.store.get_text(digest)
            if text is not None:
                self.counters.store_hits += 1
                self._memory_put(digest, text)
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

    @staticmethod
    def parse_request(data: Any) -> Tuple[Optional[AnalysisRequest], str]:
        """Validate a payload dict; returns (request, error_message)."""
        if not isinstance(data, dict):
            return None, "request body must be a JSON object"
        try:
            return AnalysisRequest.from_dict(data), ""
        except Exception as exc:  # noqa: BLE001 — any parse failure is a 400
            return None, f"{type(exc).__name__}: {exc}"

    async def analyze_payload(self, data: Any) -> ServeOutcome:
        """``POST /v1/analyze`` — one request dict in, one outcome out."""
        started = time.monotonic()
        self.counters.requests += 1
        request, message = self.parse_request(data)
        if request is None:
            self.counters.invalid += 1
            outcome = ServeOutcome(
                400, error_body("invalid_request", message)
            )
            self._log(outcome, started)
            return outcome
        payload = request.to_dict()
        outcome = await self._analyze_digest(payload_digest(payload), payload)
        self._log(outcome, started)
        return outcome

    async def _analyze_digest(self, digest: str,
                              data: Dict[str, Any]) -> ServeOutcome:
        outcome = self._lookup(digest)
        if outcome is not None:
            return outcome
        entry = self._inflight.get(digest)
        if entry is not None:
            # Identical request already computing: coalesce onto it.
            self.counters.dedupe_hits += 1
            entry.waiters += 1
            return (await asyncio.shield(entry.future)).as_dedupe()
        if self._draining:
            return ServeOutcome(
                503, error_body("shutting_down",
                                "server is draining", digest),
                digest, retry_after=RETRY_AFTER_DRAINING,
            )
        entry = _Inflight(asyncio.get_running_loop().create_future())
        self._inflight[digest] = entry
        try:
            outcome = await self._compute(digest, data)
        except BaseException:
            # _compute raised (cancellation, loop teardown): the
            # waiters must still get an answer, not hang forever.
            self._inflight.pop(digest, None)
            entry.future.set_result(ServeOutcome(
                500, error_body("internal_error",
                                "computation failed", digest),
                digest,
            ))
            raise
        self._inflight.pop(digest, None)
        entry.future.set_result(outcome)
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

    async def _compute(self, digest: str,
                       data: Dict[str, Any]) -> ServeOutcome:
        poisoned = self._quarantine_outcome(digest)
        if poisoned is not None:
            return poisoned
        try:
            pool_future = self.pool.submit([data])
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
        try:
            [reply] = await asyncio.wrap_future(pool_future)
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
        return self._absorb(digest, reply)

    def _absorb(self, digest: str, reply: Tuple[str, ...]) -> ServeOutcome:
        """Turn one worker reply into an outcome, persisting successes."""
        if reply[0] == "ok":
            text = reply[1]
            self.counters.computed += 1
            self._infra_failures.pop(digest, None)
            if len(reply) > 2:
                # Metadata sidecar from the worker (degradation trail,
                # tier residency): the body is byte-identical to a
                # clean run; only the stats move.
                self._note_sidecar(digest, reply[2])
            self._memory_put(digest, text)
            if self.store is not None:
                self.store.put_text(digest, text)
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
        residency = sidecar.get("tier_residency")
        if isinstance(residency, dict):
            for key, value in residency.items():
                if isinstance(value, int):
                    self._tier_residency[str(key)] += value

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

    async def analyze_batch_payload(self, data: Any) -> ServeOutcome:
        """``POST /v1/batch`` — sharded fan-out with work-stealing.

        Body: ``{"requests": [request-dict, ...]}`` (optionally
        ``"shard_size"``).  The response carries one entry per request,
        in order: the result dict of a success, or an ``{"error": ...}``
        object.  Duplicate digests within the batch are computed once;
        warm digests are answered from the store; the misses are cut
        into shards pushed onto the pool's shared queue, so idle
        workers steal remaining shards instead of waiting on a static
        partition.
        """
        started = time.monotonic()
        self.counters.batches += 1
        if not isinstance(data, dict) or \
                not isinstance(data.get("requests"), list):
            self.counters.invalid += 1
            return ServeOutcome(400, error_body(
                "invalid_request",
                'batch body must be {"requests": [...]}',
            ))
        raw_requests = data["requests"]
        shard_size = data.get("shard_size", self.batch_shard_size)
        if not isinstance(shard_size, int) or isinstance(shard_size, bool) \
                or shard_size < 1:
            self.counters.invalid += 1
            return ServeOutcome(400, error_body(
                "invalid_request", "shard_size must be a positive integer"
            ))
        if self._draining:
            return ServeOutcome(
                503, error_body("shutting_down", "server is draining"),
                retry_after=RETRY_AFTER_DRAINING,
            )

        self.counters.requests += len(raw_requests)
        outcomes: List[Optional[ServeOutcome]] = [None] * len(raw_requests)
        slots: Dict[str, List[int]] = {}
        pending: List[Tuple[str, Dict[str, Any]]] = []
        for index, raw in enumerate(raw_requests):
            request, message = self.parse_request(raw)
            if request is None:
                self.counters.invalid += 1
                outcomes[index] = ServeOutcome(
                    400, error_body("invalid_request", message)
                )
                continue
            payload = request.to_dict()
            digest = payload_digest(payload)
            owners = slots.setdefault(digest, [])
            if owners:  # duplicate within the batch: computed once
                self.counters.dedupe_hits += 1
            else:
                warm = self._lookup(digest)
                if warm is not None:
                    outcomes[index] = warm
                    owners.append(index)
                    continue
                pending.append((digest, payload))
            owners.append(index)

        if pending:
            shards = [pending[i:i + shard_size]
                      for i in range(0, len(pending), shard_size)]
            results = await asyncio.gather(
                *(self._run_shard(shard) for shard in shards)
            )
            for shard, shard_outcomes in zip(shards, results):
                for (digest, _), outcome in zip(shard, shard_outcomes):
                    for index in slots[digest]:
                        if outcomes[index] is None:
                            outcomes[index] = outcome
        # Fill duplicate slots whose owner was warm.
        for digest, owners in slots.items():
            first = outcomes[owners[0]]
            for index in owners[1:]:
                if outcomes[index] is None:
                    outcomes[index] = first.as_dedupe()

        entries = [json.loads(outcome.body) for outcome in outcomes]
        errors = sum(1 for outcome in outcomes if not outcome.ok)
        body = json.dumps(
            {"count": len(entries), "errors": errors, "results": entries},
            indent=2, sort_keys=True,
        )
        result = ServeOutcome(
            200 if errors == 0 else 207, body, None,
            SOURCE_COMPUTED if pending else SOURCE_STORE,
        )
        if logger.isEnabledFor(logging.INFO):
            logger.info(
                "batch requests=%d unique=%d warm=%d computed=%d "
                "errors=%d queue=%d wall_ms=%.2f",
                len(raw_requests), len(slots), len(slots) - len(pending),
                len(pending), errors, self.pool.stats()["queue_depth"],
                (time.monotonic() - started) * 1000.0,
            )
        return result

    async def _run_shard(
        self, shard: List[Tuple[str, Dict[str, Any]]]
    ) -> List[ServeOutcome]:
        # Quarantined digests never reach the pool — answer them here
        # and submit only the live remainder of the shard.
        shard_outcomes: Dict[str, ServeOutcome] = {}
        live: List[Tuple[str, Dict[str, Any]]] = []
        for digest, data in shard:
            poisoned = self._quarantine_outcome(digest)
            if poisoned is not None:
                shard_outcomes[digest] = poisoned
            else:
                live.append((digest, data))

        def _fill(outcomes: Dict[str, ServeOutcome]) -> List[ServeOutcome]:
            return [outcomes[digest] for digest, _ in shard]

        if not live:
            return _fill(shard_outcomes)
        digests = [digest for digest, _ in live]
        payload = [data for _, data in live]
        try:
            pool_future = self.pool.submit(payload)
        except QueueFull as exc:
            self.counters.rejected += len(live)
            shard_outcomes.update({
                d: ServeOutcome(
                    429, error_body("queue_full", str(exc), d), d,
                    retry_after=RETRY_AFTER_BUSY,
                )
                for d in digests
            })
            return _fill(shard_outcomes)
        except PoolClosed as exc:
            shard_outcomes.update({
                d: ServeOutcome(
                    503, error_body("shutting_down", str(exc), d), d,
                    retry_after=RETRY_AFTER_DRAINING,
                )
                for d in digests
            })
            return _fill(shard_outcomes)
        try:
            replies = await asyncio.wrap_future(pool_future)
        except AnalysisTimeout as exc:
            self.counters.timeouts += 1
            for d in digests:
                self._note_infra_failure(d, "analysis_timeout")
            shard_outcomes.update({
                d: ServeOutcome(
                    504, error_body("analysis_timeout", str(exc), d), d
                )
                for d in digests
            })
            return _fill(shard_outcomes)
        except WorkerCrashed as exc:
            self.counters.crashes += 1
            for d in digests:
                self._note_infra_failure(d, "worker_crashed")
            shard_outcomes.update({
                d: ServeOutcome(
                    500, error_body("worker_crashed", str(exc), d), d
                )
                for d in digests
            })
            return _fill(shard_outcomes)
        shard_outcomes.update({
            digest: self._absorb(digest, reply)
            for digest, reply in zip(digests, replies)
        })
        return _fill(shard_outcomes)

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
                *(entry.future for entry in list(self._inflight.values())),
                return_exceptions=True,
            )
        # The pool join blocks (thread joins); keep the loop breathing.
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.pool.close(drain)
        )

    def _log(self, outcome: ServeOutcome, started: float) -> None:
        # pool.stats() takes the lock the dispatcher threads take too:
        # build the line only when it is written.
        if not logger.isEnabledFor(logging.INFO):
            return
        logger.info(
            "analyze digest=%s outcome=%s status=%d queue=%d wall_ms=%.2f",
            outcome.digest or "-", outcome.source, outcome.status,
            self.pool.stats()["queue_depth"],
            (time.monotonic() - started) * 1000.0,
        )
