"""A supervised process pool for cold analyses.

``concurrent.futures.ProcessPoolExecutor`` cannot kill a task that is
already running, which makes per-request timeouts and crash recovery
impossible — and an analysis request is arbitrary user input that can
run for minutes or exhaust a worker.  This pool therefore supervises
its own ``multiprocessing`` processes:

* the server's event loop drives every worker pipe itself, with no
  thread in between: :meth:`WorkerPool.submit` pickles a task straight
  down an idle worker's pipe or appends it to one shared bounded queue,
  and a reader callback per pipe (``loop.add_reader``) reads the reply,
  resolves the task's ``asyncio.Future`` and sends that worker the
  next queued task before it returns (an idle worker takes the next
  task, so one slow request never holds up the tasks queued behind it),
* a task that exceeds its deadline (a ``loop.call_later`` timer) gets
  its worker **killed** and respawned; the task fails with
  :class:`AnalysisTimeout` while every other task is unaffected,
* a worker that dies mid-task (segfault, ``os._exit``, OOM kill)
  is detected through the EOF on its pipe and respawned; the task fails
  with :class:`WorkerCrashed`.  A slot that keeps failing cools down
  on a ``call_later`` timer before it takes another task, so the loop
  never sleeps,
* the queue is bounded: :meth:`WorkerPool.submit` raises
  :class:`QueueFull` instead of buffering unboundedly — the serving
  layer turns that into HTTP 429 backpressure,
* the coroutine :meth:`WorkerPool.close` drains: queued and in-flight
  tasks finish, late submits raise :class:`PoolClosed` (HTTP 503),
  workers exit cleanly.

A reply is read whole once its first bytes arrive: a worker writes it
with one send after its computation, so the read takes as long as
copying the bytes.

The default worker's task is a :class:`Shard`: one request dict, its
digest, and the root of the result store its success persists to.  The
pool only forwards a task, so a custom ``worker_main`` may take any
payload.  The future resolves to the task's one reply tuple:
``("ok", result_json_text, sidecar_json, stored)``,
``("invalid", error_type, message)`` for a program or input the
analysis rejects (:class:`~repro.resilience.errors.InvalidInputError`),
``("op_budget", error_type, message)`` for an analysis that spent its
``op_budget`` (:class:`~repro.resilience.errors.OpBudgetExceeded`), or
``("error", error_type, message)``.
Analysis failures are therefore *data*, not pool exceptions — only
infrastructure failures (timeout, crash, rejection) surface as
exceptions on the future.
"""

from __future__ import annotations

import asyncio
import collections
import json
import multiprocessing
import os
import stat
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.api.requests import AnalysisRequest
from repro.api.sampling import sampler_precondition_errors
from repro.api.session import _execute
from repro.api.store import ShardedResultStore
from repro.resilience import faults as _faults
from repro.resilience.errors import InvalidInputError, OpBudgetExceeded

#: The reply tuple the default worker sends back for one request dict.
Reply = Tuple[Any, ...]


@dataclass(frozen=True)
class Shard:
    """One task for the default worker: a request, and where it goes.

    ``digest`` names the request's store entry.  ``store_root`` is the
    root of the :class:`~repro.api.store.ShardedResultStore` an ``ok``
    result is written to before the worker replies; None persists
    nothing.
    """

    request: Dict[str, Any]
    digest: Optional[str] = None
    store_root: Optional[str] = None


class PoolError(Exception):
    """Base class of pool infrastructure failures."""


class QueueFull(PoolError):
    """The bounded task queue is full — shed load (HTTP 429)."""


class PoolClosed(PoolError):
    """The pool is shutting down — stop sending work (HTTP 503)."""


class AnalysisTimeout(PoolError):
    """The task exceeded its deadline; its worker was killed."""


class WorkerCrashed(PoolError):
    """The worker process died mid-task."""


#: Result stores of this worker process, one per root.
_STORES: Dict[str, ShardedResultStore] = {}


def serve_request(data: Dict[str, Any], digest: Optional[str] = None,
                  store_root: Optional[str] = None) -> Reply:
    """The default worker's body for one request dict: its reply tuple.

    Runs :func:`repro.api.session._execute` — the same no-cache path
    ``analyze_batch`` workers use — and serializes the result with
    ``to_json()`` so the serving layer ships bytes identical to an
    in-process ``AnalysisSession``.  Any exception an analysis raises
    becomes an ``("invalid", ...)``, ``("op_budget", ...)`` or
    ``("error", type, message)`` reply; only process death is a crash.

    An ``ok`` reply is ``("ok", text, sidecar, stored)``.  ``sidecar``
    is a JSON object holding the result's process-local metadata — a
    degradation record the ladder produced, precision-tier residency
    counters, the :pre evaluations that raised while sampling its
    inputs (by exception type) — or None.  The body bytes stay
    identical to the clean run (none of it is in ``to_json()``), and
    the service feeds the sidecar into ``/v1/stats``.  With a
    ``store_root``, the text is written to that store under ``digest``
    before the reply is built, so the entry is on disk before the
    server answers; ``stored`` says whether the write landed (None when
    no store was named).  A failed write costs only the entry, never
    the reply.

    The ``worker.exit`` fault seam (:mod:`repro.resilience.faults`,
    inherited through the fork via ``REPRO_FAULTS``) kills the process
    mid-task with ``os._exit`` — indistinguishable from a segfault or
    an OOM kill, which is the point.
    """
    if _faults.active() and _faults.fire("worker.exit"):
        os._exit(3)  # noqa: SLF001 — simulate a hard crash
    raised_before = sampler_precondition_errors()
    try:
        result = _execute(AnalysisRequest.from_dict(data))
        text = result.to_json()
    except InvalidInputError as exc:
        return ("invalid", type(exc).__name__, str(exc))
    except OpBudgetExceeded as exc:
        return ("op_budget", type(exc).__name__, str(exc))
    except Exception as exc:  # noqa: BLE001 — reply, don't die
        return ("error", type(exc).__name__, str(exc))
    sidecar = {}
    degradation = result.extra.get("degradation")
    if degradation is not None:
        sidecar["degradation"] = degradation
    residency = result.extra.get("tier_residency")
    if residency is not None:
        sidecar["tier_residency"] = residency
    raised: "collections.Counter[str]" = collections.Counter()
    for key, count in sampler_precondition_errors().items():
        raised[key[1]] += count - raised_before.get(key, 0)
    raised = +raised  # drop the types this request did not raise
    if raised:
        sidecar["precondition_errors"] = dict(raised)
    stored = None
    if store_root is not None:
        store = _STORES.get(store_root)
        if store is None:
            store = _STORES[store_root] = ShardedResultStore(store_root)
        stored = store.put_text(digest, text)
    return ("ok", text,
            json.dumps(sidecar, sort_keys=True) if sidecar else None,
            stored)


def _analysis_worker_main(conn) -> None:
    """Worker-process loop: a :class:`Shard` in, its reply out."""
    while True:
        try:
            shard = conn.recv()
        except (EOFError, OSError):
            break
        if shard is None:
            break
        reply = serve_request(shard.request, shard.digest, shard.store_root)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break


def _scrub_inherited_sockets(keep_fd: int) -> None:
    """Close socket fds the fork copied from the server process.

    A forked worker inherits every open fd: the listening socket,
    accepted client connections, sibling workers' pipes.  Left open,
    those dups pin TCP connections for the worker's lifetime — the
    peer's close never reaches EOF, so keep-alive connections (and
    graceful shutdown waiting on them) hang.  Only the worker's own
    command pipe (a socketpair) is kept; non-socket fds (stdio, log
    files, the resource tracker pipe) are left alone.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):  # no procfs: skip the hygiene pass
        return
    for fd in fds:
        if fd <= 2 or fd == keep_fd:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _worker_entry(worker_main: Callable, conn) -> None:
    """Child-process entry: fd hygiene first, then the worker loop."""
    _scrub_inherited_sockets(conn.fileno())
    worker_main(conn)


def _pool_context():
    """Prefer fork (cheap respawns, no pickling constraints)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


#: One submitted task: (future, task, deadline seconds, on_start).
_Job = Tuple["asyncio.Future[Reply]", Any, Optional[float],
             Optional[Callable[[], None]]]


class _Worker:
    """One supervised worker process, its parent-side pipe, and its slot.

    Once the pool is bound to an event loop, the loop watches ``conn``
    from the moment the process starts until just before the pipe is
    closed, so a reply (or the EOF of a dead worker) runs the pool's
    callback without any thread in between.
    """

    def __init__(self, ctx, worker_main) -> None:
        self._ctx = ctx
        self._main = worker_main
        self.process = None
        self.conn = None
        self.restarts = -1  # first ensure() is a start, not a restart
        #: Consecutive timeout-kills/crashes; reset by any success.
        self.failures = 0
        #: The task on the worker, or None when the slot is idle.
        self.job: Optional[_Job] = None
        #: The running task's deadline, or the end of a cooldown.
        self.timer: Optional[asyncio.TimerHandle] = None
        #: A crash-looping slot takes no task until its cooldown ends.
        self.cooling = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._on_readable: Optional[Callable] = None
        self.ensure()

    @property
    def idle(self) -> bool:
        return self.job is None and not self.cooling

    def watch(self, loop, on_readable) -> None:
        """Hand the pipe to ``loop``: ``on_readable(self)`` per event."""
        self._loop = loop
        self._on_readable = on_readable
        if self.conn is not None:
            loop.add_reader(self.conn.fileno(), on_readable, self)

    def ensure(self) -> None:
        """Start the process unless it runs (its pipe is still open)."""
        if self.conn is not None:
            return
        parent, child = self._ctx.Pipe(duplex=True)
        self.process = self._ctx.Process(
            target=_worker_entry, args=(self._main, child), daemon=True
        )
        self.process.start()
        child.close()  # the parent's pipe reads EOF if the worker dies
        self.conn = parent
        self.restarts += 1
        if self._loop is not None:
            self._loop.add_reader(parent.fileno(), self._on_readable, self)

    def kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.discard()

    def discard(self) -> None:
        if self.conn is not None:
            # The loop lets go of the fd before it is closed (and maybe
            # reused by the next pipe).
            if self._loop is not None:
                self._loop.remove_reader(self.conn.fileno())
            try:
                self.conn.close()
            except OSError:
                pass
        self.conn = None
        self.process = None


class WorkerPool:
    """A fixed-size supervised analysis pool with a bounded queue.

    Every method but :meth:`stats` runs on one event loop: the pool
    binds to the running loop on its first :meth:`submit` (or
    :meth:`close`), and from then on that loop reads the workers'
    pipes.  The processes start at construction, which may happen
    outside any loop.
    """

    def __init__(
        self,
        workers: int = 2,
        queue_limit: int = 64,
        timeout: Optional[float] = 300.0,
        worker_main: Callable = _analysis_worker_main,
        max_respawn_burst: int = 5,
        respawn_cooldown: float = 0.5,
    ) -> None:
        if workers < 1:
            raise ValueError("worker pool needs at least one worker")
        self.workers = workers
        self.queue_limit = queue_limit
        self.timeout = timeout
        #: Consecutive failures a worker slot may accumulate before
        #: respawns start backing off (crash-loop guard): a slot whose
        #: process dies on every task would otherwise fork in a tight
        #: loop, starving the healthy slots of CPU.
        self.max_respawn_burst = max_respawn_burst
        #: Base of the exponential respawn back-off, in seconds.
        self.respawn_cooldown = respawn_cooldown
        #: Tasks no worker has taken yet, oldest first.
        self._queue: Deque[_Job] = collections.deque()
        self._closed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Resolved once a closing pool has no task queued or running.
        self._drained: Optional[asyncio.Future] = None
        self.completed = 0
        self.timeouts = 0
        self.crashes = 0
        #: Times a crash-looping slot was made to cool down.
        self.cooldowns = 0
        # Resolve the default substrate (load and self-check its native
        # provider) before the first fork, so every worker and respawn
        # inherits it instead of paying for it on its first request.
        from repro.bigfloat.backend import get_backend
        from repro.core.config import AnalysisConfig

        get_backend(AnalysisConfig().substrate)
        self._workers: List[_Worker] = [
            _Worker(_pool_context(), worker_main) for _ in range(workers)
        ]

    def _bind(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            for worker in self._workers:
                worker.watch(loop, self._on_readable)
        elif loop is not self._loop:
            raise RuntimeError("worker pool is bound to another event loop")
        return loop

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        task: Any,
        timeout: Optional[float] = None,
        on_start: Optional[Callable[[], None]] = None,
    ) -> "asyncio.Future[Reply]":
        """Queue one task (a :class:`Shard` for the default worker).

        Must be called on the pool's event loop.  Returns an
        ``asyncio.Future`` resolving to the worker's reply; an idle
        worker gets the task before this returns.  The deadline
        defaults to the pool's ``timeout``.  ``on_start`` is called on
        the loop just before the task is sent to a worker, and an
        exception from it fails the task; a task cancelled while queued
        never starts.  Cancelling a running task does not stop it: its
        reply is read and dropped.
        """
        if self._closed:
            raise PoolClosed("worker pool is shutting down")
        loop = self._bind()
        future = loop.create_future()
        job = (future, task,
               self.timeout if timeout is None else timeout, on_start)
        for worker in self._workers:
            if worker.idle:  # then nothing is queued either
                self._start(worker, job)
                return future
        if 0 < self.queue_limit <= len(self._queue):
            raise QueueFull(f"task queue at capacity ({self.queue_limit})")
        self._queue.append(job)
        return future

    # ------------------------------------------------------------------
    # Supervision (loop callbacks)
    # ------------------------------------------------------------------

    def _start(self, worker: _Worker, job: _Job) -> None:
        """Send ``job`` to the idle ``worker`` and arm its deadline."""
        future, task, timeout, on_start = job
        if on_start is not None:
            try:
                on_start()
            except Exception as exc:  # noqa: BLE001 — the task's failure
                future.set_exception(exc)
                return
        try:
            try:
                worker.ensure()
                worker.conn.send(task)
            except OSError:
                # The worker died while idle; one fresh process, one retry.
                worker.kill()
                worker.ensure()
                worker.conn.send(task)
        except OSError as exc:
            self.crashes += 1
            self._fail(worker, future,
                       WorkerCrashed(f"could not reach worker: {exc}"))
            return
        except Exception as exc:  # noqa: BLE001 — e.g. unpicklable task
            future.set_exception(exc)
            return
        worker.job = job
        if timeout is not None:
            worker.timer = self._loop.call_later(timeout, self._expire,
                                                 worker)

    def _on_readable(self, worker: _Worker) -> None:
        """A worker's pipe is readable: its reply, or its death."""
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError):
            self._lost(worker)
            return
        future = worker.job[0]
        self._end_job(worker)
        self.completed += 1
        worker.failures = 0
        if not future.cancelled():
            future.set_result(reply)
        self._feed(worker)

    def _lost(self, worker: _Worker) -> None:
        job = worker.job
        if job is None:
            # Died idle (or exited at shutdown): the next task respawns it.
            worker.kill()
            return
        self._end_job(worker)
        self.crashes += 1
        self._fail(worker, job[0],
                   WorkerCrashed("worker process died mid-task"))
        self._feed(worker)

    def _expire(self, worker: _Worker) -> None:
        future, _, timeout, _ = worker.job
        self._end_job(worker)
        self.timeouts += 1
        # Killing the worker is the only way to stop a running task.
        self._fail(worker, future, AnalysisTimeout(
            f"no result within {timeout:.1f}s; worker killed"
        ))
        self._feed(worker)

    def _end_job(self, worker: _Worker) -> None:
        worker.job = None
        if worker.timer is not None:
            worker.timer.cancel()
            worker.timer = None

    def _fail(self, worker: _Worker, future, error: PoolError) -> None:
        """Kill the slot's worker and fail its task with ``error``.

        A slot that keeps failing backs off before its next task (and
        so its respawn): the delay doubles per failure beyond the burst
        allowance, capped at 30s.  The loop and the healthy slots keep
        running meanwhile.
        """
        worker.kill()
        worker.failures += 1
        if not future.done():
            future.set_exception(error)
        excess = worker.failures - self.max_respawn_burst
        if excess >= 0 and self.respawn_cooldown > 0:
            self.cooldowns += 1
            worker.cooling = True
            worker.timer = self._loop.call_later(
                min(self.respawn_cooldown * (2.0 ** excess), 30.0),
                self._warm, worker,
            )

    def _warm(self, worker: _Worker) -> None:
        worker.cooling = False
        worker.timer = None
        self._feed(worker)

    def _feed(self, worker: _Worker) -> None:
        """Give a slot that just went idle its next queued task."""
        queue = self._queue
        while queue and worker.idle:
            job = queue.popleft()
            if not job[0].cancelled():
                self._start(worker, job)
        if self._drained is not None and not queue and \
                all(w.job is None for w in self._workers):
            if not self._drained.done():
                self._drained.set_result(None)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counters and depths; safe to read from any thread."""
        return {
            "workers": self.workers,
            "queue_depth": len(self._queue),
            "queue_limit": self.queue_limit,
            "active": sum(1 for w in self._workers if w.job is not None),
            "completed": self.completed,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "cooldowns": self.cooldowns,
            "restarts": sum(w.restarts for w in self._workers),
        }

    @property
    def closed(self) -> bool:
        return self._closed

    async def close(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` (default) queued tasks finish first.

        Without ``drain``, queued-but-unstarted tasks are cancelled;
        tasks already on a worker still run to completion (a kill here
        would lose computed results for no latency win).  Each worker
        is then asked to exit, and killed if it has not within 2s.
        """
        if self._closed:
            return
        self._closed = True
        loop = self._bind()
        if not drain:
            while self._queue:
                self._queue.popleft()[0].cancel()
        if self._queue or any(w.job is not None for w in self._workers):
            self._drained = loop.create_future()
            await self._drained
        for worker in self._workers:
            if worker.timer is not None:  # a cooldown nobody waits for
                worker.timer.cancel()
                worker.timer = None
            if worker.conn is not None:
                try:
                    worker.conn.send(None)
                except OSError:
                    worker.kill()
        # Each exit closes its pipe, and the reader callback reaps it.
        deadline = loop.time() + 2.0
        while any(w.conn is not None for w in self._workers) and \
                loop.time() < deadline:
            await asyncio.sleep(0.01)
        for worker in self._workers:
            worker.kill()

    async def __aenter__(self) -> "WorkerPool":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
