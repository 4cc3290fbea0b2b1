"""A supervised process pool for cold analyses.

``concurrent.futures.ProcessPoolExecutor`` cannot kill a task that is
already running, which makes per-request timeouts and crash recovery
impossible — and an analysis request is arbitrary user input that can
run for minutes or exhaust a worker.  This pool therefore supervises
its own ``multiprocessing`` processes:

* each worker process is paired with a dispatcher *thread* in the
  server process; dispatchers pull tasks from one shared bounded queue
  (an idle worker steals the next task, so one slow request never
  holds up the tasks queued behind it),
* a task that exceeds its deadline gets its worker **killed** and
  respawned; the task fails with :class:`AnalysisTimeout` while every
  other task is unaffected,
* a worker that dies mid-task (segfault, ``os._exit``, OOM kill)
  is detected through the closed pipe and respawned; the task fails
  with :class:`WorkerCrashed`,
* the queue is bounded: :meth:`WorkerPool.submit` raises
  :class:`QueueFull` instead of buffering unboundedly — the serving
  layer turns that into HTTP 429 backpressure,
* :meth:`WorkerPool.close` drains: queued and in-flight tasks finish,
  late submits raise :class:`PoolClosed` (HTTP 503), workers exit
  cleanly.

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

import json
import multiprocessing
import os
import queue
import stat
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.api.requests import AnalysisRequest
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
    counters — or None.  The body bytes stay identical to the clean run
    (``to_json()`` strips both), and the service feeds the sidecar into
    ``/v1/stats``.  With a ``store_root``, the text is written to that
    store under ``digest`` before the reply is built, so the entry is on
    disk before the server answers; ``stored`` says whether the write
    landed (None when no store was named).  A failed write costs only
    the entry, never the reply.

    The ``worker.exit`` fault seam (:mod:`repro.resilience.faults`,
    inherited through the fork via ``REPRO_FAULTS``) kills the process
    mid-task with ``os._exit`` — indistinguishable from a segfault or
    an OOM kill, which is the point.
    """
    if _faults.active() and _faults.fire("worker.exit"):
        os._exit(3)  # noqa: SLF001 — simulate a hard crash
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


_SENTINEL = object()


def _pool_context():
    """Prefer fork (cheap respawns, no pickling constraints)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class _Worker:
    """One supervised worker process and its parent-side pipe."""

    def __init__(self, ctx, worker_main) -> None:
        self._ctx = ctx
        self._main = worker_main
        self.process = None
        self.conn = None
        self.restarts = -1  # first ensure() is a start, not a restart
        #: Consecutive timeout-kills/crashes; reset by any success.
        self.failures = 0
        self.ensure()

    def ensure(self) -> None:
        if self.process is not None and self.process.is_alive():
            return
        self.discard()
        parent, child = self._ctx.Pipe(duplex=True)
        self.process = self._ctx.Process(
            target=_worker_entry, args=(self._main, child), daemon=True
        )
        self.process.start()
        child.close()  # parent's recv sees EOF if the worker dies
        self.conn = parent
        self.restarts += 1

    def kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.discard()

    def discard(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
        self.conn = None
        self.process = None

    def shutdown(self, timeout: float = 2.0) -> None:
        if self.process is None:
            return
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.discard()


class WorkerPool:
    """A fixed-size supervised analysis pool with a bounded queue."""

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
        self._tasks: "queue.Queue" = queue.Queue(
            maxsize=queue_limit if queue_limit > 0 else 0
        )
        self._closed = False
        self._lock = threading.Lock()
        self.completed = 0
        self.timeouts = 0
        self.crashes = 0
        #: Times a crash-looping slot was made to cool down.
        self.cooldowns = 0
        self._active = 0
        # Resolve the default substrate (load and self-check its native
        # provider) before the first fork, so every worker and respawn
        # inherits it instead of paying for it on its first request.
        from repro.bigfloat.backend import get_backend
        from repro.core.config import AnalysisConfig

        get_backend(AnalysisConfig().substrate)
        # Spawn the processes before the dispatcher threads so the
        # initial forks happen from a quiet (single-threaded) parent.
        self._workers = [_Worker(_pool_context(), worker_main)
                         for _ in range(workers)]
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop, args=(w,),
                name=f"repro-serve-worker-{i}", daemon=True,
            )
            for i, w in enumerate(self._workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        task: Any,
        timeout: Optional[float] = None,
        on_start: Optional[Callable[[], None]] = None,
    ) -> "Future[Reply]":
        """Queue one task (a :class:`Shard` for the default worker).

        Returns a thread-safe future resolving to the worker's reply.
        The deadline defaults to the pool's ``timeout``.  ``on_start``
        is called on a dispatcher thread when a worker takes the task
        off the queue; a task cancelled while queued never starts.
        """
        if self._closed:
            raise PoolClosed("worker pool is shutting down")
        if timeout is None:
            timeout = self.timeout
        future: "Future[Reply]" = Future()
        try:
            self._tasks.put_nowait((future, task, timeout, on_start))
        except queue.Full:
            raise QueueFull(
                f"task queue at capacity ({self.queue_limit})"
            ) from None
        return future

    # ------------------------------------------------------------------
    # Dispatching (one thread per worker)
    # ------------------------------------------------------------------

    def _dispatch_loop(self, worker: _Worker) -> None:
        while True:
            item = self._tasks.get()
            if item is _SENTINEL:
                break
            future, task, timeout, on_start = item
            if not future.set_running_or_notify_cancel():
                continue
            if on_start is not None:
                try:
                    on_start()
                except Exception:  # noqa: BLE001 — keep dispatching
                    pass
            with self._lock:
                self._active += 1
            try:
                self._dispatch(worker, future, task, timeout)
            finally:
                with self._lock:
                    self._active -= 1
        worker.shutdown()

    def _cool_down(self, worker: _Worker) -> None:
        """Back off before respawning a crash-looping worker slot.

        Only this slot's dispatcher thread sleeps — queued work keeps
        draining through the healthy slots.  The delay doubles per
        failure beyond the burst allowance, capped at 30s.
        """
        excess = worker.failures - self.max_respawn_burst
        if excess < 0 or self.respawn_cooldown <= 0:
            return
        self.cooldowns += 1
        time.sleep(min(self.respawn_cooldown * (2.0 ** excess), 30.0))

    def _dispatch(self, worker, future, task, timeout) -> None:
        self._cool_down(worker)
        try:
            worker.ensure()
            worker.conn.send(task)
        except (BrokenPipeError, OSError):
            # The worker died while idle; one fresh process, one retry.
            try:
                worker.kill()
                worker.ensure()
                worker.conn.send(task)
            except (BrokenPipeError, OSError) as exc:
                self.crashes += 1
                worker.failures += 1
                future.set_exception(
                    WorkerCrashed(f"could not reach worker: {exc}")
                )
                return
        try:
            if timeout is not None and not worker.conn.poll(timeout):
                worker.kill()  # the only way to stop a running task
                self.timeouts += 1
                worker.failures += 1
                future.set_exception(AnalysisTimeout(
                    f"no result within {timeout:.1f}s; worker killed"
                ))
                return
            reply = worker.conn.recv()
        except (EOFError, OSError):
            worker.kill()
            self.crashes += 1
            worker.failures += 1
            future.set_exception(
                WorkerCrashed("worker process died mid-task")
            )
            return
        self.completed += 1
        worker.failures = 0
        future.set_result(reply)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            active = self._active
        return {
            "workers": self.workers,
            "queue_depth": self._tasks.qsize(),
            "queue_limit": self.queue_limit,
            "active": active,
            "completed": self.completed,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "cooldowns": self.cooldowns,
            "restarts": sum(w.restarts for w in self._workers),
        }

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` (default) queued tasks finish first.

        Without ``drain``, queued-but-unstarted tasks are cancelled;
        tasks already on a worker still run to completion (a kill here
        would lose computed results for no latency win).
        """
        if self._closed:
            return
        self._closed = True
        if not drain:
            while True:
                try:
                    item = self._tasks.get_nowait()
                except queue.Empty:
                    break
                if item is not _SENTINEL:
                    item[0].cancel()
        for _ in self._threads:
            # FIFO: sentinels land behind any remaining work, so each
            # dispatcher finishes the queue before exiting.
            self._tasks.put(_SENTINEL)
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
