"""The ``serve-mixed`` workload: seeded traffic replayed over HTTP.

Set-up starts an in-process :class:`~repro.serve.ReproServer` over an
:class:`~repro.serve.AnalysisService` with a
:class:`~repro.api.store.ShardedResultStore` and 2 pool workers, then an
offline ``AnalysisSession(cache_dir=…)`` pre-seeds the store with a
seeded subset of requests.

Load is a closed loop of 2 keep-alive :class:`~repro.serve.ServeClient`
threads: each sends the schedule's next request as soon as its previous
reply arrived.  One replay of the schedule interleaves

* ``COLD`` requests never sent before (fresh sampling seeds), which the
  pool computes and the service writes to the store,
* ``STORE`` requests from the pre-seeded subset, cycled so that the
  service's memory LRU has evicted them by their next turn, and
* ``WARM`` repeats of the previous replay's cold requests, answered
  from memory.

The mix follows ``benchmarks/bench_serving.py``, whose seeded replay
repeats an earlier request with probability 0.7 (its ``--hit-ratio``
default): 30% of each replay is cold and 70% are hits.  How the hits
split between memory and the store is an assumption, not a measurement:
a quarter come from the store (results computed offline or before a
restart), so that ``warm_p50_ms`` falls among memory hits and
``warm_p90_ms`` among store reads, and each tracks one path.

Latency is classified by the source the server reports (``computed``
versus ``memory``/``store``), not by the intended kind.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import threading
import time
from typing import List, Optional, Tuple

from workloads import SERVE_SEEDS

#: Requests per replay by kind: 200 requests, 30% cold, and of the 70%
#: hits a quarter from the store and three quarters from memory.
COLD, STORE, WARM = 60, 35, 105
#: The service's memory LRU, pinned at ``AnalysisService``'s default.
MEMORY_CACHE_SIZE = 512
#: Pre-seeded requests per program.  Each replay puts COLD + STORE = 95
#: new results into the memory LRU, which so evicts a store-read result
#: about 512 / 95 = 5.4 replays later; with 3 seeds per program the 249
#: pre-seeded requests come round every 249 / 35 = 7.1 replays, after
#: their eviction, so they are store reads every time.
PRESEED_SEEDS = 3
WORKERS = 2
CLIENTS = 2


class ServerThread:
    """A live server on a background event-loop thread."""

    def __init__(self, store_dir: str) -> None:
        self.port: Optional[int] = None
        self.service = None
        self.error: Optional[BaseException] = None
        self._store_dir = store_dir
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=60)
        if self.error is not None:
            raise self.error
        if self.port is None:
            raise RuntimeError("server did not start within 60 s")

    async def _main(self) -> None:
        from repro.api.store import ShardedResultStore
        from repro.serve import AnalysisService, ReproServer

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.service = AnalysisService(
                store=ShardedResultStore(self._store_dir), workers=WORKERS,
                memory_cache_size=MEMORY_CACHE_SIZE,
            )
            server = ReproServer(self.service)
            _, self.port = await server.start()
        except BaseException as exc:  # noqa: BLE001 — reported by __init__
            self.error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await server.stop(drain=True)

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=120)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not stop within 120 s")


class Request:
    """One schedulable request: its payload, digest and golden key."""

    __slots__ = ("name", "seed", "payload", "digest")

    def __init__(self, name: str, seed: int, payload: dict,
                 digest: str) -> None:
        self.name = name
        self.seed = seed
        self.payload = payload
        self.digest = digest


class ServeMixed:
    """Set-up, replay and teardown of the serve workload."""

    def __init__(self, workload, cores, seed: int, workdir: str,
                 recorder) -> None:
        from repro.api import AnalysisSession

        self.workload = workload
        self.recorder = recorder
        self.rng = random.Random(seed)
        self.store_dir = os.path.join(workdir, "store")
        pool = [(core, sample_seed) for core in cores
                for sample_seed in SERVE_SEEDS]
        self.rng.shuffle(pool)
        preseeded = PRESEED_SEEDS * len(cores)
        self.preseeded = pool[:preseeded]
        self._fresh = pool[preseeded:]
        self._store_cursor = 0
        self._previous_cold: List[Request] = []
        #: Requests are built (payload, digest) when first scheduled.
        self._request_session = AnalysisSession(config=workload.config(),
                                        num_points=workload.points,
                                        result_cache_size=0)
        self._built = {}
        self.server = ServerThread(self.store_dir)
        # Pre-seed after the workers forked, so they start from the same
        # state in every mode (tracing wrappers never record in them).
        recorder.phase = "preseed"
        offline = AnalysisSession(config=workload.config(),
                                  num_points=workload.points,
                                  result_cache_size=0,
                                  cache_dir=self.store_dir)
        #: ``extra`` of each pre-seeded result (tier residency...).
        self.preseed_extras = []
        for core, sample_seed in self.preseeded:
            with recorder.span("request.preseed", core.name):
                result = offline.analyze(core, seed=sample_seed)
            self.preseed_extras.append(result.extra)

    def _request(self, core, sample_seed: int) -> Request:
        from repro.api import request_digest

        request = self._built.get((core.name, sample_seed))
        if request is None:
            built = self._request_session.request(core, seed=sample_seed)
            request = Request(core.name, sample_seed, built.to_dict(),
                              request_digest(built))
            self._built[(core.name, sample_seed)] = request
        return request

    def remaining_replays(self) -> int:
        return len(self._fresh) // COLD

    def schedule(self) -> List[Tuple[str, Request]]:
        """The next replay's seeded, interleaved request list."""
        cold = [self._request(*pair) for pair in self._fresh[:COLD]]
        del self._fresh[:COLD]
        stored = []
        for _ in range(STORE):
            stored.append(self._request(*self.preseeded[self._store_cursor]))
            self._store_cursor = (self._store_cursor + 1) % len(
                self.preseeded)
        # The first replay has no earlier cold requests: it repeats its
        # own store reads, which are evicted again by their next turn.
        warm = [self.rng.choice(self._previous_cold or stored)
                for _ in range(WARM)]
        self._previous_cold = cold
        items = ([("cold", r) for r in cold]
                 + [("store", r) for r in stored]
                 + [("warm", r) for r in warm])
        self.rng.shuffle(items)
        return items

    def replay(self, items) -> Tuple[float, List[dict]]:
        """Send ``items`` from 2 closed-loop clients; returns the wall
        clock and one record per request."""
        from repro.serve import ServeClient
        from repro.serve.client import ServeError

        records: List[Optional[dict]] = [None] * len(items)
        cursor = [0]
        lock = threading.Lock()
        recorder = self.recorder

        def client_loop() -> None:
            with ServeClient(port=self.server.port) as client:
                while True:
                    with lock:
                        index = cursor[0]
                        cursor[0] += 1
                    if index >= len(items):
                        return
                    kind, request = items[index]
                    record = {"kind": kind, "request": request,
                              "source": None, "text": None, "error": None}
                    with recorder.span("client.request", request.digest):
                        start = time.perf_counter()
                        try:
                            reply = client.analyze(request.payload)
                            record["source"] = reply.source
                            record["text"] = reply.text
                        except (ServeError, OSError) as exc:
                            record["error"] = f"{type(exc).__name__}: {exc}"
                        record["latency"] = time.perf_counter() - start
                    records[index] = record

        threads = [threading.Thread(target=client_loop)
                   for _ in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
        wall = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a replay client did not finish in 170 s")
        return wall, records

    def worker_pids(self) -> List[int]:
        return children(os.getpid())

    def close(self) -> None:
        try:
            self.server.stop()
        finally:
            shutil.rmtree(self.store_dir, ignore_errors=True)


def children(pid: int) -> List[int]:
    """Live child processes of ``pid`` (Linux ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
