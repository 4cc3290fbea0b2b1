"""Shared harness for the serving tests.

``ServerHarness`` runs a real :class:`repro.serve.ReproServer` (real
sockets, real worker processes) on a background thread's event loop so
synchronous tests can drive it with :class:`repro.serve.ServeClient`.

``selective_worker_main`` is a drop-in for the pool's default worker
that reads directives out of the benchmark *name* — ``crash-me`` dies
with ``os._exit``, ``slowpoke`` sleeps before computing — and then
hands the request to the default worker's own per-request body
(:func:`repro.serve.pool.serve_request`), so tests can
provoke worker crashes, timeouts, and queue backpressure with plain,
valid ``AnalysisRequest`` payloads flowing through the full stack.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serve.server import ReproServer
from repro.serve.service import AnalysisService

#: Seconds a "slowpoke" benchmark stalls its worker.
SLOW_SECONDS = 0.6


def selective_worker_main(conn):
    """The default analysis worker, plus test directives by name."""
    import os
    import time

    from repro.serve.pool import serve_request

    while True:
        try:
            shard = conn.recv()
        except (EOFError, OSError):
            break
        if shard is None:
            break
        data = shard.request
        core = data.get("core", "") if isinstance(data, dict) else ""
        if "crash-me" in core:
            os._exit(3)
        if "slowpoke" in core:
            time.sleep(SLOW_SECONDS)
        conn.send(serve_request(data, shard.digest, shard.store_root))


class ServerHarness:
    """One server + service on a dedicated event-loop thread."""

    def __init__(self, **service_kwargs) -> None:
        self.service = None
        self.server = None
        self.port = None
        self.error = None
        self._loop = None
        self._stop_event = None
        self._drain = True
        self._stopped = False
        self._ready = threading.Event()
        self._service_kwargs = service_kwargs
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("server did not come up in 60s")
        if self.error is not None:
            raise self.error

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self.service = AnalysisService(**self._service_kwargs)
            self.server = ReproServer(self.service)
            _, self.port = await self.server.start()
        except Exception as exc:  # noqa: BLE001 — reported to the test
            self.error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop(drain=self._drain)

    def stop(self, drain: bool = True) -> None:
        if self._stopped or self.error is not None:
            return
        self._stopped = True
        self._drain = drain
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("server did not shut down in 60s")

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(port=self.port)


class BrokenBackend:
    """A backend whose every run fails with a non-input error."""

    def run(self, program, points, request):
        raise RuntimeError("backend exploded")


@pytest.fixture()
def broken_backend(monkeypatch):
    """Register :class:`BrokenBackend` as ``"broken"`` for one test.

    Register it before the pool starts: forked workers inherit the
    registry as it was at the fork.
    """
    from repro.api import backends

    monkeypatch.setitem(backends._REGISTRY, "broken", BrokenBackend)
    return "broken"


@pytest.fixture()
def selective_worker():
    """The directive-aware worker main (tests/ has no package path)."""
    return selective_worker_main


@pytest.fixture()
def harness_factory():
    """Build harnesses that are always stopped at test exit."""
    created = []

    def make(**service_kwargs) -> ServerHarness:
        harness = ServerHarness(**service_kwargs)
        created.append(harness)
        return harness

    yield make
    for harness in created:
        harness.stop()
