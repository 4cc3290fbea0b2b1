"""The asyncio HTTP/JSON front-end of :mod:`repro.serve`.

A deliberately small HTTP/1.1 implementation over ``asyncio`` streams —
no third-party web framework, matching the repo's no-new-hard-deps
rule.  It supports exactly what the serving API needs: request line +
headers, ``Content-Length`` bodies, keep-alive connections, and JSON
responses with the ``X-Repro-Digest`` / ``X-Repro-Source`` headers the
client and the benchmark read.

Routes (see ``docs/serving.md`` for the full API reference):

====== ===================== ==========================================
POST   ``/v1/analyze``       one AnalysisRequest dict → AnalysisResult
                             JSON (byte-identical to an in-process
                             session; warm answers come from the store,
                             and a repeated body skips decoding)
POST   ``/v1/batch``         ``{"requests": [...]}`` → per-request
                             results, each entry served as by
                             ``/v1/analyze``
GET    ``/v1/result/<d>``    stored result for a digest, 404 on a miss
GET    ``/v1/health``        liveness (``ok`` / ``draining``)
GET    ``/v1/stats``         service, body-table, parse-table, pool
                             and store counters, and the default
                             substrate's provider and fallbacks
====== ===================== ==========================================

Multiple server processes may share one ``--store-dir``; the store's
atomic sharded writes make that safe, and each process keeps its own
memory LRU, body table, in-flight map, and worker pool.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import signal
from typing import Any, Dict, Optional, Set, Tuple

from repro.api.store import ShardedResultStore
from repro.resilience import faults as _faults
from repro.serve.service import AnalysisService, ServeOutcome, error_body

logger = logging.getLogger("repro.serve")

#: Reject request bodies larger than this (HTTP 413).
MAX_BODY_BYTES = 32 * 1024 * 1024
#: Stream limit for header lines.
_LINE_LIMIT = 64 * 1024

_STATUS_TEXT = {
    200: "OK", 207: "Multi-Status", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Content",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class _HttpRequest:
    __slots__ = ("method", "path", "version", "headers", "body")

    def __init__(self, method: str, path: str, version: str,
                 headers: Dict[str, str], body: bytes) -> None:
        self.method = method
        self.path = path
        self.version = version
        self.headers = headers
        self.body = body

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


class _BadRequest(Exception):
    def __init__(self, status: int, error_type: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[_HttpRequest]:
    """Parse one HTTP request; None on a clean EOF between requests."""
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise _BadRequest(400, "bad_request", "request line too long")
    if not line:
        return None
    try:
        method, path, version = line.decode("ascii").split()
    except ValueError:
        raise _BadRequest(400, "bad_request", "malformed request line")
    headers: Dict[str, str] = {}
    while True:
        try:
            raw = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise _BadRequest(400, "bad_request", "header line too long")
        if raw in (b"\r\n", b"\n", b""):
            break
        try:
            name, _, value = raw.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise _BadRequest(400, "bad_request", "undecodable header")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _BadRequest(400, "bad_request",
                          f"bad Content-Length: {length_text!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise _BadRequest(413, "payload_too_large",
                          f"body of {length} bytes refused")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise _BadRequest(400, "bad_request", "truncated body")
    return _HttpRequest(method, path, version, headers, body)


def _render(outcome: ServeOutcome, keep_alive: bool) -> bytes:
    body = outcome.body.encode("utf-8")
    reason = _STATUS_TEXT.get(outcome.status, "Unknown")
    lines = [
        f"HTTP/1.1 {outcome.status} {reason}",
        "Content-Type: application/json; charset=utf-8",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
        f"X-Repro-Source: {outcome.source}",
    ]
    if outcome.digest is not None:
        lines.append(f"X-Repro-Digest: {outcome.digest}")
    if outcome.retry_after is not None:
        lines.append(f"Retry-After: {int(math.ceil(outcome.retry_after))}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body


class ReproServer:
    """The asyncio server shell around one :class:`AnalysisService`."""

    def __init__(self, service: AnalysisService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()
        #: Connection tasks parked between keep-alive requests, waiting
        #: for the next one; stop() cancels exactly these.
        self._parked: Set[asyncio.Task] = set()
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns (host, actual port) — port 0 works."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=_LINE_LIMIT
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop listening, drain, release the pool.

        With ``drain`` (default), connections mid-request get their
        responses; connections parked between keep-alive requests are
        cancelled and close immediately, so nobody waits on a silent
        client.  Without ``drain``, every connection task is cancelled
        and queued pool work is dropped.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        connections = list(self._connections)
        # A drain cancels the parked connections; the ones mid-request
        # finish and close after their reply.
        for task in list(self._parked) if drain else connections:
            task.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        await self.service.close(drain)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to tell it
        except asyncio.CancelledError:
            # stop() cancelled it: end normally, since some asyncio
            # versions report a cancelled connection task as an error.
            if not self._draining:
                raise
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_connection(self, reader, writer) -> None:
        while not self._draining:
            try:
                request = await self._next_request(reader)
            except _BadRequest as exc:
                writer.write(_render(ServeOutcome(
                    exc.status, error_body(exc.error_type, str(exc))
                ), keep_alive=False))
                await writer.drain()
                return
            if request is None:
                return
            outcome = await self._route(request)
            if _faults.active() and _faults.fire("socket.reset"):
                # Chaos seam: the kernel drops the connection after the
                # response was computed but before any byte is written —
                # the worst spot for a client (work done, answer lost).
                writer.transport.abort()
                return
            keep_alive = request.keep_alive and not self._draining
            writer.write(_render(outcome, keep_alive))
            await writer.drain()
            if not keep_alive:
                return

    async def _next_request(self, reader) -> Optional[_HttpRequest]:
        """The next request, read while the connection is parked.

        Parked connections are the ones :meth:`stop` cancels, so a
        drain never waits on a silent keep-alive client; a request
        already being routed is no longer parked and gets its reply.
        """
        task = asyncio.current_task()
        self._parked.add(task)
        try:
            return await _read_request(reader)
        finally:
            self._parked.discard(task)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(self, request: _HttpRequest) -> ServeOutcome:
        method, path = request.method, request.path
        if path == "/v1/health":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return ServeOutcome(
                200, _dumps(self.service.health()), source="health"
            )
        if path == "/v1/stats":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return ServeOutcome(
                200, _dumps(self.service.stats()), source="stats"
            )
        if path.startswith("/v1/result/"):
            if method != "GET":
                return self._method_not_allowed(method, path)
            return self.service.lookup_digest(path[len("/v1/result/"):])
        if path == "/v1/analyze":
            if method != "POST":
                return self._method_not_allowed(method, path)
            return await self.service.analyze_payload(request.body)
        if path == "/v1/batch":
            if method != "POST":
                return self._method_not_allowed(method, path)
            return await self.service.analyze_batch_payload(request.body)
        return ServeOutcome(
            404, error_body("not_found", f"no route for {path}")
        )

    @staticmethod
    def _method_not_allowed(method: str, path: str) -> ServeOutcome:
        return ServeOutcome(
            405, error_body("method_not_allowed",
                            f"{method} not supported on {path}")
        )


def _dumps(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# Blocking entry point (the `herbgrind-py serve` subcommand)
# ----------------------------------------------------------------------

def run_server(
    host: str = "127.0.0.1",
    port: int = 8318,
    workers: int = 2,
    store_dir: Optional[str] = None,
    queue_limit: int = 64,
    timeout: Optional[float] = 300.0,
    log_level: str = "info",
) -> int:
    """Run a server until SIGINT/SIGTERM, then drain and exit 0."""
    logging.basicConfig(
        level=getattr(logging, log_level.upper(), logging.INFO),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    return asyncio.run(_amain(
        host=host, port=port, workers=workers, store_dir=store_dir,
        queue_limit=queue_limit, timeout=timeout,
    ))


async def _amain(host, port, workers, store_dir, queue_limit,
                 timeout) -> int:
    store = ShardedResultStore(store_dir) if store_dir else None
    service = AnalysisService(
        store=store, workers=workers, queue_limit=queue_limit,
        timeout=timeout,
    )
    server = ReproServer(service, host, port)
    bound_host, bound_port = await server.start()
    # The smoke harness and humans both read this line; keep it stable.
    print(f"repro-serve listening on http://{bound_host}:{bound_port} "
          f"(workers={workers}, store={store_dir or '<memory-only>'})",
          flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix event loops
    await stop.wait()
    logger.info("shutdown requested; draining")
    await server.stop(drain=True)
    logger.info("shutdown complete")
    return 0
