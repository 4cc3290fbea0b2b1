"""A lightweight blocking client for the :mod:`repro.serve` API.

Speaks just enough HTTP/1.1 for the server's JSON API over one
keep-alive socket (stdlib only), so the traffic-replay benchmark
measures server latency rather than TCP handshakes or client-side
parsing: each request goes out as one ``sendall`` (so the server's
event loop wakes once per request), and each response is read as a
status line, headers and exactly ``Content-Length`` body bytes.  One
:class:`ServeClient` wraps one connection and is **not** thread-safe —
concurrent load generators open one client per thread (see
``benchmarks/bench_serving.py``).

With ``retries > 0`` the client absorbs transient failures: transport
errors (connection reset, server restart), backpressure (429) and
draining (503) responses, and worker-crash 500s are retried with
exponential backoff plus deterministic jitter (``jitter_seed``),
honoring the server's ``Retry-After`` header as a floor on the delay.
The default ``retries=0`` keeps every failure visible to the caller.

>>> client = ServeClient("127.0.0.1", 8318)
>>> reply = client.analyze(session.request(core))   # doctest: +SKIP
>>> reply.source                                     # doctest: +SKIP
'computed'
>>> client.analyze(session.request(core)).source     # doctest: +SKIP
'store'
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.api.requests import AnalysisRequest
from repro.api.results import AnalysisResult

RequestLike = Union[AnalysisRequest, Dict[str, Any]]

#: Longest status or header line read from a response.
_LINE_LIMIT = 64 * 1024


class ServeError(Exception):
    """A structured error response from the server.

    Carries the HTTP ``status`` and the decoded ``{"error": ...}``
    payload: ``error_type``, ``message``, and ``digest`` when the
    server knew it, plus the parsed ``Retry-After`` header (seconds)
    on backpressure responses.
    """

    def __init__(self, status: int, payload: Dict[str, Any],
                 retry_after: Optional[float] = None) -> None:
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        self.status = status
        self.error_type = error.get("type", "unknown")
        self.message = error.get("message", "")
        self.digest = error.get("digest")
        self.retry_after = retry_after
        super().__init__(
            f"HTTP {status} {self.error_type}: {self.message}"
        )

    @property
    def transient(self) -> bool:
        """Whether a retry may plausibly succeed (429/503, dead worker)."""
        if self.status in (429, 503):
            return True
        return self.status == 500 and self.error_type == "worker_crashed"


@dataclass
class ServeReply:
    """One successful exchange: exact body text plus routing metadata."""

    status: int
    text: str
    digest: Optional[str]
    source: str

    def json(self) -> Any:
        return json.loads(self.text)

    def result(self) -> AnalysisResult:
        return AnalysisResult.from_json(self.text)


def _payload(request: RequestLike) -> Dict[str, Any]:
    if isinstance(request, AnalysisRequest):
        return request.to_dict()
    return request


class _Headers(dict):
    """Response headers stored under lower-cased names; ``get`` takes
    a name in any case."""

    def get(self, name: str, default: Any = None) -> Any:
        return dict.get(self, name.lower(), default)


def _retry_after(headers) -> Optional[float]:
    value = headers.get("Retry-After")
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


class ServeClient:
    """A keep-alive HTTP client for one ``repro serve`` endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8318,
                 timeout: float = 120.0, retries: int = 0,
                 backoff_base: float = 0.1, backoff_cap: float = 5.0,
                 jitter_seed: Optional[int] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = random.Random(jitter_seed)
        self._sock: Optional[socket.socket] = None
        self._rfile = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _read_line(self) -> bytes:
        line = self._rfile.readline(_LINE_LIMIT + 1)
        if len(line) > _LINE_LIMIT:
            raise http.client.LineTooLong("response line")
        return line

    def _read_response(self) -> Tuple[int, _Headers, bytes]:
        """One response off the socket: status, headers, exact body.

        Anything short of a whole ``Content-Length`` response (EOF
        before the status line or inside the body, a chunked or
        unframed body) raises an ``http.client`` error.
        """
        line = self._read_line()
        if not line:
            raise http.client.RemoteDisconnected(
                "server closed the connection without a response")
        parts = line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/") \
                or not parts[1].isdigit():
            raise http.client.BadStatusLine(repr(line))
        headers = _Headers()
        while True:
            raw = self._read_line()
            if raw in (b"\r\n", b"\n"):
                break
            name, colon, value = raw.decode("latin-1").partition(":")
            if not colon:
                raise http.client.HTTPException(
                    f"malformed or missing header line {raw!r}")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "")
        if "transfer-encoding" in headers or not length.isdigit():
            raise http.client.HTTPException(
                "response body is not framed by a Content-Length")
        size = int(length)
        body = self._rfile.read(size)
        if len(body) < size:
            raise http.client.IncompleteRead(body, size - len(body))
        if headers.get("connection", "").lower() == "close":
            self.close()
        return int(parts[1]), headers, body

    def _roundtrip(self, method: str, path: str,
                   data: Optional[bytes] = None
                   ) -> Tuple[int, _Headers, bytes]:
        """Send one request in one write and read its response."""
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n")
        if data is not None:
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(data)}\r\n")
        message = (head + "\r\n").encode("ascii") + (data or b"")
        for attempt in (0, 1):
            try:
                if self._sock is None:
                    self._connect()
                self._sock.sendall(message)
                return self._read_response()
            except (http.client.HTTPException, ConnectionError, OSError):
                # A stale keep-alive connection (server restarted or
                # idle-closed): reconnect once, then let it raise.
                self.close()
                if attempt:
                    raise

    def _exchange_once(self, method: str, path: str,
                       body: Optional[Dict[str, Any]] = None) -> ServeReply:
        data = None if body is None else json.dumps(body).encode("utf-8")
        status, headers, raw = self._roundtrip(method, path, data)
        text = raw.decode("utf-8")
        reply = ServeReply(
            status=status,
            text=text,
            digest=headers.get("x-repro-digest"),
            source=headers.get("x-repro-source", ""),
        )
        if reply.status >= 400:
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:
                payload = {"error": {"type": "unknown", "message": text}}
            raise ServeError(reply.status, payload, _retry_after(headers))
        return reply

    def _retry_delay(self, attempt: int,
                     retry_after: Optional[float]) -> float:
        """Exponential backoff with full-range jitter, floored by the
        server's ``Retry-After`` hint when it gave one."""
        delay = min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        delay *= 0.5 + self._rng.random()
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay

    def _exchange(self, method: str, path: str,
                  body: Optional[Dict[str, Any]] = None) -> ServeReply:
        attempt = 0
        while True:
            try:
                return self._exchange_once(method, path, body)
            except ServeError as exc:
                if attempt >= self.retries or not exc.transient:
                    raise
                retry_after = exc.retry_after
            except (http.client.HTTPException, ConnectionError, OSError):
                # Transport-level failure after the one reconnect
                # _exchange_once already attempted (server restarting,
                # connection aborted mid-response).
                if attempt >= self.retries:
                    raise
                retry_after = None
            time.sleep(self._retry_delay(attempt, retry_after))
            attempt += 1

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._exchange("GET", "/v1/health").json()

    def stats(self) -> Dict[str, Any]:
        return self._exchange("GET", "/v1/stats").json()

    def result_text(self, digest: str) -> ServeReply:
        """``GET /v1/result/<digest>`` — raises ServeError(404) on a miss."""
        return self._exchange("GET", f"/v1/result/{digest}")

    def analyze(self, request: RequestLike) -> ServeReply:
        """``POST /v1/analyze`` — returns the reply with the exact body.

        ``reply.text`` is byte-identical to
        ``AnalysisSession().analyze(request).to_json()`` for the same
        request; ``reply.result()`` parses it.
        """
        return self._exchange("POST", "/v1/analyze", _payload(request))

    def analyze_result(self, request: RequestLike) -> AnalysisResult:
        return self.analyze(request).result()

    def batch(self, requests: List[RequestLike]) -> Dict[str, Any]:
        """``POST /v1/batch`` — returns the decoded batch envelope."""
        body = {"requests": [_payload(r) for r in requests]}
        return self._exchange("POST", "/v1/batch", body).json()
