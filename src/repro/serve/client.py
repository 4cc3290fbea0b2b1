"""A lightweight blocking client for the :mod:`repro.serve` API.

Built on :mod:`http.client` (stdlib only) with keep-alive connection
reuse, so the traffic-replay benchmark measures server latency rather
than TCP handshakes.  One :class:`ServeClient` wraps one connection and
is **not** thread-safe — concurrent load generators open one client per
thread (see ``benchmarks/bench_serving.py``).

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
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from repro.api.requests import AnalysisRequest
from repro.api.results import AnalysisResult

RequestLike = Union[AnalysisRequest, Dict[str, Any]]


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
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange_once(self, method: str, path: str,
                       body: Optional[Dict[str, Any]] = None) -> ServeReply:
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=data, headers=headers)
                response = conn.getresponse()
                text = response.read().decode("utf-8")
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                # A stale keep-alive connection (server restarted or
                # idle-closed): reconnect once, then let it raise.
                self.close()
                if attempt:
                    raise
        reply = ServeReply(
            status=response.status,
            text=text,
            digest=response.headers.get("X-Repro-Digest"),
            source=response.headers.get("X-Repro-Source", ""),
        )
        if reply.status >= 400:
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:
                payload = {"error": {"type": "unknown", "message": text}}
            raise ServeError(reply.status, payload,
                             _retry_after(response.headers))
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
