"""ServeClient's HTTP/1.1 transport, checked against stdlib ``http.client``.

The in-house client and the in-house server must not be each other's
only check.  ``TestInterop`` reads each kind of response the server
gives once with :mod:`http.client` and once with :class:`ServeClient`,
and the two must agree on the status, the body bytes and the headers
the client uses.  ``TestTransportEdges`` drives the client against a
scripted socket server: stale and closed keep-alive connections,
responses cut short or not framed by ``Content-Length``, header case,
and what a request puts on the wire.
"""

import functools
import http.client
import json
import os
import socket
import threading
import time

import pytest

from repro.api import AnalysisSession, request_digest
from repro.core import AnalysisConfig
from repro.serve import ServeClient, ServeError, WorkerPool
from repro.serve import server as server_module

CORE = "(FPCore (x) :name \"t\" :pre (<= 1e16 x 1e17) (- (+ x 1) x))"
GATED = "(FPCore (x) :name \"gated\" :pre (<= 1 x 2) (+ x 1))"
JSON_HEADERS = {"Content-Type": "application/json"}
#: The headers ServeClient reads off a response.
READ_HEADERS = ("X-Repro-Source", "X-Repro-Digest", "Retry-After")
#: Transport failures, as ServeClient._exchange catches them.
TRANSPORT_ERRORS = (http.client.HTTPException, ConnectionError, OSError)


def _session():
    return AnalysisSession(config=AnalysisConfig(shadow_precision=96),
                           num_points=3)


def _view(status, headers, body):
    return status, body, {name: headers.get(name) for name in READ_HEADERS}


def _stdlib(port, method, path, data=None, headers=None):
    """One exchange on a fresh ``http.client`` connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=data, headers=headers or {})
        response = conn.getresponse()
        return _view(response.status, response.headers, response.read())
    finally:
        conn.close()


def _ours(client, method, path, data=None):
    return _view(*client._roundtrip(method, path, data))


def gated_worker_main(gate, conn):
    """The default analysis worker, holding a ``gated`` benchmark
    until the file ``gate`` exists."""
    from repro.serve.pool import serve_request

    while True:
        try:
            shard = conn.recv()
        except (EOFError, OSError):
            break
        if shard is None:
            break
        if "gated" in shard.request.get("core", ""):
            while not os.path.exists(gate):
                time.sleep(0.01)
        conn.send(serve_request(shard.request, shard.digest,
                                shard.store_root))


class TestInterop:
    def test_computed_and_memory_hit(self, harness_factory):
        # Two fresh servers answer the same sequence: http.client
        # reads one, ServeClient the other.
        left = harness_factory(workers=1)
        right = harness_factory(workers=1)
        request = _session().request(CORE)
        data = json.dumps(request.to_dict()).encode("utf-8")
        expected = _session().analyze(request).to_json().encode("utf-8")
        with right.client() as client:
            for source in ("computed", "memory"):
                theirs = _stdlib(left.port, "POST", "/v1/analyze", data,
                                 JSON_HEADERS)
                ours = _ours(client, "POST", "/v1/analyze", data)
                assert ours == theirs
                assert ours[:2] == (200, expected)
                assert ours[2]["X-Repro-Source"] == source
                assert ours[2]["X-Repro-Digest"] == request_digest(request)
            reply = client.analyze(request)
        assert reply.text.encode("utf-8") == expected
        assert (reply.source, reply.digest) == ("memory",
                                                request_digest(request))

    def test_error_responses(self, harness_factory, monkeypatch):
        harness = harness_factory(workers=1)
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 1024)
        oversized = json.dumps({"pad": "x" * 2048}).encode("ascii")
        cases = [
            # (method, path, body, extra stdlib headers, status)
            ("POST", "/v1/analyze", b"{not json",
             {"Connection": "close"}, 400),
            ("GET", "/v2/nope", None, {}, 404),
            ("GET", "/v1/result/" + "0" * 64, None, {}, 404),
            ("POST", "/v1/health", b"{}", {}, 405),
            ("POST", "/v1/analyze", oversized, {}, 413),
        ]
        with harness.client() as client:
            for method, path, data, extra, status in cases:
                theirs = _stdlib(harness.port, method, path, data,
                                 {**JSON_HEADERS, **extra} if data else extra)
                ours = _ours(client, method, path, data)
                assert ours == theirs, path
                assert ours[0] == status, path
            # A 413 closes the connection; the next request opens a new
            # one.
            assert client.health()["status"] == "ok"

    def test_backpressure_429(self, harness_factory, tmp_path):
        gate = str(tmp_path / "open")
        pool = WorkerPool(workers=1, queue_limit=1, timeout=None,
                          worker_main=functools.partial(gated_worker_main,
                                                        gate))
        harness = harness_factory(pool=pool)
        session = _session()
        held = [session.request(GATED, seed=seed) for seed in (1, 2)]
        probe = session.request(GATED, seed=3)
        data = json.dumps(probe.to_dict()).encode("utf-8")

        def send(request):
            with harness.client() as client:
                return client.analyze(request).status

        # One request holds the worker, then one fills the queue.
        threads = []
        for queued, request in enumerate(held):
            threads.append(threading.Thread(target=send, args=(request,)))
            threads[-1].start()
            deadline = time.monotonic() + 60
            while (pool.stats()["active"], pool.stats()["queue_depth"]) \
                    != (1, queued):
                assert time.monotonic() < deadline, pool.stats()
                time.sleep(0.01)
        try:
            theirs = _stdlib(harness.port, "POST", "/v1/analyze", data,
                             JSON_HEADERS)
            with harness.client() as client:
                ours = _ours(client, "POST", "/v1/analyze", data)
                with pytest.raises(ServeError) as excinfo:
                    client.analyze(probe)
        finally:
            open(gate, "w").close()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert ours == theirs
        assert ours[0] == 429
        assert ours[2]["Retry-After"] is not None
        assert ours[2]["X-Repro-Digest"] == request_digest(probe)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == float(ours[2]["Retry-After"])
        assert excinfo.value.transient


# ----------------------------------------------------------------------
# A scripted socket server
# ----------------------------------------------------------------------


def _response(body=b"{}", status="200 OK", headers=()):
    lines = [f"HTTP/1.1 {status}", f"Content-Length: {len(body)}",
             *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class StubServer:
    """A listening socket that hands connection ``n`` to
    ``handler(self, conn, n)`` on a thread of its own."""

    def __init__(self, handler) -> None:
        self.handler = handler
        self.connections = 0
        #: Raw request bytes, in the order they arrived.
        self.requests = []
        self.done = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            index, self.connections = self.connections, self.connections + 1
            threading.Thread(target=self._serve, args=(conn, index),
                             daemon=True).start()

    def _serve(self, conn, index) -> None:
        with conn:
            self.handler(self, conn, index)

    def read_request(self, conn):
        """One whole request off ``conn`` (None on EOF)."""
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return None
            data += chunk
        head = data.split(b"\r\n\r\n", 1)[0]
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(data) < len(head) + 4 + length:
            chunk = conn.recv(65536)
            if not chunk:
                return None
            data += chunk
        self.requests.append(data)
        return data

    def close(self) -> None:
        self.done.set()
        self._listener.close()


@pytest.fixture()
def stub_factory():
    created = []

    def make(handler) -> StubServer:
        created.append(StubServer(handler))
        return created[-1]

    yield make
    for stub in created:
        stub.close()


def _serve_forever(stub, conn, index, response=_response()):
    while stub.read_request(conn) is not None:
        conn.sendall(response)


class _CountingSocket:
    """Wraps a client socket and records each ``sendall``."""

    def __init__(self, sock, writes) -> None:
        self._sock = sock
        self._writes = writes

    def sendall(self, data) -> None:
        self._writes.append(bytes(data))
        self._sock.sendall(data)

    def close(self) -> None:
        self._sock.close()


def _count_writes(client, monkeypatch):
    writes = []
    connect = client._connect

    def counting_connect():
        connect()
        client._sock = _CountingSocket(client._sock, writes)

    monkeypatch.setattr(client, "_connect", counting_connect)
    return writes


class TestTransportEdges:
    def test_idle_closed_connection_reconnects_once(self, stub_factory):
        closed = threading.Event()

        def handler(stub, conn, index):
            if index == 0:
                # Answer one request as keep-alive, then idle-close.
                stub.read_request(conn)
                conn.sendall(_response(b'{"n": 0}'))
                conn.shutdown(socket.SHUT_RDWR)
                closed.set()
                return
            _serve_forever(stub, conn, index, _response(b'{"n": 1}'))

        stub = stub_factory(handler)
        with ServeClient(port=stub.port, timeout=10) as client:
            assert client.health() == {"n": 0}
            assert closed.wait(10)
            assert client.health() == {"n": 1}
        assert stub.connections == 2

    def test_connection_close_response_opens_a_new_connection(
        self, stub_factory
    ):
        def handler(stub, conn, index):
            stub.read_request(conn)
            conn.sendall(_response(b'{"n": %d}' % index,
                                   headers=["Connection: close"]))
            # Keep the socket open: a client that reused it would wait
            # for a reply that never comes.
            stub.done.wait(30)

        stub = stub_factory(handler)
        with ServeClient(port=stub.port, timeout=10) as client:
            assert client.health() == {"n": 0}
            assert client.health() == {"n": 1}
        assert stub.connections == 2

    @pytest.mark.parametrize("reply", [
        # Content-Length promises more than the server sends.
        b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"cut\": ",
        # EOF inside the headers.
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
        # EOF before the status line.
        b"",
        # A body that is not framed by Content-Length.
        b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}",
        # Transfer-Encoding overrides a Content-Length.
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
        b"Content-Length: 12\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        b"garbage\r\n\r\n",
    ], ids=["short-body", "eof-in-headers", "eof-before-status",
            "no-length", "chunked", "bad-status-line"])
    def test_broken_response_is_a_transport_error(self, stub_factory,
                                                  reply):
        def handler(stub, conn, index):
            stub.read_request(conn)
            conn.sendall(reply)

        stub = stub_factory(handler)
        with ServeClient(port=stub.port, timeout=10) as client:
            with pytest.raises(TRANSPORT_ERRORS):
                client.analyze({"core": CORE})
            # The one reconnect saw the same failure.
            assert stub.connections == 2
            assert client._sock is None

    def test_header_names_are_read_in_any_case(self, stub_factory):
        replies = iter([
            _response(b"{}", headers=["x-REPRO-source: memory",
                                      "X-Repro-DIGEST: abc"]),
            _response(b'{"error": {"type": "queue_full"}}',
                      status="429 Too Many Requests",
                      headers=["retry-AFTER: 3", "CONNECTION: Close"]),
        ])

        def handler(stub, conn, index):
            while stub.read_request(conn) is not None:
                conn.sendall(next(replies))

        stub = stub_factory(handler)
        with ServeClient(port=stub.port, timeout=10) as client:
            reply = client.analyze({"core": CORE})
            assert (reply.source, reply.digest) == ("memory", "abc")
            with pytest.raises(ServeError) as excinfo:
                client.analyze({"core": CORE})
            # "CONNECTION: Close" was honored.
            assert client._sock is None
        assert (excinfo.value.status, excinfo.value.retry_after) == (429, 3.0)
        assert excinfo.value.error_type == "queue_full"

    def test_each_request_is_one_write(self, stub_factory, monkeypatch):
        stub = stub_factory(_serve_forever)
        with ServeClient(port=stub.port, timeout=10) as client:
            writes = _count_writes(client, monkeypatch)
            client.health()
            client.analyze({"core": CORE})
        assert writes == stub.requests
        get, post = stub.requests
        head, body = get.split(b"\r\n\r\n")
        assert head.split(b"\r\n")[0] == b"GET /v1/health HTTP/1.1"
        assert body == b""
        names = {line.split(b":")[0].lower()
                 for line in head.split(b"\r\n")[1:]}
        assert names == {b"host"}  # no body, no Content-Type
        head, body = post.split(b"\r\n\r\n")
        assert head.split(b"\r\n")[0] == b"POST /v1/analyze HTTP/1.1"
        assert json.loads(body) == {"core": CORE}
        assert b"Content-Type: application/json" in head
        assert f"Content-Length: {len(body)}".encode("ascii") in head
