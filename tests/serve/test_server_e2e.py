"""End-to-end serving tests: real sockets, real worker processes.

The headline guarantees pinned here:

* served ``AnalysisResult`` JSON is **byte-identical** to an
  in-process :class:`AnalysisSession` for the same request, across
  engine × precision-policy × substrate,
* N identical concurrent requests perform exactly one computation,
* queue saturation is HTTP 429, worker death is structured 500,
  analysis timeout is structured 504 — never a hung connection,
* graceful shutdown drains in-flight work,
* multiple server processes share one store directory.
"""

import asyncio
import concurrent.futures
import http.client
import json
import threading
import time

import pytest

from repro.api import AnalysisSession, request_digest
from repro.api.store import ShardedResultStore
from repro.bigfloat.backend import substrate_provider, substrate_status
from repro.core import AnalysisConfig
from repro.serve import ServeError, WorkerPool
from repro.serve.server import ReproServer
from repro.serve.service import AnalysisService

CORE = "(FPCore (x) :name \"t\" :pre (<= 1e16 x 1e17) (- (+ x 1) x))"
CLEAN = "(FPCore (x) :name \"ok\" :pre (<= 1 x 2) (+ x 1))"
SLOW = "(FPCore (x) :name \"slowpoke\" :pre (<= 1 x 2) (+ x 1))"
CRASH = "(FPCore (x) :name \"crash-me\" :pre (<= 1 x 2) (+ x 1))"
FAST = AnalysisConfig(shadow_precision=96)


def _session(config=FAST):
    return AnalysisSession(config=config, num_points=3)


class TestRoundTripParity:
    def test_served_json_matches_in_process_across_stacks(
        self, harness_factory, tmp_path
    ):
        harness = harness_factory(
            store=ShardedResultStore(str(tmp_path)), workers=2
        )
        # The plans share one digest, so each leg draws its own seed:
        # otherwise every leg after the first is a warm hit and only
        # one plan ever runs in a worker.
        plans = [(engine, policy, substrate)
                 for engine in ("compiled", "reference")
                 for policy in ("fixed", "adaptive")
                 for substrate in ("python", "native")]
        with harness.client() as client:
            for seed, (engine, policy, substrate) in enumerate(plans):
                config = AnalysisConfig(
                    shadow_precision=256, engine=engine,
                    precision_policy=policy, substrate=substrate,
                )
                session = _session(config)
                request = session.request(CORE, seed=seed)
                expected = session.analyze(request).to_json()
                reply = client.analyze(request)
                label = (engine, policy, substrate)
                assert (reply.status, reply.source) == (200, "computed"), \
                    label
                assert reply.text == expected, label
                assert reply.digest == request_digest(request)
                # And again, warm: same bytes from the store.
                warm = client.analyze(request)
                assert warm.text == expected, label
                assert warm.source in ("memory", "store")

    def test_get_result_and_health_and_stats(
        self, harness_factory, tmp_path
    ):
        harness = harness_factory(
            store=ShardedResultStore(str(tmp_path)), workers=1
        )
        session = _session()
        request = session.request(CORE)
        with harness.client() as client:
            assert client.health()["status"] == "ok"
            with pytest.raises(ServeError) as excinfo:
                client.result_text(request_digest(request))
            assert excinfo.value.status == 404
            assert excinfo.value.error_type == "not_found"
            computed = client.analyze(request)
            stored = client.result_text(request_digest(request))
            assert stored.text == computed.text
            stats = client.stats()
            assert stats["service"]["computed"] == 1
            assert stats["pool"]["workers"] == 1
            assert stats["store"]["writes"] == 1
            assert stats["substrate"] == substrate_status("native")

    def test_unknown_route_and_method(self, harness_factory):
        harness = harness_factory(workers=1)
        with harness.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client._exchange("GET", "/v2/nope")
            assert excinfo.value.status == 404
            with pytest.raises(ServeError) as excinfo:
                client._exchange("POST", "/v1/health", {})
            assert excinfo.value.status == 405

    def test_malformed_json_body_is_400(self, harness_factory):
        harness = harness_factory(workers=1)
        conn = http.client.HTTPConnection(
            "127.0.0.1", harness.port, timeout=30
        )
        try:
            for path in ("/v1/analyze", "/v1/batch"):
                conn.request("POST", path, body=b"{not json",
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 400
                assert payload["error"]["type"] == "invalid_json"
        finally:
            conn.close()
        # The service decodes the body, so its counters see both.
        with harness.client() as client:
            stats = client.stats()
        counters = stats["service"]
        assert (counters["requests"], counters["batches"]) == (1, 1)
        assert counters["invalid"] == 2
        assert stats["bodies"]["entries"] == 0


class TestConcurrency:
    def test_identical_concurrent_requests_compute_once(
        self, harness_factory, tmp_path
    ):
        harness = harness_factory(
            store=ShardedResultStore(str(tmp_path)), workers=2
        )
        # Enough points that the analysis is still in flight when the
        # last client's request lands — otherwise late arrivals become
        # memory hits instead of dedupe hits and the test flakes.
        request = _session().request(CORE, num_points=256)
        n = 6
        barrier = threading.Barrier(n)

        def fire():
            with harness.client() as client:
                barrier.wait()
                reply = client.analyze(request)
                return reply.source, reply.text

        with concurrent.futures.ThreadPoolExecutor(n) as executor:
            outcomes = list(executor.map(
                lambda _: fire(), range(n)
            ))
        texts = {text for _, text in outcomes}
        assert len(texts) == 1  # everyone saw the same bytes
        with harness.client() as client:
            stats = client.stats()
        assert stats["service"]["computed"] == 1  # exactly one run
        assert stats["service"]["dedupe_hits"] >= 1

    def test_backpressure_returns_429(self, harness_factory,
                                      selective_worker):
        pool = WorkerPool(workers=1, queue_limit=1, timeout=None,
                          worker_main=selective_worker)
        harness = harness_factory(pool=pool)
        session = _session()
        # Distinct digests so dedupe cannot absorb the flood.
        slow_requests = [
            session.request(SLOW, seed=i).to_dict() for i in range(8)
        ]

        def fire(data):
            with harness.client() as client:
                try:
                    return client.analyze(data).status
                except ServeError as error:
                    return error.status

        with concurrent.futures.ThreadPoolExecutor(8) as executor:
            statuses = list(executor.map(fire, slow_requests))
        # The worker holds one, the queue one more; the rest are shed.
        assert statuses.count(429) >= 1
        assert statuses.count(200) >= 1
        assert all(status in (200, 429) for status in statuses)
        with harness.client() as client:
            assert client.stats()["service"]["rejected"] >= 1

    def test_worker_crash_is_structured_500(self, harness_factory,
                                            selective_worker):
        pool = WorkerPool(workers=1, worker_main=selective_worker)
        harness = harness_factory(pool=pool)
        session = _session()
        with harness.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.analyze(session.request(CRASH))
            assert excinfo.value.status == 500
            assert excinfo.value.error_type == "worker_crashed"
            assert excinfo.value.digest == request_digest(
                session.request(CRASH)
            )
            # The pool respawned: the server still serves.
            assert client.analyze(session.request(CLEAN)).status == 200

    def test_timeout_is_structured_504(self, harness_factory,
                                       selective_worker):
        pool = WorkerPool(workers=1, timeout=0.2,
                          worker_main=selective_worker)
        harness = harness_factory(pool=pool)
        session = _session()
        with harness.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.analyze(session.request(SLOW))
            assert excinfo.value.status == 504
            assert excinfo.value.error_type == "analysis_timeout"
            assert client.analyze(session.request(CLEAN)).status == 200
            assert client.stats()["service"]["timeouts"] == 1


    def test_spent_op_budget_is_structured_422(self, harness_factory):
        harness = harness_factory(workers=1)
        request = _session(FAST.with_(op_budget=1)).request(CORE)
        with harness.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.analyze(request)
            assert excinfo.value.status == 422
            assert excinfo.value.error_type == "op_budget_exceeded"
            assert excinfo.value.digest == request_digest(request)
            assert not excinfo.value.transient
            assert client.stats()["service"]["op_budget_exceeded"] == 1

class TestMultiProcessStore:
    def test_two_servers_share_one_store(self, harness_factory, tmp_path):
        store_root = str(tmp_path)
        first = harness_factory(
            store=ShardedResultStore(store_root), workers=1
        )
        second = harness_factory(
            store=ShardedResultStore(store_root), workers=1
        )
        request = _session().request(CORE)
        with first.client() as client:
            cold = client.analyze(request)
        assert cold.source == "computed"
        with second.client() as client:
            warm = client.analyze(request)
        assert warm.source == "store"  # no recomputation on server two
        assert warm.text == cold.text


class TestGracefulShutdown:
    def test_inflight_request_completes_through_drain(
        self, harness_factory, selective_worker
    ):
        pool = WorkerPool(workers=1, timeout=None,
                          worker_main=selective_worker)
        harness = harness_factory(pool=pool)
        request = _session().request(SLOW)
        outcome = {}

        def fire():
            with harness.client() as client:
                reply = client.analyze(request)
                outcome["status"] = reply.status
                outcome["source"] = reply.source

        thread = threading.Thread(target=fire)
        thread.start()
        # Wait until the slow request is actually on the worker.
        deadline = threading.Event()
        for _ in range(200):
            if harness.service.pool.stats()["active"] > 0:
                break
            deadline.wait(0.01)
        harness.stop(drain=True)  # must wait for the in-flight reply
        thread.join(timeout=60)
        assert outcome == {"status": 200, "source": "computed"}
        # And the listener is really gone now.
        with pytest.raises(OSError):
            conn = http.client.HTTPConnection(
                "127.0.0.1", harness.port, timeout=5
            )
            conn.request("GET", "/v1/health")
            conn.getresponse()

    def test_parked_connection_does_not_delay_drain(
        self, harness_factory, selective_worker, caplog
    ):
        pool = WorkerPool(workers=1, timeout=None,
                          worker_main=selective_worker)
        harness = harness_factory(pool=pool)
        # Connection one: one keep-alive request, then parked idle.
        parked = http.client.HTTPConnection(
            "127.0.0.1", harness.port, timeout=30
        )
        parked.request("GET", "/v1/health")
        reply = parked.getresponse()
        reply.read()
        assert reply.status == 200
        assert reply.getheader("Connection") == "keep-alive"
        # Connection two: a slow request in flight when the drain starts.
        request = _session().request(SLOW)
        outcome = {}

        def fire():
            with harness.client() as client:
                outcome["status"] = client.analyze(request).status

        thread = threading.Thread(target=fire)
        thread.start()
        for _ in range(200):
            if harness.service.pool.stats()["active"] > 0:
                break
            threading.Event().wait(0.01)
        started = time.monotonic()
        harness.stop(drain=True)
        elapsed = time.monotonic() - started
        thread.join(timeout=60)
        assert outcome == {"status": 200}
        # The drain waited for the in-flight request only: the parked
        # connection was closed, not waited on.
        assert elapsed < 15
        parked.sock.settimeout(5)
        assert parked.sock.recv(1) == b""
        parked.close()
        # The cancelled connection ended quietly, not as an error.
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio"] == []


class TestConnectionLoop:
    def test_keep_alive_requests_create_no_tasks(self):
        # One task per connection, none per request: the read loop
        # awaits each request directly.
        async def scenario():
            loop = asyncio.get_running_loop()
            created = []

            def factory(loop, coro, **kwargs):
                created.append(getattr(coro, "__qualname__", repr(coro)))
                return asyncio.Task(coro, loop=loop, **kwargs)

            service = AnalysisService(workers=1)
            server = ReproServer(service)
            _, port = await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )

            async def health():
                writer.write(b"GET /v1/health HTTP/1.1\r\n"
                             b"Host: x\r\n\r\n")
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.split(b"Content-Length: ")[1]
                             .split(b"\r\n")[0])
                await reader.readexactly(length)
                return head.split(b" ")[1]

            # The first round trip proves the connection task exists.
            statuses = [await health()]
            loop.set_task_factory(factory)
            for _ in range(5):
                statuses.append(await health())
            loop.set_task_factory(None)
            writer.close()
            await server.stop(drain=True)
            return statuses, created

        statuses, created = asyncio.run(scenario())
        assert statuses == [b"200"] * 6
        assert created == []


def test_native_substrate_resolution_is_visible():
    # The parity matrix above exercises substrate="native"; on a box
    # without gmpy2/mpmath it resolves to the python kernels — either
    # way the serving results must match in-process ones, which the
    # matrix asserts.  This pins which provider actually served it.
    assert substrate_provider("native") in ("gmpy2", "mpmath", "python")
