"""The supervised worker pool: replies, timeouts, crashes, backpressure,
and graceful shutdown — all at the pool layer, below HTTP."""

import time

import pytest

from repro.core import AnalysisConfig
from repro.api import AnalysisSession
from repro.serve.pool import (
    AnalysisTimeout,
    PoolClosed,
    QueueFull,
    Shard,
    WorkerCrashed,
    WorkerPool,
)

CORE = "(FPCore (x) :name \"t\" :pre (<= 1e16 x 1e17) (- (+ x 1) x))"
FAST = AnalysisConfig(shadow_precision=96)


def echo_worker_main(conn):
    """Replies ("ok", repr(payload)) without any analysis."""
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            break
        if payload is None:
            break
        conn.send(("ok", repr(payload)))


def sleepy_worker_main(conn):
    """Sleeps payload["seconds"] before replying."""
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            break
        if payload is None:
            break
        time.sleep(payload.get("seconds", 0.0))
        conn.send(("ok", "slept"))


def crashy_worker_main(conn):
    """Dies hard on {"crash": True}, replies otherwise."""
    import os

    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            break
        if payload is None:
            break
        if payload.get("crash"):
            os._exit(3)
        conn.send(("ok", "fine"))


class TestDispatch:
    def test_echo_roundtrip_one_reply_per_task(self):
        with WorkerPool(workers=2, worker_main=echo_worker_main) as pool:
            futures = [pool.submit({"a": 1}), pool.submit({"b": 2})]
            assert [f.result(timeout=10) for f in futures] == [
                ("ok", repr({"a": 1})), ("ok", repr({"b": 2}))
            ]
            assert pool.stats()["completed"] == 2

    def test_deadline_is_the_pool_timeout(self):
        # One task is one request: its deadline is the pool's timeout,
        # not scaled by the payload's length.
        with WorkerPool(workers=1, timeout=0.3,
                        worker_main=sleepy_worker_main) as pool:
            slow = pool.submit({"seconds": 30.0, "a": 1, "b": 2, "c": 3})
            with pytest.raises(AnalysisTimeout,
                               match=r"no result within 0\.3s"):
                slow.result(timeout=30)

    def test_real_analysis_matches_in_process_json(self):
        session = AnalysisSession(config=FAST, num_points=3)
        request = session.request(CORE)
        expected = session.analyze(request).to_json()
        with WorkerPool(workers=1) as pool:
            reply = pool.submit(Shard(request.to_dict())).result(
                timeout=120
            )
        # The third element is the process-local sidecar (degradation
        # trail / tier residency) — never part of the JSON; the fourth
        # is None because the task named no store.
        tag, text, _, stored = reply
        assert tag == "ok"
        assert text == expected
        assert stored is None

    def test_worker_compiles_each_program_once(self, tmp_path,
                                                monkeypatch):
        # The worker inherits this patch through the fork and logs each
        # compilation to a file the test can read back.
        import repro.api.session as session_module

        log = tmp_path / "compiles.log"
        real = session_module.compile_fpcore

        def logged(core, *args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{core.name}\n")
            return real(core, *args, **kwargs)

        monkeypatch.setattr(session_module, "compile_fpcore", logged)
        monkeypatch.setattr(session_module, "_WORKER_PROGRAMS", {})
        session = AnalysisSession(config=FAST, num_points=3)
        requests = [session.request(CORE, seed=seed) for seed in range(1, 5)]
        expected = [session.analyze(r).to_json() for r in requests]
        log.write_text("")  # the in-process session compiled it too
        with WorkerPool(workers=1) as pool:
            texts = []
            for request in requests:
                reply = pool.submit(Shard(request.to_dict())).result(
                    timeout=120
                )
                assert reply[0] == "ok"
                texts.append(reply[1])
        assert texts == expected
        assert log.read_text().splitlines() == ["t"]

    def test_analysis_failure_is_a_reply_not_an_exception(
        self, broken_backend
    ):
        # A backend that raises: the worker answers ("error", ...) and
        # stays alive for the next task.  A free variable the compiler
        # rejects is a client error, answered ("invalid", ...).
        bad = {"core": CORE, "num_points": 2, "backend": broken_backend}
        unbound = {"core": "(FPCore (x) (+ x y))", "num_points": 2}
        good = {"core": CORE, "num_points": 2,
                "config": {"shadow_precision": 96}}
        with WorkerPool(workers=1) as pool:
            reply = pool.submit(Shard(bad)).result(timeout=60)
            assert reply[0] == "error"
            assert reply[1] == "RuntimeError"
            reply = pool.submit(Shard(unbound)).result(timeout=60)
            assert reply[:2] == ("invalid", "UnboundVariableError")
            reply = pool.submit(Shard(good)).result(timeout=120)
            assert reply[0] == "ok"
            assert pool.stats()["crashes"] == 0
            assert pool.stats()["restarts"] == 0


class TestSupervision:
    def test_timeout_kills_and_recovers(self):
        with WorkerPool(workers=1, timeout=0.3,
                        worker_main=sleepy_worker_main) as pool:
            slow = pool.submit({"seconds": 30.0})
            with pytest.raises(AnalysisTimeout):
                slow.result(timeout=30)
            # The worker was killed and respawned; the pool still works.
            quick = pool.submit({"seconds": 0.0})
            assert quick.result(timeout=30) == ("ok", "slept")
            stats = pool.stats()
            assert stats["timeouts"] == 1
            assert stats["restarts"] >= 1

    def test_per_submit_timeout_overrides_pool_default(self):
        with WorkerPool(workers=1, timeout=60.0,
                        worker_main=sleepy_worker_main) as pool:
            future = pool.submit({"seconds": 30.0}, timeout=0.2)
            with pytest.raises(AnalysisTimeout):
                future.result(timeout=30)

    def test_crash_surfaces_and_recovers(self):
        with WorkerPool(workers=1,
                        worker_main=crashy_worker_main) as pool:
            doomed = pool.submit({"crash": True})
            with pytest.raises(WorkerCrashed):
                doomed.result(timeout=30)
            fine = pool.submit({})
            assert fine.result(timeout=30) == ("ok", "fine")
            stats = pool.stats()
            assert stats["crashes"] == 1
            assert stats["restarts"] >= 1


class TestBackpressureAndShutdown:
    def test_bounded_queue_rejects_when_full(self):
        with WorkerPool(workers=1, queue_limit=1, timeout=None,
                        worker_main=sleepy_worker_main) as pool:
            running = pool.submit({"seconds": 1.0})
            # Give the dispatcher a moment to take the running task off
            # the queue, then fill the single remaining slot.
            deadline = time.monotonic() + 5
            while pool.stats()["active"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            queued = pool.submit({"seconds": 0.0})
            with pytest.raises(QueueFull):
                pool.submit({"seconds": 0.0})
            assert running.result(timeout=30) == ("ok", "slept")
            assert queued.result(timeout=30) == ("ok", "slept")

    def test_drain_close_finishes_queued_work(self):
        pool = WorkerPool(workers=2, worker_main=echo_worker_main)
        futures = [pool.submit({"i": i}) for i in range(10)]
        pool.close(drain=True)
        assert [f.result(timeout=1) for f in futures] == [
            ("ok", repr({"i": i})) for i in range(10)
        ]

    def test_submit_after_close_raises(self):
        pool = WorkerPool(workers=1, worker_main=echo_worker_main)
        pool.close()
        with pytest.raises(PoolClosed):
            pool.submit({})

    def test_nondrain_close_cancels_queued_tasks(self):
        pool = WorkerPool(workers=1, timeout=None,
                          worker_main=sleepy_worker_main)
        started = []
        running = pool.submit({"seconds": 0.5},
                              on_start=lambda: started.append("running"))
        deadline = time.monotonic() + 5
        while pool.stats()["active"] == 0:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        queued = [pool.submit({"seconds": 0.0},
                              on_start=lambda: started.append("queued"))
                  for _ in range(3)]
        pool.close(drain=False)
        # The running task still delivers; the queued ones were cancelled
        # and never started.
        assert running.result(timeout=30) == ("ok", "slept")
        assert all(f.cancelled() for f in queued)
        assert started == ["running"]
