"""The supervised worker pool: replies, timeouts, crashes, backpressure,
and graceful shutdown — all at the pool layer, below HTTP.

The pool lives on an event loop (its pipes are loop readers), so every
test drives it from ``asyncio.run``."""

import asyncio
import threading
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


def scripted_worker_main(conn):
    """Dies on {"crash": True}, sleeps payload["seconds"], then replies
    ("ok", repr(payload)), so each reply names its own task."""
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
        time.sleep(payload.get("seconds", 0.0))
        conn.send(("ok", repr(payload)))


async def reply_of(future, timeout=30):
    """The future's reply, failing the test instead of hanging."""
    return await asyncio.wait_for(future, timeout)


class TestDispatch:
    def test_echo_roundtrip_one_reply_per_task(self):
        async def scenario():
            async with WorkerPool(workers=2,
                                  worker_main=echo_worker_main) as pool:
                futures = [pool.submit({"a": 1}), pool.submit({"b": 2})]
                assert [await reply_of(f, 10) for f in futures] == [
                    ("ok", repr({"a": 1})), ("ok", repr({"b": 2}))
                ]
                assert pool.stats()["completed"] == 2

        asyncio.run(scenario())

    def test_deadline_is_the_pool_timeout(self):
        # One task is one request: its deadline is the pool's timeout,
        # not scaled by the payload's length.
        async def scenario():
            async with WorkerPool(workers=1, timeout=0.3,
                                  worker_main=sleepy_worker_main) as pool:
                slow = pool.submit({"seconds": 30.0, "a": 1, "b": 2, "c": 3})
                with pytest.raises(AnalysisTimeout,
                                   match=r"no result within 0\.3s"):
                    await reply_of(slow)

        asyncio.run(scenario())

    def test_real_analysis_matches_in_process_json(self):
        session = AnalysisSession(config=FAST, num_points=3)
        request = session.request(CORE)
        expected = session.analyze(request).to_json()

        async def scenario():
            async with WorkerPool(workers=1) as pool:
                return await reply_of(pool.submit(Shard(request.to_dict())),
                                      120)

        reply = asyncio.run(scenario())
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

        async def scenario():
            async with WorkerPool(workers=1) as pool:
                texts = []
                for request in requests:
                    reply = await reply_of(
                        pool.submit(Shard(request.to_dict())), 120
                    )
                    assert reply[0] == "ok"
                    texts.append(reply[1])
                return texts

        assert asyncio.run(scenario()) == expected
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

        async def scenario():
            async with WorkerPool(workers=1) as pool:
                reply = await reply_of(pool.submit(Shard(bad)), 60)
                assert reply[0] == "error"
                assert reply[1] == "RuntimeError"
                reply = await reply_of(pool.submit(Shard(unbound)), 60)
                assert reply[:2] == ("invalid", "UnboundVariableError")
                reply = await reply_of(pool.submit(Shard(good)), 120)
                assert reply[0] == "ok"
                assert pool.stats()["crashes"] == 0
                assert pool.stats()["restarts"] == 0

        asyncio.run(scenario())


class TestSupervision:
    def test_timeout_kills_and_recovers(self):
        async def scenario():
            async with WorkerPool(workers=1, timeout=0.3,
                                  worker_main=sleepy_worker_main) as pool:
                slow = pool.submit({"seconds": 30.0})
                with pytest.raises(AnalysisTimeout):
                    await reply_of(slow)
                # The worker was killed and respawned; the pool still
                # works.
                quick = pool.submit({"seconds": 0.0})
                assert await reply_of(quick) == ("ok", "slept")
                stats = pool.stats()
                assert stats["timeouts"] == 1
                assert stats["restarts"] >= 1

        asyncio.run(scenario())

    def test_per_submit_timeout_overrides_pool_default(self):
        async def scenario():
            async with WorkerPool(workers=1, timeout=60.0,
                                  worker_main=sleepy_worker_main) as pool:
                future = pool.submit({"seconds": 30.0}, timeout=0.2)
                with pytest.raises(AnalysisTimeout):
                    await reply_of(future)

        asyncio.run(scenario())

    def test_crash_surfaces_and_recovers(self):
        async def scenario():
            async with WorkerPool(workers=1,
                                  worker_main=crashy_worker_main) as pool:
                doomed = pool.submit({"crash": True})
                with pytest.raises(WorkerCrashed):
                    await reply_of(doomed)
                fine = pool.submit({})
                assert await reply_of(fine) == ("ok", "fine")
                stats = pool.stats()
                assert stats["crashes"] == 1
                assert stats["restarts"] >= 1

        asyncio.run(scenario())

    def test_on_start_exception_fails_only_its_task(self):
        # on_start runs on the loop just before the send; its exception
        # is the task's outcome, and the worker stays free for the next.
        def explode():
            raise ValueError("on_start exploded")

        async def scenario():
            async with WorkerPool(workers=1,
                                  worker_main=echo_worker_main) as pool:
                failed = pool.submit({"a": 1}, on_start=explode)
                with pytest.raises(ValueError, match="on_start exploded"):
                    await reply_of(failed)
                assert await reply_of(pool.submit({"b": 2})) == \
                    ("ok", repr({"b": 2}))
                assert pool.stats()["completed"] == 1

        asyncio.run(scenario())


class TestEventLoopDriven:
    """No thread stands between the loop and a worker's pipe."""

    def test_pool_starts_no_thread(self):
        async def scenario():
            before = threading.active_count()
            pool = WorkerPool(workers=2, worker_main=scripted_worker_main)
            assert threading.active_count() == before
            futures = [pool.submit({"i": i}) for i in range(6)]
            futures.append(pool.submit({"crash": True}))
            replies = await asyncio.gather(*futures,
                                           return_exceptions=True)
            assert threading.active_count() == before
            await pool.close()
            assert threading.active_count() == before
            return replies

        replies = asyncio.run(scenario())
        assert replies[:6] == [("ok", repr({"i": i})) for i in range(6)]
        assert isinstance(replies[6], WorkerCrashed)

    def test_cancelled_waiter_still_drains_its_reply(self):
        # The waiter of a running task is cancelled: the worker's reply
        # is still read off the pipe, so the task queued behind it gets
        # its own reply, not the orphaned one.
        async def scenario():
            async with WorkerPool(workers=1, timeout=None,
                                  worker_main=scripted_worker_main) as pool:
                first = pool.submit({"name": "first", "seconds": 0.3})

                async def wait_first():
                    return await first

                waiter = asyncio.ensure_future(wait_first())
                second = pool.submit({"name": "second"})
                await asyncio.sleep(0.05)
                waiter.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await waiter
                assert first.cancelled()
                reply = await reply_of(second)
                return reply, pool.stats()

        reply, stats = asyncio.run(scenario())
        assert reply == ("ok", repr({"name": "second"}))
        assert stats["completed"] == 2
        assert stats["crashes"] == stats["timeouts"] == 0

    def test_reader_is_removed_before_its_pipe_closes(self, monkeypatch):
        # Kill (a crash, a deadline), respawn and shutdown each close a
        # pipe the loop watches; each must stop watching it first, and
        # no reader may outlive the pool.
        from multiprocessing.connection import Connection

        watched, violations, closed_watched = set(), [], []
        real_close = Connection.close

        def close(self):
            fd = self._handle
            if fd is not None:
                if fd in watched:
                    violations.append(fd)
                if fd in seen:
                    closed_watched.append(fd)
            real_close(self)

        seen = set()
        monkeypatch.setattr(Connection, "close", close)

        async def scenario():
            loop = asyncio.get_running_loop()
            add_reader, remove_reader = loop.add_reader, loop.remove_reader

            def adding(fd, *args):
                watched.add(fd)
                seen.add(fd)
                return add_reader(fd, *args)

            def removing(fd):
                watched.discard(fd)
                return remove_reader(fd)

            loop.add_reader, loop.remove_reader = adding, removing
            pool = WorkerPool(workers=1, timeout=None,
                              worker_main=scripted_worker_main)
            with pytest.raises(WorkerCrashed):
                await reply_of(pool.submit({"crash": True}))
            with pytest.raises(AnalysisTimeout):
                await reply_of(pool.submit({"seconds": 30.0}, timeout=0.2))
            assert await reply_of(pool.submit({"n": 1})) == \
                ("ok", repr({"n": 1}))
            await pool.close()
            return pool.stats()

        stats = asyncio.run(scenario())
        assert violations == []
        assert watched == set()
        # The crashed pipe, the timed-out pipe, and the shutdown one.
        assert len(closed_watched) >= 3
        assert stats["restarts"] == 2

    def test_crash_loop_cooldown_does_not_block_the_loop(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            ticks = []
            stop = asyncio.Event()

            async def ticker():
                while not stop.is_set():
                    ticks.append(loop.time())
                    await asyncio.sleep(0.01)

            async with WorkerPool(workers=1, max_respawn_burst=1,
                                  respawn_cooldown=0.4,
                                  worker_main=crashy_worker_main) as pool:
                ticking = asyncio.ensure_future(ticker())
                with pytest.raises(WorkerCrashed):
                    await reply_of(pool.submit({"crash": True}))
                cooled_from = loop.time()
                # The slot cools down; the task waits in the queue, not
                # on a sleeping worker.
                waiting = pool.submit({})
                assert pool.stats()["queue_depth"] == 1
                assert await reply_of(waiting) == ("ok", "fine")
                cooled = loop.time() - cooled_from
                stop.set()
                await ticking
                return cooled, ticks, cooled_from, pool.stats()

        cooled, ticks, cooled_from, stats = asyncio.run(scenario())
        assert stats["cooldowns"] == 1
        assert cooled >= 0.35
        during = [t for t in ticks if t >= cooled_from]
        assert len(during) >= 10
        assert max(b - a for a, b in zip(during, during[1:])) < 0.2


class TestBackpressureAndShutdown:
    def test_bounded_queue_rejects_when_full(self):
        async def scenario():
            async with WorkerPool(workers=1, queue_limit=1, timeout=None,
                                  worker_main=sleepy_worker_main) as pool:
                running = pool.submit({"seconds": 1.0})
                # An idle worker takes its task inside submit(); fill
                # the single remaining slot behind it.
                assert pool.stats()["active"] == 1
                queued = pool.submit({"seconds": 0.0})
                with pytest.raises(QueueFull):
                    pool.submit({"seconds": 0.0})
                assert await reply_of(running) == ("ok", "slept")
                assert await reply_of(queued) == ("ok", "slept")

        asyncio.run(scenario())

    def test_drain_close_finishes_queued_work(self):
        async def scenario():
            pool = WorkerPool(workers=2, worker_main=echo_worker_main)
            futures = [pool.submit({"i": i}) for i in range(10)]
            await pool.close(drain=True)
            assert [f.result() for f in futures] == [
                ("ok", repr({"i": i})) for i in range(10)
            ]

        asyncio.run(scenario())

    def test_submit_after_close_raises(self):
        async def scenario():
            pool = WorkerPool(workers=1, worker_main=echo_worker_main)
            await pool.close()
            with pytest.raises(PoolClosed):
                pool.submit({})

        asyncio.run(scenario())

    def test_nondrain_close_cancels_queued_tasks(self):
        started = []

        async def scenario():
            pool = WorkerPool(workers=1, timeout=None,
                              worker_main=sleepy_worker_main)
            running = pool.submit({"seconds": 0.5},
                                  on_start=lambda: started.append("running"))
            assert pool.stats()["active"] == 1
            queued = [pool.submit({"seconds": 0.0},
                                  on_start=lambda: started.append("queued"))
                      for _ in range(3)]
            await pool.close(drain=False)
            # The running task still delivers; the queued ones were
            # cancelled and never started.
            assert running.result() == ("ok", "slept")
            assert all(f.cancelled() for f in queued)

        asyncio.run(scenario())
        assert started == ["running"]
