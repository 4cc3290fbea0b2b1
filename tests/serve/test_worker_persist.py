"""Served results are persisted by the pool worker that computed them.

The server process never writes the store on its serving path: each
cold task carries its request's digest and the store root, the worker
writes the ``ok`` text before it replies, and the reply says whether
the write landed, so ``/v1/stats`` still counts every write.  These
tests drive real sockets and real worker processes.
"""

import json

from repro.api import AnalysisSession, request_digest
from repro.api.store import ShardedResultStore
from repro.core import AnalysisConfig
from repro.resilience import faults

CORE = "(FPCore (x) :name \"t\" :pre (<= 1e16 x 1e17) (- (+ x 1) x))"
FAST = AnalysisConfig(shadow_precision=96)


def _session():
    return AnalysisSession(config=FAST, num_points=3)


def _expected(request):
    return _session().analyze(request).to_json()


def _read_entries(root, digests):
    """The stored texts of ``digests``, read through a fresh store.

    Any ambient fault plan is cleared for the reads: a read-fault plan
    tears a read, quarantines the entry and reads it as a miss.
    """
    fresh = ShardedResultStore(root)
    with faults.injected(""):
        return [fresh.get_text(digest) for digest in digests]


def _entry_text(entry):
    """A batch entry back in the canonical text a single POST serves."""
    return json.dumps(entry, indent=2, sort_keys=True)


class TestWorkerWritesTheStore:
    def test_cold_200_is_on_disk_before_the_next_request(
        self, harness_factory, tmp_path
    ):
        root = str(tmp_path)
        harness = harness_factory(store=ShardedResultStore(root), workers=1)
        request = _session().request(CORE, seed=301)
        with harness.client() as client:
            reply = client.analyze(request)
            # Read through a store this process never wrote with, before
            # the server sees anything else.
            [on_disk] = _read_entries(root, [reply.digest])
            stats = client.stats()
        assert (reply.status, reply.source) == (200, "computed")
        assert reply.text == _expected(request)
        assert on_disk == reply.text
        assert stats["store"]["writes"] == 1
        assert stats["store"]["write_errors"] == 0

    def test_failed_write_still_answers_200(self, harness_factory, tmp_path):
        root = tmp_path / "store"
        harness = harness_factory(
            store=ShardedResultStore(str(root)), workers=1
        )
        # Unwritable after start-up: a plain file where the root
        # directory would go, which no privilege can write through.
        root.write_text("")
        request = _session().request(CORE, seed=302)
        with harness.client() as client:
            reply = client.analyze(request)
            again = client.analyze(request)
            stats = client.stats()
        assert (reply.status, reply.source) == (200, "computed")
        assert reply.text == _expected(request)
        # The reply itself is still remembered in memory.
        assert (again.source, again.text) == ("memory", reply.text)
        assert stats["store"]["write_errors"] == 1
        assert stats["store"]["writes"] == 0

    def test_torn_write_is_quarantined_and_healed(
        self, harness_factory, tmp_path
    ):
        root = str(tmp_path)
        request = _session().request(CORE, seed=303)
        expected = _expected(request)
        # Armed before the pool forks, so the worker inherits the plan;
        # the memory layer is off so the next request reads the store.
        with faults.injected("store.write.truncate:times=1"):
            harness = harness_factory(
                store=ShardedResultStore(root), workers=1,
                memory_cache_size=0,
            )
        # The server's reads must see exactly the one torn write, not
        # an ambient read-fault plan's torn reads.
        with faults.injected(""), harness.client() as client:
            torn = client.analyze(request)
            healed = client.analyze(request)
            warm = client.analyze(request)
            stats = client.stats()
        # The torn write never reaches the reply: the worker wrote the
        # corrupted copy and answered with the text it computed.
        assert (torn.source, torn.text) == ("computed", expected)
        assert (healed.source, healed.text) == ("computed", expected)
        assert (warm.source, warm.text) == ("store", expected)
        assert stats["store"]["corrupt"] == 1
        assert stats["store"]["quarantined"] == 1
        assert stats["store"]["writes"] == 2
        assert _read_entries(root, [torn.digest]) == [expected]

    def test_batch_persists_every_result(
        self, harness_factory, tmp_path
    ):
        root = str(tmp_path)
        harness = harness_factory(store=ShardedResultStore(root), workers=1)
        requests = [_session().request(CORE, seed=seed)
                    for seed in (304, 305, 306)]
        with harness.client() as client:
            envelope = client.batch(requests)
            stats = client.stats()
        assert (envelope["count"], envelope["errors"]) == (3, 0)
        on_disk = _read_entries(root, map(request_digest, requests))
        for request, entry, stored in zip(requests, envelope["results"],
                                          on_disk):
            text = _entry_text(entry)
            assert text == _expected(request)
            assert stored == text
        assert stats["store"]["writes"] == 3
        assert stats["pool"]["completed"] == 3  # one task per request

    def test_server_process_never_writes_the_store(
        self, harness_factory, tmp_path, monkeypatch
    ):
        root = str(tmp_path)
        harness = harness_factory(store=ShardedResultStore(root), workers=1)

        def refuse(self, digest, text):
            raise AssertionError("the server process wrote the store")

        # Patched after the fork: the worker keeps the real write.
        monkeypatch.setattr(ShardedResultStore, "put_text", refuse)
        single = _session().request(CORE, seed=307)
        batched = [_session().request(CORE, seed=seed)
                   for seed in (308, 309)]
        with harness.client() as client:
            reply = client.analyze(single)
            envelope = client.batch(batched)
        assert (reply.status, reply.source) == (200, "computed")
        assert envelope["errors"] == 0
        served = [(single, reply.text)] + [
            (request, _entry_text(entry))
            for request, entry in zip(batched, envelope["results"])
        ]
        on_disk = _read_entries(
            root, [request_digest(request) for request, _ in served])
        for (request, text), stored in zip(served, on_disk):
            assert text == _expected(request)
            assert stored == text
