"""The sharded result store: layout, atomicity, and concurrent
multi-process safety."""

import hashlib
import json
import multiprocessing
import os

import pytest

from repro.api.store import ShardedResultStore, is_digest
from repro.resilience import faults


@pytest.fixture(autouse=True)
def _no_ambient_faults():
    """Every test here reads the store directly and asserts what it
    reads, so an ambient read-fault plan (which tears reads, and
    quarantines and misses the torn entries) is cleared; forked
    writers inherit the cleared plan.  The corruption matrix lives in
    ``tests/resilience/test_store_corruption.py``."""
    with faults.injected(""):
        yield


def _digest(tag) -> str:
    return hashlib.sha256(str(tag).encode()).hexdigest()


def _json_files(root):
    found = []
    for dirpath, _, names in os.walk(root):
        found.extend(os.path.join(dirpath, n)
                     for n in names if n.endswith(".json"))
    return sorted(found)


class TestLayout:
    def test_sharded_path(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        digest = _digest("a")
        assert store.path(digest) == os.path.join(
            str(tmp_path), digest[:2], f"{digest}.json"
        )

    def test_roundtrip(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        digest = _digest("a")
        text = json.dumps({"v": 1})
        assert store.get_text(digest) is None
        assert store.put_text(digest, text)
        assert store.get_text(digest) == text
        assert digest in store
        assert os.path.exists(store.path(digest))
        assert store.stats()["hits"] == 1
        assert store.stats()["misses"] == 1
        assert store.stats()["writes"] == 1

    def test_rejects_non_digest_keys(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        for bad in ("", "abc", "../../etc/passwd", "A" * 64, "g" * 64,
                    _digest("x")[:-1]):
            assert not is_digest(bad)
            with pytest.raises(ValueError):
                store.path(bad)
            assert bad not in store

    def test_overwrite_is_atomic_last_wins(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        digest = _digest("a")
        store.put_text(digest, '{"v": "first"}')
        store.put_text(digest, '{"v": "second"}')
        assert store.get_text(digest) == '{"v": "second"}'
        assert len(_json_files(tmp_path)) == 1

    def test_iter_and_len(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        digests = {_digest(i) for i in range(20)}
        for d in digests:
            store.put_text(d, "{}")
        assert set(store.iter_digests()) == digests
        assert len(store) == 20

    def test_flat_entries_outside_shards_are_not_entries(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        sharded = _digest("s")
        flat = _digest("f")
        store.put_text(sharded, "{}")
        (tmp_path / f"{flat}.json").write_text("{}")
        assert list(store.iter_digests()) == [sharded]
        assert flat not in store
        assert store.get_text(flat) is None
        assert store.stats()["misses"] == 1

    def test_unwritable_root_is_not_fatal(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        store = ShardedResultStore(str(blocker))
        assert store.put_text(_digest("a"), "{}") is False
        assert store.stats()["write_errors"] == 1
        assert store.get_text(_digest("a")) is None


def _writer_job(args):
    """Worker: hammer one shared store with interleaved writes/reads."""
    root, worker_id, rounds = args
    store = ShardedResultStore(root)
    ok = 0
    for round_no in range(rounds):
        # Everyone writes the same digests (same canonical payload, as
        # identical requests produce) plus a private one.
        shared = _digest(f"shared-{round_no}")
        private = _digest(f"private-{worker_id}-{round_no}")
        payload = json.dumps({"round": round_no}, sort_keys=True)
        store.put_text(shared, payload)
        store.put_text(private, payload)
        read = store.get_text(shared)
        if read is not None and json.loads(read)["round"] in range(rounds):
            ok += 1
    return ok


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required",
)
class TestConcurrentMultiProcess:
    def test_parallel_writers_one_store(self, tmp_path):
        root = str(tmp_path)
        workers, rounds = 4, 25
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            results = pool.map(
                _writer_job, [(root, i, rounds) for i in range(workers)]
            )
        # Every interleaved read saw a complete, parseable entry.
        assert results == [rounds] * workers
        store = ShardedResultStore(root)
        # rounds shared + workers*rounds private entries, all readable.
        assert len(store) == rounds + workers * rounds
        for digest in store.iter_digests():
            json.loads(store.get_text(digest))
        # Atomic writes leave no temp droppings behind.
        leftovers = [
            name for _, __, names in os.walk(root) for name in names
            if name.endswith(".tmp")
        ]
        assert leftovers == []


class TestTruncatedWriteRegression:
    """A killed writer's partial entry must read as a miss, not a
    crash or a served half-result (regression for the read-side
    hardening; the full corruption matrix lives in
    ``tests/resilience/test_store_corruption.py``)."""

    def test_injected_truncated_write_is_quarantined(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        digest = _digest("torn")
        payload = json.dumps({"value": 42})
        with faults.injected("store.write.truncate:times=1"):
            store.put_text(digest, payload)
        assert store.get_text(digest) is None          # never served
        assert os.path.exists(store.path(digest) + ".quarantine")
        assert store.stats()["quarantined"] == 1
        store.put_text(digest, payload)                # recompute path
        assert store.get_text(digest) == payload
