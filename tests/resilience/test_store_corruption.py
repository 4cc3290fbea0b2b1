"""Store corruption chaos: torn writes and reads are quarantined to a
sidecar and recomputed — never served, never fatal."""

import hashlib
import json
import os

from repro.api.store import ShardedResultStore
from repro.resilience import faults


def _digest(tag) -> str:
    return hashlib.sha256(str(tag).encode()).hexdigest()


PAYLOAD = json.dumps({"benchmark": "t", "value": [1.0, 2.0, 3.0]})


class TestWriteCorruption:
    def test_truncated_write_reads_as_miss_and_quarantines(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        digest = _digest("a")
        with faults.injected("store.write.truncate:times=1"):
            store.put_text(digest, PAYLOAD)
        # The entry on disk is torn; the read must not serve it.
        assert store.get_text(digest) is None
        assert os.path.exists(store.path(digest) + ".quarantine")
        assert not os.path.exists(store.path(digest))
        stats = store.stats()
        assert stats["corrupt"] == 1
        assert stats["quarantined"] == 1
        # The recompute path: a clean rewrite fully recovers the entry.
        store.put_text(digest, PAYLOAD)
        assert store.get_text(digest) == PAYLOAD

    def test_zero_byte_write_reads_as_miss(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        digest = _digest("b")
        with faults.injected("store.write.empty:times=1"):
            store.put_text(digest, PAYLOAD)
        assert store.get_text(digest) is None
        assert os.path.exists(store.path(digest) + ".quarantine")

    def test_quarantined_sidecar_is_invisible_to_readers(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        digest = _digest("c")
        with faults.injected("store.write.truncate:times=1"):
            store.put_text(digest, PAYLOAD)
        store.get_text(digest)  # quarantines
        assert digest not in store
        assert list(store.iter_digests()) == []


class TestReadCorruption:
    def test_torn_read_is_not_served(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        digest = _digest("d")
        store.put_text(digest, PAYLOAD)
        with faults.injected("store.read.truncate:times=1"):
            assert store.get_text(digest) is None
        # The on-disk entry was intact; only the read was torn — but
        # the conservative response is quarantine + recompute, and the
        # recompute rewrites the entry.
        store.put_text(digest, PAYLOAD)
        assert store.get_text(digest) == PAYLOAD


class TestKilledWriterArtifacts:
    """Corruption landed directly on disk, no seams: the store must
    harden against artifacts it did not write itself."""

    def test_hand_planted_zero_byte_entry(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        digest = _digest("f")
        path = store.path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        open(path, "w").close()
        assert store.get_text(digest) is None
        assert os.path.exists(path + ".quarantine")

    def test_hand_planted_partial_json(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        digest = _digest("g")
        path = store.path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(PAYLOAD[: len(PAYLOAD) // 2])
        assert store.get_text(digest) is None
        stats = store.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 0
