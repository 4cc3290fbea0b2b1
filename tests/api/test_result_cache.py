"""Tests for session-level result caching (LRU + on-disk store)."""

import json
import os

import pytest

from repro.api import (
    AnalysisBackend,
    AnalysisResult,
    AnalysisSession,
    register_backend,
    request_digest,
    results_to_json,
)
from repro.core import AnalysisConfig

ERRONEOUS = "(FPCore (x) :name \"t\" :pre (<= 1e16 x 1e17) (- (+ x 1) x))"
CLEAN = "(FPCore (x) :name \"ok\" :pre (<= 1 x 2) (+ x 1))"
FAST = AnalysisConfig(shadow_precision=192)


class CountingBackend(AnalysisBackend):
    """A backend that counts how many times it actually runs."""

    name = "counting-cache"
    runs = 0

    def run(self, program, points, request):
        type(self).runs += 1
        return AnalysisResult(
            benchmark=request.name,
            backend=self.name,
            seed=request.seed,
            num_points=request.num_points,
            extra={"points_seen": len(points)},
        )


@pytest.fixture()
def counting_backend():
    register_backend(CountingBackend.name, CountingBackend)
    CountingBackend.runs = 0
    yield CountingBackend
    import repro.api.backends as backends_mod

    backends_mod._REGISTRY.pop(CountingBackend.name, None)


class TestRequestDigest:
    def test_stable_across_equivalent_requests(self):
        session = AnalysisSession(config=FAST, num_points=4)
        a = session.request(ERRONEOUS)
        b = session.request(ERRONEOUS)
        assert request_digest(a) == request_digest(b)

    def test_varies_with_every_knob(self):
        session = AnalysisSession(config=FAST, num_points=4)
        base = request_digest(session.request(ERRONEOUS))
        assert request_digest(session.request(CLEAN)) != base
        assert request_digest(session.request(ERRONEOUS, seed=1)) != base
        assert request_digest(
            session.request(ERRONEOUS, num_points=5)
        ) != base
        assert request_digest(
            session.request(ERRONEOUS, backend="fpdebug")
        ) != base
        assert request_digest(
            session.request(
                ERRONEOUS, config=FAST.with_(local_error_threshold=6.0)
            )
        ) != base
        assert request_digest(
            session.request(
                ERRONEOUS, config=FAST.with_(precision_policy="adaptive")
            )
        ) != base

    def test_varies_with_engine(self):
        # Engines are report-identical, but cached results from
        # different engines must still never alias: the digest covers
        # the engine choice like every other config knob.
        session = AnalysisSession(config=FAST, num_points=4)
        compiled = request_digest(
            session.request(ERRONEOUS, config=FAST.with_(engine="compiled"))
        )
        reference = request_digest(
            session.request(ERRONEOUS, config=FAST.with_(engine="reference"))
        )
        assert compiled != reference

    def test_engine_roundtrips_through_request_serialization(self):
        from repro.api import AnalysisRequest

        session = AnalysisSession(
            config=FAST.with_(engine="reference"), num_points=4
        )
        request = session.request(ERRONEOUS)
        rebuilt = AnalysisRequest.from_json(request.to_json())
        assert rebuilt.config.engine == "reference"
        assert request_digest(rebuilt) == request_digest(request)

    def test_batched_switch_stays_out_of_the_digest(self):
        # Batching is result-invisible, so the internal switch is never
        # serialized and two requests differing only there share a
        # digest (and a cache entry).
        import dataclasses

        session = AnalysisSession(config=FAST, num_points=4)
        request = session.request(ERRONEOUS)
        sequential = dataclasses.replace(request, batched=False)
        assert "batched" not in sequential.to_dict()
        assert request_digest(sequential) == request_digest(request)

    def test_varies_with_result_schema_version(self, monkeypatch):
        # A schema bump must invalidate persisted entries.
        import repro.api.session as session_mod

        session = AnalysisSession(config=FAST, num_points=4)
        request = session.request(ERRONEOUS)
        before = request_digest(request)
        monkeypatch.setattr(
            session_mod, "RESULT_SCHEMA_VERSION",
            session_mod.RESULT_SCHEMA_VERSION + 1,
        )
        assert request_digest(request) != before


class TestMemoryCache:
    def test_identical_request_runs_once(self, counting_backend):
        session = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4
        )
        first = session.analyze(ERRONEOUS)
        second = session.analyze(ERRONEOUS)
        assert counting_backend.runs == 1
        assert second is first
        assert session.result_hits == 1
        assert session.result_misses == 1

    def test_different_config_reruns(self, counting_backend):
        session = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4
        )
        session.analyze(ERRONEOUS)
        session.analyze(ERRONEOUS, seed=3)
        assert counting_backend.runs == 2

    def test_cache_disabled(self, counting_backend):
        session = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4,
            result_cache_size=0,
        )
        session.analyze(ERRONEOUS)
        session.analyze(ERRONEOUS)
        assert counting_backend.runs == 2
        assert session.result_hits == 0

    def test_lru_eviction(self, counting_backend):
        session = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4,
            result_cache_size=1,
        )
        session.analyze(ERRONEOUS)
        session.analyze(CLEAN)       # evicts ERRONEOUS
        session.analyze(ERRONEOUS)   # must re-run
        assert counting_backend.runs == 3

    def test_libm_override_not_cached(self, counting_backend):
        from repro.machine import build_libm

        libm = build_libm()
        session = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=2
        )
        session.analyze(ERRONEOUS, libm=libm)
        session.analyze(ERRONEOUS, libm=libm)
        assert counting_backend.runs == 2

    def test_clear_caches_drops_results(self, counting_backend):
        session = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4
        )
        session.analyze(ERRONEOUS)
        session.clear_caches()
        session.analyze(ERRONEOUS)
        assert counting_backend.runs == 2


def _disk_entries(cache_dir):
    """All persisted result files under the sharded cache layout."""
    found = []
    for root, _dirs, files in os.walk(cache_dir):
        found.extend(os.path.join(root, name) for name in files
                     if name.endswith(".json"))
    return sorted(found)


class TestDiskCache:
    def test_results_persist_across_sessions(self, counting_backend,
                                             tmp_path):
        cache_dir = str(tmp_path / "results")
        first = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4,
            cache_dir=cache_dir,
        )
        cold = first.analyze(ERRONEOUS)
        assert counting_backend.runs == 1
        assert len(_disk_entries(cache_dir)) == 1

        second = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4,
            cache_dir=cache_dir,
        )
        warm = second.analyze(ERRONEOUS)
        assert counting_backend.runs == 1  # served from disk
        assert warm.to_json() == cold.to_json()
        assert warm.raw is None  # disk results carry no raw analysis

    def test_disk_entries_are_canonical_sharded_json(
        self, counting_backend, tmp_path
    ):
        cache_dir = str(tmp_path / "results")
        session = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4,
            cache_dir=cache_dir,
        )
        result = session.analyze(ERRONEOUS)
        digest = request_digest(session.request(ERRONEOUS))
        # Entries shard by digest prefix: <dir>/<digest[:2]>/<digest>.json
        expected = os.path.join(cache_dir, digest[:2], f"{digest}.json")
        assert _disk_entries(cache_dir) == [expected]
        with open(expected, encoding="utf-8") as fh:
            assert json.load(fh) == result.to_dict()

    def test_disk_only_cache(self, counting_backend, tmp_path):
        # result_cache_size=0 with a cache_dir keeps the disk layer.
        cache_dir = str(tmp_path / "results")
        session = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4,
            cache_dir=cache_dir, result_cache_size=0,
        )
        session.analyze(ERRONEOUS)
        session.analyze(ERRONEOUS)
        assert counting_backend.runs == 1  # second call hit the disk
        assert len(_disk_entries(cache_dir)) == 1

    def test_unwritable_cache_dir_is_not_fatal(self, counting_backend,
                                               tmp_path):
        # A cache_dir that is actually a file: writes fail, analysis
        # still returns its result.
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        session = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4,
            cache_dir=str(blocker),
        )
        result = session.analyze(ERRONEOUS)
        assert result.benchmark == "t"
        assert counting_backend.runs == 1

    def test_corrupt_entry_is_a_miss(self, counting_backend, tmp_path):
        cache_dir = str(tmp_path / "results")
        session = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4,
            cache_dir=cache_dir,
        )
        session.analyze(ERRONEOUS)
        [entry] = _disk_entries(cache_dir)
        with open(entry, "w") as fh:
            fh.write("{not json")
        fresh = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4,
            cache_dir=cache_dir,
        )
        fresh.analyze(ERRONEOUS)
        assert counting_backend.runs == 2

    def test_flat_entry_outside_shards_is_a_miss(
        self, counting_backend, tmp_path
    ):
        # Only the sharded <dir>/<digest[:2]>/<digest>.json layout is
        # read: a flat <dir>/<digest>.json file is recomputed.
        cache_dir = str(tmp_path / "results")
        seeder = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4,
            cache_dir=cache_dir,
        )
        seeder.analyze(ERRONEOUS)
        digest = request_digest(seeder.request(ERRONEOUS))
        sharded = os.path.join(cache_dir, digest[:2], f"{digest}.json")
        flat = os.path.join(cache_dir, f"{digest}.json")
        os.rename(sharded, flat)
        os.rmdir(os.path.dirname(sharded))

        fresh = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4,
            cache_dir=cache_dir,
        )
        fresh.analyze(ERRONEOUS)
        assert counting_backend.runs == 2
        assert os.path.exists(sharded)  # the recompute wrote the shard


class TestBatchCaching:
    def test_warm_batch_skips_the_pool(self):
        session = AnalysisSession(config=FAST, num_points=4, seed=11)
        cold = session.analyze_batch([ERRONEOUS, CLEAN], workers=2)
        warm = session.analyze_batch([ERRONEOUS, CLEAN], workers=2)
        assert results_to_json(cold) == results_to_json(warm)
        assert session.result_hits == 2

    def test_duplicates_within_a_batch_run_once(self, counting_backend):
        session = AnalysisSession(
            config=FAST, backend=counting_backend.name, num_points=4
        )
        results = session.analyze_batch(
            [ERRONEOUS, ERRONEOUS, ERRONEOUS], workers=1
        )
        assert counting_backend.runs == 1
        assert len({id(r) for r in results}) == 1

    def test_mixed_hit_miss_batch_order_preserved(self):
        session = AnalysisSession(config=FAST, num_points=4, seed=11)
        session.analyze(ERRONEOUS)
        results = session.analyze_batch([CLEAN, ERRONEOUS], workers=2)
        assert [r.benchmark for r in results] == ["ok", "t"]
        # Cached result reused; fresh one computed in the pool.
        assert session.result_hits == 1
