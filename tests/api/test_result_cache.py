"""Tests for session-level result caching (LRU + on-disk store)."""

import dataclasses
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
from repro.core.config import PLAN_FIELDS

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
        # The precision policy is part of the execution plan, which
        # every policy computes to the same bytes: one digest.
        assert request_digest(
            session.request(
                ERRONEOUS, config=FAST.with_(precision_policy="adaptive")
            )
        ) == base

    def test_shared_across_engines(self):
        # Engines are report-identical, so a result either engine
        # computed answers both: the digest leaves the engine out.
        session = AnalysisSession(config=FAST, num_points=4)
        compiled = request_digest(
            session.request(ERRONEOUS, config=FAST.with_(engine="compiled"))
        )
        reference = request_digest(
            session.request(ERRONEOUS, config=FAST.with_(engine="reference"))
        )
        assert compiled == reference

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
        # Batching is result-invisible: the switch is serialized, so a
        # worker runs the plan it was asked for, but two requests
        # differing only there share a digest (and a cache entry).
        session = AnalysisSession(config=FAST, num_points=4)
        batched = session.request(ERRONEOUS, config=FAST.with_(batched=True))
        sequential = session.request(
            ERRONEOUS, config=FAST.with_(batched=False)
        )
        assert sequential.to_dict()["config"]["batched"] is False
        assert request_digest(sequential) == request_digest(batched)

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


#: One value away from the default for every execution-plan field.
PLAN_CHANGES = {
    "engine": "reference",
    "precision_policy": "adaptive",
    "substrate": "python",
    "working_precision": 160,
    "escalation_guard_bits": 24,
    "hw_tier": False,
    "batched": False,
}

#: One value away from the default for every other config field.
OTHER_CHANGES = {
    "shadow_precision": 256,
    "local_error_threshold": 6.0,
    "output_error_threshold": 6.0,
    "max_expression_depth": 7,
    "equivalence_depth": 3,
    "input_characteristics": "range",
    "detect_compensation": False,
    "track_influences": False,
    "deadline_seconds": 30.0,
    "op_budget": 10 ** 9,
}


class TestPlanSharing:
    """Requests that differ only in the execution plan share one digest
    and therefore one memory and one store entry."""

    def test_the_tables_cover_every_config_field(self):
        assert set(PLAN_CHANGES) == set(PLAN_FIELDS)
        fields = {f.name for f in dataclasses.fields(AnalysisConfig)}
        assert set(PLAN_CHANGES) | set(OTHER_CHANGES) == fields

    @pytest.mark.parametrize("name", sorted(PLAN_CHANGES))
    def test_plan_fields_share_one_digest(self, name):
        session = AnalysisSession(config=FAST, num_points=4)
        base = session.request(ERRONEOUS)
        changed = session.request(
            ERRONEOUS, config=FAST.with_(**{name: PLAN_CHANGES[name]})
        )
        assert changed.to_dict()["config"][name] == PLAN_CHANGES[name]
        assert request_digest(changed) == request_digest(base)

    def test_all_plan_fields_at_once_share_one_digest(self):
        session = AnalysisSession(config=FAST, num_points=4)
        changed = session.request(
            ERRONEOUS, config=FAST.with_(**PLAN_CHANGES)
        )
        assert request_digest(changed) == \
            request_digest(session.request(ERRONEOUS))

    @pytest.mark.parametrize("name", sorted(OTHER_CHANGES))
    def test_other_fields_still_split_the_digest(self, name):
        session = AnalysisSession(config=FAST, num_points=4)
        changed = session.request(
            ERRONEOUS, config=FAST.with_(**{name: OTHER_CHANGES[name]})
        )
        assert request_digest(changed) != \
            request_digest(session.request(ERRONEOUS))

    @pytest.mark.parametrize("value", [None, 0, "off"])
    @pytest.mark.parametrize("name", ["hw_tier", "batched"])
    def test_plan_switches_must_be_bools(self, name, value):
        # A payload's config arrives from outside: a null switch would
        # otherwise silently read as off.
        with pytest.raises(ValueError, match=name):
            AnalysisConfig(**{name: value})

    def test_adaptive_request_is_served_from_a_fixed_store_entry(
        self, tmp_path, monkeypatch
    ):
        import repro.api.session as session_module

        cache_dir = str(tmp_path / "results")
        fixed = AnalysisSession(config=FAST, num_points=4,
                                cache_dir=cache_dir)
        cold = fixed.analyze(ERRONEOUS)

        def no_run(*args, **kwargs):
            raise AssertionError("the backend ran on a store hit")

        monkeypatch.setattr(session_module, "_run_request", no_run)
        adaptive = AnalysisSession(
            config=FAST.with_(precision_policy="adaptive"), num_points=4,
            cache_dir=cache_dir,
        )
        warm = adaptive.analyze(ERRONEOUS)
        assert adaptive.result_hits == 1
        assert adaptive.result_misses == 0
        assert warm.to_json() == cold.to_json()
        assert len(_disk_entries(cache_dir)) == 1


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
