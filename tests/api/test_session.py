"""Tests for the AnalysisSession façade: caching, backends, batch."""

import pytest

from repro.api import (
    AnalysisBackend,
    AnalysisResult,
    AnalysisSession,
    available_backends,
    get_backend,
    register_backend,
    results_to_json,
)
from repro.core import AnalysisConfig
from repro.core.analysis import HerbgrindAnalysis
from repro.fpcore import load_corpus, parse_fpcore

ERRONEOUS = "(FPCore (x) :name \"t\" :pre (<= 1e16 x 1e17) (- (+ x 1) x))"
CLEAN = "(FPCore (x) :name \"ok\" :pre (<= 1 x 2) (+ x 1))"
FAST = AnalysisConfig(shadow_precision=192)


class TestSessionBasics:
    def test_analyze_erroneous(self):
        session = AnalysisSession(config=FAST, num_points=4)
        result = session.analyze(ERRONEOUS)
        assert result.detected
        assert result.max_output_error > 50
        assert result.reported_root_causes()
        assert isinstance(result.raw, HerbgrindAnalysis)

    def test_analyze_clean(self):
        session = AnalysisSession(config=FAST, num_points=4)
        result = session.analyze(CLEAN)
        assert not result.detected
        assert result.root_causes == []

    def test_explicit_points_override_sampling(self):
        session = AnalysisSession(config=FAST)
        result = session.analyze(ERRONEOUS, points=[[1e16], [5e16]])
        assert result.raw.runs == 2

    def test_points_of_the_wrong_length_rejected(self):
        # The program reads one input per argument: a short point
        # would run it past the end of its inputs on every rung.
        session = AnalysisSession(config=FAST)
        with pytest.raises(ValueError, match="takes 2"):
            session.request("(FPCore (x y) (- (+ x y) x))",
                            points=[[1.0], [2.0]])

    def test_accepts_core_object_and_text(self):
        session = AnalysisSession(config=FAST, num_points=4)
        a = session.analyze(ERRONEOUS)
        b = session.analyze(parse_fpcore(ERRONEOUS))
        assert a.to_json() == b.to_json()

    def test_unknown_override_rejected(self):
        session = AnalysisSession(config=FAST)
        with pytest.raises(TypeError, match="num_point"):
            session.analyze(ERRONEOUS, num_point=8)  # typo'd key

    def test_overrides_with_prebuilt_request_rejected(self):
        from repro.api import AnalysisRequest

        session = AnalysisSession(config=FAST)
        request = AnalysisRequest.build(ERRONEOUS, num_points=4, config=FAST)
        with pytest.raises(TypeError, match="prebuilt"):
            session.analyze(request, seed=42)

    def test_verrou_average_below_max_on_mixed_stability(self):
        # One wobbling point and one exactly-stable point: the serialized
        # average must be a true average, not the max.
        session = AnalysisSession(config=FAST)
        result = session.analyze(
            ERRONEOUS, backend="verrou", points=[[1e16], [1.5]]
        )
        spot = result.spots[0]
        assert spot.error.executions == 2
        assert 0.0 < spot.error.average_bits < spot.error.max_bits


class TestSessionCaching:
    def test_program_and_points_cached_across_calls(self):
        session = AnalysisSession(config=FAST, num_points=4)
        first = session.analyze(ERRONEOUS)
        stats = session.cache_stats()
        assert stats["programs"] == 1
        assert stats["input_sets"] == 1
        second = session.analyze(ERRONEOUS)
        stats = session.cache_stats()
        # The identical request is served whole from the result cache
        # (program/input caches are not even consulted again).
        assert stats["result_hits"] == 1
        assert stats["programs"] == 1
        assert second is first
        assert first.to_json() == second.to_json()

    def test_program_and_points_reused_without_result_cache(self):
        session = AnalysisSession(
            config=FAST, num_points=4, result_cache_size=0
        )
        first = session.analyze(ERRONEOUS)
        second = session.analyze(ERRONEOUS)
        stats = session.cache_stats()
        assert stats["hits"] >= 2  # program + points reused
        assert second is not first
        assert first.to_json() == second.to_json()

    def test_compiled_is_cached_identity(self):
        session = AnalysisSession(config=FAST)
        assert session.compiled(ERRONEOUS) is session.compiled(ERRONEOUS)

    def test_sampled_keyed_by_count_and_seed(self):
        session = AnalysisSession(config=FAST)
        a = session.sampled(ERRONEOUS, count=4, seed=0)
        b = session.sampled(ERRONEOUS, count=4, seed=1)
        c = session.sampled(ERRONEOUS, count=4, seed=0)
        assert a is c
        assert a != b

    def test_clear_caches(self):
        session = AnalysisSession(config=FAST, num_points=4)
        session.analyze(ERRONEOUS)
        session.clear_caches()
        assert session.cache_stats() == {
            "programs": 0, "input_sets": 0, "input_set_capacity": 1024,
            "hits": 0, "misses": 0,
            "results": 0, "result_hits": 0, "result_misses": 0,
        }

    def test_point_cache_is_lru_bounded(self):
        session = AnalysisSession(config=FAST, point_cache_size=2)
        a = session.sampled(ERRONEOUS, count=4, seed=0)
        session.sampled(ERRONEOUS, count=4, seed=1)
        # Touch seed=0 so seed=1 is the least recently used entry.
        assert session.sampled(ERRONEOUS, count=4, seed=0) is a
        session.sampled(ERRONEOUS, count=4, seed=2)
        stats = session.cache_stats()
        assert stats["input_sets"] == 2
        assert stats["input_set_capacity"] == 2
        # seed=1 was evicted, seed=0 survived.
        assert session.sampled(ERRONEOUS, count=4, seed=0) is a
        misses = session.cache_misses
        session.sampled(ERRONEOUS, count=4, seed=1)
        assert session.cache_misses == misses + 1

    def test_point_cache_size_zero_disables_caching(self):
        session = AnalysisSession(config=FAST, point_cache_size=0)
        a = session.sampled(ERRONEOUS, count=4, seed=0)
        b = session.sampled(ERRONEOUS, count=4, seed=0)
        assert a is not b
        assert a == b
        assert session.cache_stats()["input_sets"] == 0


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        assert {"herbgrind", "fpdebug", "verrou", "bz"} <= set(
            available_backends()
        )

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("nope")

    def test_every_builtin_backend_runs(self):
        session = AnalysisSession(config=FAST, num_points=4)
        for name in ("herbgrind", "fpdebug", "verrou", "bz"):
            result = session.analyze(ERRONEOUS, backend=name)
            assert result.backend == name
            assert result.benchmark == "t"

    def test_fpdebug_flags_erroneous_op(self):
        session = AnalysisSession(config=FAST, num_points=4)
        result = session.analyze(ERRONEOUS, backend="fpdebug")
        assert result.root_causes
        assert result.root_causes[0].expression is None
        assert result.max_output_error > 50

    def test_verrou_marks_unstable_output(self):
        session = AnalysisSession(config=FAST, num_points=4)
        result = session.analyze(ERRONEOUS, backend="verrou")
        assert result.spots
        assert result.detected

    def test_custom_backend_registration(self):
        class CountingBackend(AnalysisBackend):
            name = "counting"

            def run(self, program, points, request):
                return AnalysisResult(
                    benchmark=request.name,
                    backend=self.name,
                    seed=request.seed,
                    num_points=request.num_points,
                    extra={"points_seen": len(points)},
                )

        register_backend("counting", CountingBackend)
        try:
            session = AnalysisSession(
                config=FAST, backend="counting", num_points=4
            )
            result = session.analyze(ERRONEOUS)
            assert result.backend == "counting"
            assert result.extra == {"points_seen": 4}
        finally:
            import repro.api.backends as backends_mod

            backends_mod._REGISTRY.pop("counting", None)


class TestBatch:
    def test_sequential_batch_preserves_order(self):
        session = AnalysisSession(config=FAST, num_points=4)
        results = session.analyze_batch([CLEAN, ERRONEOUS])
        assert [r.benchmark for r in results] == ["ok", "t"]

    def test_parallel_matches_sequential_byte_identical(self):
        # The acceptance criterion: >= 20 corpus benchmarks, workers=4,
        # byte-identical JSON against sequential execution, same seed.
        corpus = load_corpus()[:20]
        session = AnalysisSession(config=FAST, num_points=4, seed=11)
        sequential = session.analyze_batch(corpus, workers=1)
        parallel = session.analyze_batch(corpus, workers=4)
        assert len(sequential) == 20
        assert results_to_json(sequential) == results_to_json(parallel)

    def test_parallel_results_carry_no_raw(self):
        session = AnalysisSession(config=FAST, num_points=4)
        results = session.analyze_batch([ERRONEOUS, CLEAN], workers=2)
        assert all(r.raw is None for r in results)

    def test_batch_backend_override(self):
        session = AnalysisSession(config=FAST, num_points=4)
        results = session.analyze_batch(
            [ERRONEOUS, CLEAN], workers=2, backend="bz"
        )
        assert all(r.backend == "bz" for r in results)

    def test_libm_override_rejected_across_processes(self):
        from repro.machine import build_libm

        session = AnalysisSession(config=FAST, num_points=2)
        with pytest.raises(ValueError, match="process boundary"):
            session.analyze_batch(
                [ERRONEOUS, CLEAN], workers=2, libm=build_libm()
            )


class TestPipelineDelegation:
    def test_evaluate_benchmark_routes_through_session(self, monkeypatch):
        from repro.eval import evaluate_benchmark

        calls = []
        original = AnalysisSession.analyze

        def spy(self, core, **overrides):
            calls.append(core)
            return original(self, core, **overrides)

        monkeypatch.setattr(AnalysisSession, "analyze", spy)
        evaluate_benchmark(
            parse_fpcore(ERRONEOUS), config=FAST, num_points=4
        )
        assert len(calls) == 1

    def test_evaluate_suite_shares_one_session(self, monkeypatch):
        from repro.eval import evaluate_suite

        sessions = []
        original = AnalysisSession.analyze

        def spy(self, core, **overrides):
            sessions.append(self)
            return original(self, core, **overrides)

        monkeypatch.setattr(AnalysisSession, "analyze", spy)
        cores = [
            parse_fpcore(ERRONEOUS),
            parse_fpcore('(FPCore (x) :name "ok" :pre (<= 1 x 2) (+ x 1))'),
        ]
        evaluate_suite(cores, config=FAST, num_points=4)
        assert len(sessions) == 2
        assert sessions[0] is sessions[1]


class TestCliDelegation:
    def test_cli_analyze_routes_through_session(self, monkeypatch, capsys):
        from repro.cli import main

        calls = []
        original = AnalysisSession.analyze

        def spy(self, core, **overrides):
            calls.append(core)
            return original(self, core, **overrides)

        monkeypatch.setattr(AnalysisSession, "analyze", spy)
        assert main(["analyze", ERRONEOUS, "--points", "4",
                     "--precision", "192"]) == 0
        assert len(calls) == 1

    def test_cli_corpus_routes_through_batch(self, monkeypatch, capsys):
        from repro.cli import main

        calls = []
        original = AnalysisSession.analyze_batch

        def spy(self, cores, workers=1, **overrides):
            calls.append(list(cores))
            return original(self, cores, workers=workers, **overrides)

        monkeypatch.setattr(AnalysisSession, "analyze_batch", spy)
        assert main(["corpus", "--name", "paper-x-plus-1-minus-x",
                     "--points", "4", "--precision", "192"]) == 0
        assert len(calls) == 1 and len(calls[0]) == 1
