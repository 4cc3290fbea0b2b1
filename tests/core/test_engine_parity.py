"""Engine parity: the compiled fast path must be report-identical.

The acceptance bar of the compiled engine is *byte-identical*
``AnalysisResult`` JSON against the reference engine — across the
whole corpus, under both precision policies, through the batch API,
and for every individual fast-path layer (threaded interpreter, trace
pool, steady-state anti-unification).
"""

import pytest

from repro.api import AnalysisSession, results_to_json
from repro.core import AnalysisConfig, EngineFeatures, analyze_program
from repro.fpcore import load_corpus


def corpus_json(engine: str, policy: str, points: int = 2, seed: int = 13):
    config = AnalysisConfig(precision_policy=policy, engine=engine)
    session = AnalysisSession(
        config=config, num_points=points, seed=seed, result_cache_size=0
    )
    return results_to_json(session.analyze_batch(load_corpus(), workers=1))


class TestCorpusParity:
    @pytest.mark.parametrize("policy", ["fixed", "adaptive"])
    def test_full_corpus_byte_identical(self, policy):
        assert corpus_json("compiled", policy) == \
            corpus_json("reference", policy)


class TestBatchParity:
    def test_worker_pool_matches_sequential_reference(self):
        corpus = load_corpus()[:12]
        compiled = AnalysisSession(
            config=AnalysisConfig(engine="compiled"),
            num_points=2, seed=5, result_cache_size=0,
        )
        reference = AnalysisSession(
            config=AnalysisConfig(engine="reference"),
            num_points=2, seed=5, result_cache_size=0,
        )
        parallel = compiled.analyze_batch(corpus, workers=2)
        sequential = reference.analyze_batch(corpus, workers=1)
        assert results_to_json(parallel) == results_to_json(sequential)


def analysis_signature(analysis):
    """Every externally observable per-site statistic."""
    rows = []
    for record in analysis.candidate_records():
        rows.append((
            record.site_id, record.op, record.loc, record.executions,
            record.candidate_executions, record.max_local_error,
            record.sum_local_error, record.compensations_detected,
            str(record.symbolic_expression),
            sorted(record.total_inputs.describe())
            if hasattr(record.total_inputs, "describe") else None,
        ))
    for spot in sorted(analysis.spot_records.values(), key=lambda s: s.site_id):
        rows.append((
            spot.site_id, spot.kind, spot.loc, spot.executions,
            spot.erroneous, spot.max_error, spot.sum_error,
            sorted(r.site_id for r in spot.influences),
        ))
    return rows


class TestLayerAttribution:
    """Each fast-path layer alone must preserve results exactly."""

    LAYERS = [
        EngineFeatures(True, False, False),   # dispatch only
        EngineFeatures(False, True, False),   # trace pool only
        EngineFeatures(False, False, True),   # fast anti-unify only
        EngineFeatures(True, True, True),     # PR-3 stack
        EngineFeatures(True, True, True, kernel_cache=True),  # PR-4 stack
        EngineFeatures(True, True, True, kernel_cache=True,
                       fused_pipeline=True),  # fused per-site pipeline
        EngineFeatures(True, True, True, kernel_cache=True,
                       fused_pipeline=True, profile=True),  # + counters
        EngineFeatures(True, True, True, fused_pipeline=True),  # no kcache
        EngineFeatures(True, True, True, kernel_cache=True,
                       fused_pipeline=True, batched=True),  # PR-7 stack
        EngineFeatures(True, True, True, kernel_cache=True,
                       fused_pipeline=True, batched=True,
                       profile=True),  # batched + counters
        EngineFeatures(True, True, True, fused_pipeline=True,
                       batched=True),  # batched without kernel cache
    ]

    @pytest.mark.parametrize("features", LAYERS)
    def test_each_layer_is_report_identical(self, features):
        from repro.fpcore.printer import format_fpcore
        from repro.machine import compile_fpcore
        from repro.api.sampling import sample_inputs

        corpus = load_corpus()
        chosen = [c for c in corpus if "(while" in format_fpcore(c)][:2] \
            + corpus[:4]
        baseline_features = EngineFeatures(False, False, False)
        for core in chosen:
            program = compile_fpcore(core)
            points = sample_inputs(core, 3, seed=3)
            base, __ = analyze_program(
                program, points, features=baseline_features
            )
            fast, __ = analyze_program(program, points, features=features)
            assert analysis_signature(fast) == analysis_signature(base), \
                f"{core.name} diverged under {features}"


class TestBatchedParity:
    """Lockstep batching must be invisible across the whole matrix:
    engine default × precision policy × BigFloat substrate, compared
    byte-for-byte against the same stack with batching forced off."""

    @pytest.mark.parametrize("substrate", ["python", "native"])
    @pytest.mark.parametrize("policy", ["fixed", "adaptive"])
    def test_corpus_byte_identical_with_batching_off(
        self, policy, substrate, monkeypatch
    ):
        def sweep():
            config = AnalysisConfig(
                precision_policy=policy, substrate=substrate,
                engine="compiled",
            )
            session = AnalysisSession(
                config=config, num_points=2, seed=13,
                result_cache_size=0,
            )
            return results_to_json(
                session.analyze_batch(load_corpus(), workers=1)
            )

        monkeypatch.delenv("REPRO_BATCHED", raising=False)
        batched = sweep()
        monkeypatch.setenv("REPRO_BATCHED", "0")
        sequential = sweep()
        assert batched == sequential


class TestHwTierParity:
    """The hardware double-double tier must be invisible in the bytes:
    every decision it takes either provably matches the full-precision
    oracle or escalates, so corpus reports are byte-identical with the
    tier on or off — under both engines and through the batched
    layer."""

    @staticmethod
    def sweep(hw_tier, engine="compiled"):
        config = AnalysisConfig(
            precision_policy="adaptive", engine=engine, hw_tier=hw_tier,
        )
        session = AnalysisSession(
            config=config, num_points=2, seed=13, result_cache_size=0,
        )
        return results_to_json(
            session.analyze_batch(load_corpus(), workers=1)
        )

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_corpus_byte_identical_with_hw_tier_off(self, engine):
        assert self.sweep(True, engine) == self.sweep(False, engine)

    def test_env_default_matches_explicit(self, monkeypatch):
        monkeypatch.delenv("REPRO_HWTIER", raising=False)
        ambient = self.sweep(None)
        monkeypatch.setenv("REPRO_HWTIER", "0")
        assert self.sweep(None) == ambient
        assert ambient == self.sweep(True)

    def test_sequential_engine_ignores_hw_vectorization(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCHED", "0")
        assert self.sweep(True) == self.sweep(False)


class TestAppsParity:
    def test_pid_app_signature(self):
        from repro.apps.pid import build_pid_program

        program = build_pid_program()
        inputs = [[10.0], [4.0]]
        signatures = {}
        for engine in ("compiled", "reference"):
            analysis, __ = analyze_program(
                program, inputs, config=AnalysisConfig(engine=engine)
            )
            signatures[engine] = analysis_signature(analysis)
        assert signatures["compiled"] == signatures["reference"]
