"""Engine parity: the compiled fast path must be report-identical.

The acceptance bar of the compiled engine is *byte-identical*
``AnalysisResult`` JSON against the reference engine — across the
whole corpus, under both precision policies, through the batch API,
and for every setting of the compiled engine's two switches (batched
lockstep execution and the profile counters).
"""

import pytest

from repro.api import AnalysisSession, results_to_json
from repro.core import AnalysisConfig, analyze_program
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


class TestDepthBoundParity:
    """Parity at the expression-depth bounds of Figures 5c/5d.

    The anti-unifier's truncation frontier moves with
    ``max_expression_depth``; loop traces are far deeper than any of
    these bounds, and 200 is far above every straight-line trace.
    """

    STRAIGHT_LINE = ("paper-csqrt-imag", "quad-root-sum", "kepler2")

    @staticmethod
    def depth_json(engine, policy, depth):
        cores = [
            core for core in load_corpus()
            if core.properties.get("herbgrind-family") == "loops"
            or core.name in TestDepthBoundParity.STRAIGHT_LINE
        ]
        config = AnalysisConfig(
            precision_policy=policy, engine=engine,
            max_expression_depth=depth,
        )
        session = AnalysisSession(
            config=config, num_points=2, seed=13, result_cache_size=0
        )
        return results_to_json(session.analyze_batch(cores, workers=1))

    @pytest.mark.parametrize("depth", [1, 2, 5, 200])
    @pytest.mark.parametrize("policy", ["fixed", "adaptive"])
    def test_byte_identical_at_depth_bound(self, policy, depth):
        assert self.depth_json("compiled", policy, depth) == \
            self.depth_json("reference", policy, depth)


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
            sorted(record.total_inputs.describe().items()),
            sorted(record.problematic_inputs.describe().items()),
        ))
    for spot in sorted(analysis.spot_records.values(), key=lambda s: s.site_id):
        rows.append((
            spot.site_id, spot.kind, spot.loc, spot.executions,
            spot.erroneous, spot.max_error, spot.sum_error,
            sorted(r.site_id for r in spot.influences),
        ))
    return rows


class TestLayerAttribution:
    """Every setting of the compiled engine's two switches must match
    the reference engine exactly, under both precision policies."""

    @pytest.mark.parametrize("profile", [False, True],
                             ids=["counters-off", "counters-on"])
    @pytest.mark.parametrize("batched", [False, True],
                             ids=["sequential", "batched"])
    @pytest.mark.parametrize("policy", ["fixed", "adaptive"])
    def test_each_stack_is_report_identical(self, policy, batched, profile):
        from repro.fpcore.printer import format_fpcore
        from repro.machine import compile_fpcore
        from repro.api.sampling import sample_inputs

        corpus = load_corpus()
        chosen = [c for c in corpus if "(while" in format_fpcore(c)][:2] \
            + corpus[:4]
        reference = AnalysisConfig(engine="reference", precision_policy=policy)
        compiled = AnalysisConfig(engine="compiled", precision_policy=policy,
                                  batched=batched)
        for core in chosen:
            program = compile_fpcore(core)
            points = sample_inputs(core, 3, seed=3)
            base, __ = analyze_program(program, points, config=reference)
            fast, __ = analyze_program(
                program, points, config=compiled, profile=profile,
            )
            assert analysis_signature(fast) == analysis_signature(base), \
                f"{core.name} diverged (batched={batched}, profile={profile})"
            if profile:
                counters = fast.stage_counters
                assert counters.fused_ops + counters.generic_ops > 0


class TestReferenceStack:
    def test_reference_engine_runs_no_fast_layer(self):
        # The oracle: no trace pool, no site-compiled callbacks, no
        # batching — whatever switches the caller passes.
        from repro.core import HerbgrindAnalysis
        from repro.machine import isa

        analysis = HerbgrindAnalysis(
            AnalysisConfig(engine="reference", batched=True), profile=True
        )
        instr = isa.FloatOp("r", "+", ("a", "b"))
        assert analysis.pool is None
        assert not analysis._batched
        assert analysis.fused_site_callback(instr, "+", 2) is None
        assert analysis.fused_const_callback(isa.Const("c", 1.5)) is None
        assert analysis.fused_branch_callback(
            isa.Branch("lt", "a", "b", "L")
        ) is None


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
        # hw_tier None: the config's default, which REPRO_HWTIER sets.
        plan = {} if hw_tier is None else {"hw_tier": hw_tier}
        config = AnalysisConfig(
            precision_policy="adaptive", engine=engine, **plan,
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
