"""Engine parity: the compiled fast path must be report-identical.

The acceptance bar of the compiled engine is *byte-identical*
``AnalysisResult`` JSON against the reference engine — across the
whole corpus, under both precision policies, through the batch API,
and for every setting of the compiled engine's two switches (batched
lockstep execution and the profile counters) and of the config
switches that select a site-step variant.
"""

import functools

import pytest

from repro.api import AnalysisSession, results_to_json
from repro.core import AnalysisConfig, analyze_program
from repro.fpcore import load_corpus


@functools.lru_cache(maxsize=None)
def corpus_json(engine: str, policy: str, points: int = 2, seed: int = 13):
    """The whole corpus's result JSON; each sweep runs once per module
    and every parity check that needs it compares the same text."""
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

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_full_corpus_adaptive_matches_fixed(self, engine):
        # The adaptive tiers (double-double pairs, the working tier,
        # escalation to the full tier) are invisible in the bytes: the
        # fixed policy, which runs none of them, is the oracle.
        assert corpus_json(engine, "adaptive") == \
            corpus_json(engine, "fixed")


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
            sorted(record.node_locations().items()),
        ))
    for spot in sorted(analysis.spot_records.values(), key=lambda s: s.site_id):
        rows.append((
            spot.site_id, spot.kind, spot.loc, spot.executions,
            spot.erroneous, spot.max_error, spot.sum_error,
            sorted(r.site_id for r in spot.influences),
        ))
    return rows


#: Reference-engine signatures by (program name, points, policy, plan).
#: The reference engine ignores ``batched`` and ``profile``, so every
#: parametrization of the layer-attribution test shares one analysis.
REFERENCE_SIGNATURES = {}


class TestLayerAttribution:
    """Every setting of the compiled engine's switches must match the
    reference engine exactly, under both precision policies.

    The plans add the config switches that select a site-step variant
    (``repro.core.analysis._SITE_STEP_TEMPLATE``) beside the policy and
    the profile: a generous op budget (the guarded variants) and
    compensation detection off.  Together with
    the chosen programs' unary, ``+``/``-`` and ``*`` sites they reach
    every (arity, flags) variant (``test_inputs_reach_every_variant``).
    """

    PLANS = {
        "default": {},
        "guarded": {"op_budget": 10 ** 12},
        "no-compensation": {"detect_compensation": False},
    }

    @staticmethod
    def chosen():
        from repro.fpcore.printer import format_fpcore

        corpus = load_corpus()
        return [c for c in corpus if "(while" in format_fpcore(c)][:2] \
            + corpus[:4]

    @pytest.mark.parametrize("profile", [False, True],
                             ids=["counters-off", "counters-on"])
    @pytest.mark.parametrize("batched", [False, True],
                             ids=["sequential", "batched"])
    @pytest.mark.parametrize("policy", ["fixed", "adaptive"])
    def test_each_stack_is_report_identical(self, policy, batched, profile):
        from repro.machine import compile_fpcore
        from repro.api.sampling import sample_inputs

        for plan, switches in self.PLANS.items():
            if batched and "op_budget" in switches:
                continue  # a budget turns batching off: the sequential leg
            reference = AnalysisConfig(
                engine="reference", precision_policy=policy, **switches
            )
            compiled = AnalysisConfig(
                engine="compiled", precision_policy=policy, batched=batched,
                **switches,
            )
            for core in self.chosen():
                program = compile_fpcore(core)
                points = sample_inputs(core, 3, seed=3)
                key = (core.name, tuple(map(tuple, points)), policy, plan)
                expected = REFERENCE_SIGNATURES.get(key)
                if expected is None:
                    base, __ = analyze_program(
                        program, points, config=reference
                    )
                    expected = REFERENCE_SIGNATURES[key] = \
                        analysis_signature(base)
                fast, __ = analyze_program(
                    program, points, config=compiled, profile=profile,
                )
                assert analysis_signature(fast) == expected, \
                    f"{core.name} diverged (batched={batched}, " \
                    f"profile={profile}, plan={plan})"
                if profile:
                    counters = fast.stage_counters
                    assert counters.fused_ops + counters.generic_ops > 0

    def test_inputs_reach_every_variant(self, monkeypatch):
        from repro.core import HerbgrindAnalysis
        from repro.core import analysis as analysis_mod
        from repro.machine import compile_fpcore
        from repro.machine.compiled import CompiledProgram

        selected = set()
        factory = analysis_mod._site_step_factory

        def recording(arity, **flags):
            selected.add((arity,) + tuple(
                flags[name] for name in analysis_mod._SITE_STEP_FLAGS
            ))
            return factory(arity, **flags)

        monkeypatch.setattr(analysis_mod, "_site_step_factory", recording)
        for policy in ("fixed", "adaptive"):
            for switches in self.PLANS.values():
                for profile in (False, True):
                    config = AnalysisConfig(precision_policy=policy,
                                            **switches)
                    for core in self.chosen():
                        CompiledProgram(
                            compile_fpcore(core),
                            tracer=HerbgrindAnalysis(config, profile=profile),
                        )
        # Only a binary + or - site can be compensating.
        every = {
            (arity, escalates, compensating, profile, guarded)
            for arity in (1, 2)
            for escalates in (False, True)
            for compensating in ((False, True) if arity == 2 else (False,))
            for profile in (False, True)
            for guarded in (False, True)
        }
        assert selected == every


class TestReferenceStack:
    def test_reference_engine_runs_no_fast_layer(self):
        # The oracle: no site-compiled callbacks, no batching, no memo
        # and only merge-only anti-unification walks — whatever
        # switches the caller passes.  It shares only the trace pool.
        from repro.api.sampling import sample_inputs
        from repro.core import HerbgrindAnalysis
        from repro.machine import isa
        from repro.machine.compiler import compile_fpcore

        config = AnalysisConfig(engine="reference", batched=True)
        analysis = HerbgrindAnalysis(config, profile=True)
        instr = isa.FloatOp("r", "+", ("a", "b"))
        assert not analysis._batched
        assert analysis.fused_site_callback(instr, "+", 2) is None
        assert analysis.fused_const_callback(isa.Const("c", 1.5)) is None
        assert analysis.fused_branch_callback(
            isa.Branch("lt", "a", "b", "L")
        ) is None
        # A loop over several points: the compiled engine would batch
        # it, replay memoized idents and take fast walks.
        core = next(
            core for core in load_corpus()
            if core.properties.get("herbgrind-family") == "loops"
        )
        analysed, __ = analyze_program(
            compile_fpcore(core), sample_inputs(core, 4, seed=13),
            config=config, profile=True,
        )
        counters = analysed.stage_counters
        assert analysed.batched_groups == 0
        assert analysed.memo_hits == 0
        assert analysed.tail_replays == 0
        assert counters.fused_ops == 0
        assert counters.antiunify_fast == 0
        assert counters.antiunify_merge == counters.generic_ops > 0


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
