"""Degraded-vs-clean byte identity: every result the ladder rescues
must serialize to exactly the bytes of the fault-free run.

This is the chaos suite's headline guarantee, and it is what makes the
ladder *sound*: the standing parity invariant (engine × policy ×
substrate × batched, pinned by ``tests/core/test_engine_parity.py`` and
friends) means a slower rung is the same analysis, so degrading can
never change an answer — only its cost.
"""

import pytest

from repro.api import AnalysisSession, results_to_json
from repro.bigfloat import substrate_provider
from repro.core import AnalysisConfig
from repro.fpcore import load_corpus
from repro.resilience import faults
from repro.resilience.errors import OpBudgetExceeded
from repro.resilience.ladder import (
    RUNG_PYTHON_SUBSTRATE,
    RUNG_REFERENCE,
    RUNG_SEQUENTIAL,
    RUNG_WORKING_TIER,
)

#: A cross-family slice of the corpus — enough shapes to exercise the
#: trace pool, anti-unification, and the batched layer, small enough
#: for a chaos test.
CORPUS_SLICE = slice(0, 8)


def _corpus_json(points=2, seed=13, degrade=None, **config_fields):
    config = AnalysisConfig(**config_fields)
    session = AnalysisSession(
        config=config, num_points=points, seed=seed,
        result_cache_size=0, degrade=degrade,
    )
    cores = load_corpus()[CORPUS_SLICE]
    results = session.analyze_batch(cores, workers=1)
    return results_to_json(results), results


class TestEngineFaultParity:
    @pytest.fixture(autouse=True)
    def _default_batching(self, monkeypatch):
        """Both tests walk the ladder through the sequential rung, which
        exists only while batching is on; a test leg may switch it off
        with ``REPRO_BATCHED``."""
        monkeypatch.delenv("REPRO_BATCHED", raising=False)

    def test_compiled_engine_fault_converges_byte_identical(self):
        clean, __ = _corpus_json(engine="compiled")
        with faults.injected("engine.compiled.raise"):
            degraded, results = _corpus_json(engine="compiled")
        assert degraded == clean
        for result in results:
            record = result.extra["degradation"]
            assert record["rung"] == RUNG_REFERENCE
            assert [a["rung"] for a in record["attempts"]] == \
                ["initial", RUNG_SEQUENTIAL]

    def test_batched_fault_lands_on_sequential_rung(self):
        clean, __ = _corpus_json(points=4, engine="compiled")
        with faults.injected("engine.batched.raise"):
            degraded, results = _corpus_json(points=4, engine="compiled")
        assert degraded == clean
        for result in results:
            assert result.extra["degradation"]["rung"] == RUNG_SEQUENTIAL


class TestKernelFaultParity:
    def test_native_kernel_fault_falls_back_to_python(self):
        clean, __ = _corpus_json(engine="compiled", substrate="native")
        with faults.injected("kernel.native.raise"):
            degraded, results = _corpus_json(
                engine="compiled", substrate="native"
            )
        assert degraded == clean
        # Without a native library "native" runs the python kernels,
        # which this seam does not fail: nothing degrades.
        expected = RUNG_PYTHON_SUBSTRATE \
            if substrate_provider("native") != "python" else None
        for result in results:
            assert result.extra.get("degradation", {}).get("rung") == \
                expected


class TestPolicyFaultParity:
    @pytest.fixture(autouse=True)
    def _default_hw_tier(self, monkeypatch):
        """The working-tier rung exists only while the hardware tier is
        on; a test leg may switch it off with ``REPRO_HWTIER``."""
        monkeypatch.delenv("REPRO_HWTIER", raising=False)

    def test_hw_tier_fault_lands_on_working_tier_rung(self):
        clean, __ = _corpus_json(
            engine="compiled", precision_policy="adaptive"
        )
        with faults.injected("policy.hwtier.raise"):
            degraded, results = _corpus_json(
                engine="compiled", precision_policy="adaptive"
            )
        assert degraded == clean
        # The seam trips at analysis setup whenever the hardware tier
        # is armed, so every benchmark degrades — and each one must
        # stop at the first rung: BigFloat working-tier shadows with
        # the rest of the stack (batching, engine, substrate) intact.
        for result in results:
            record = result.extra["degradation"]
            assert record["rung"] == RUNG_WORKING_TIER
            assert [a["rung"] for a in record["attempts"]] == ["initial"]

    def test_adaptive_fault_falls_back_to_fixed_policy(self):
        clean, __ = _corpus_json(
            engine="compiled", precision_policy="adaptive"
        )
        with faults.injected("policy.adaptive.raise"):
            degraded, results = _corpus_json(
                engine="compiled", precision_policy="adaptive"
            )
        assert degraded == clean
        degraded_rungs = {
            result.extra["degradation"]["rung"]
            for result in results if "degradation" in result.extra
        }
        # Only benchmarks whose analysis escalates trip the seam; each
        # one must converge at the fixed-policy rung.
        assert degraded_rungs == {"fixed-policy"}


class TestProbabilisticFaultParity:
    def test_flaky_backend_is_invisible_in_the_bytes(self):
        clean, __ = _corpus_json(engine="compiled")
        with faults.injected("backend.flaky:p=0.5,seed=11"):
            degraded, __ = _corpus_json(engine="compiled")
            assert faults.fired("backend.flaky") > 0
        assert degraded == clean


class TestSerializationContract:
    def test_degradation_never_reaches_the_json(self):
        with faults.injected("engine.compiled.raise"):
            text, results = _corpus_json(engine="compiled")
        assert "degradation" not in text
        assert all("degradation" in r.extra for r in results)


class TestResourceGuards:
    def test_op_budget_propagates_after_one_attempt(self, monkeypatch):
        # Every rung analyses the same operations, so the ladder must
        # not retry a spent op budget: one analysis, then the raise.
        from repro.core import analysis as analysis_mod

        attempts = []
        analyze = analysis_mod.analyze_program

        def counting(*args, **kwargs):
            attempts.append(kwargs["config"].engine)
            return analyze(*args, **kwargs)

        monkeypatch.setattr(analysis_mod, "analyze_program", counting)
        session = AnalysisSession(
            config=AnalysisConfig(op_budget=1), num_points=2,
            result_cache_size=0,
        )
        with pytest.raises(OpBudgetExceeded):
            session.analyze(load_corpus()[0])
        assert attempts == ["compiled"]

    def test_generous_guard_is_invisible_in_the_bytes(self):
        clean, __ = _corpus_json(engine="compiled")
        guarded_session = AnalysisSession(
            config=AnalysisConfig(
                engine="compiled", deadline_seconds=3600.0,
                op_budget=10**12,
            ),
            num_points=2, seed=13, result_cache_size=0,
        )
        guarded = results_to_json(guarded_session.analyze_batch(
            load_corpus()[CORPUS_SLICE], workers=1
        ))
        assert guarded == clean

    def test_no_degrade_propagates_guard_violation(self):
        session = AnalysisSession(
            config=AnalysisConfig(op_budget=1), num_points=2,
            result_cache_size=0, degrade=False,
        )
        with pytest.raises(OpBudgetExceeded):
            session.analyze(load_corpus()[0])
