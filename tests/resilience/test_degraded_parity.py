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
from repro.fpcore import corpus_by_name, load_corpus
from repro.machine.interpreter import MachineError
from repro.resilience import faults, ladder
from repro.resilience.errors import (
    AnalysisDeadlineExceeded,
    EngineFault,
    OpBudgetExceeded,
)
from repro.resilience.ladder import (
    RUNG_PYTHON_SUBSTRATE,
    RUNG_REFERENCE,
    RUNG_SEQUENTIAL,
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


def _count_attempts(monkeypatch):
    """The engine of every analysis the backend runs, in order."""
    from repro.core import analysis as analysis_mod

    attempts = []
    analyze = analysis_mod.analyze_program

    def counting(*args, **kwargs):
        attempts.append(kwargs["config"].engine)
        return analyze(*args, **kwargs)

    monkeypatch.setattr(analysis_mod, "analyze_program", counting)
    return attempts


class TestResourceGuards:
    def test_op_budget_propagates_after_one_attempt(self, monkeypatch):
        # Every rung analyses the same operations, so the ladder must
        # not retry a spent op budget: one analysis, then the raise.
        attempts = _count_attempts(monkeypatch)
        session = AnalysisSession(
            config=AnalysisConfig(op_budget=1), num_points=2,
            result_cache_size=0,
        )
        with pytest.raises(OpBudgetExceeded):
            session.analyze(load_corpus()[0])
        assert attempts == ["compiled"]

    def test_spent_deadline_propagates_after_one_attempt(self, monkeypatch):
        # Every rung below is slower, so a retry would only spend the
        # deadline again.
        attempts = _count_attempts(monkeypatch)
        before = ladder.degradations()
        session = AnalysisSession(
            config=AnalysisConfig(precision_policy="adaptive",
                                  deadline_seconds=1e-9),
            num_points=8, result_cache_size=0,
        )
        with pytest.raises(AnalysisDeadlineExceeded):
            session.analyze(corpus_by_name()["loop-tenth-accumulate"])
        assert attempts == ["compiled"]
        assert ladder.degradations() == before

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


class TestMachineErrors:
    def test_machine_error_propagates_after_one_attempt(self, monkeypatch):
        # Points one value short of the program's two arguments, run
        # past request validation: the machine reads past the end of
        # its inputs on every rung alike, so no rung is tried.
        from repro.api.session import _run_request
        from repro.machine import compile_fpcore

        attempts = _count_attempts(monkeypatch)
        before = ladder.degradations()
        request = AnalysisSession(
            config=AnalysisConfig(precision_policy="adaptive"),
            num_points=2,
        ).request("(FPCore (x y) (- (+ x y) x))")
        with pytest.raises(MachineError, match="past the end"):
            _run_request(request, compile_fpcore(request.core),
                         [[1.0], [2.0]], degrade=True)
        assert attempts == ["compiled"]
        assert ladder.degradations() == before


class TestNoDegradeSwitch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_degrade_raises_under_any_worker_count(self, workers):
        # The session's switch travels with each batch worker's
        # payload: a pool worker must raise what the session raises
        # in-process, not degrade it.
        session = AnalysisSession(
            config=AnalysisConfig(engine="compiled"), num_points=2,
            result_cache_size=0, degrade=False,
        )
        with faults.injected("engine.compiled.raise"):
            with pytest.raises(EngineFault) as raised:
                session.analyze_batch(load_corpus()[:3], workers=workers)
        assert raised.value.seam == "engine.compiled.raise"
