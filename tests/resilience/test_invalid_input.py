"""Programs the analysis rejects fail once, with a structured error.

An unknown function, an unbound variable or an empty :pre range is
wrong at every rung of the degradation ladder, so retrying it down the
stack only multiplies the cost of the same failure.  Each is caught
before the ladder runs,
raise a non-degradable :class:`InvalidInputError` that names the
program, and reach a served client as HTTP 400 ``invalid_request``.
"""

from __future__ import annotations

import asyncio
import json
import logging

import pytest

import repro.api.session as session_module
from repro.api import AnalysisSession, EmptyRangeError, sample_inputs
from repro.api.session import _execute
from repro.core import AnalysisConfig
from repro.fpcore import parse_fpcore
from repro.machine import (
    UnboundVariableError,
    UnknownFunctionError,
    compile_fpcore,
)
from repro.resilience.errors import DegradableError, InvalidInputError
from repro.resilience.ladder import classify
from repro.serve.service import AnalysisService

FAST = AnalysisConfig(shadow_precision=96)
UNKNOWN = '(FPCore (x) :name "calls-foo" (+ 1 (foo x)))'
UNBOUND = '(FPCore (x) :name "free-z" (let ([a 1]) (+ a z)))'
EMPTY = '(FPCore (x y) :name "backwards" :pre (and (<= 0 y 1) (<= 5 x 1))' \
    ' (+ x y))'


@pytest.fixture
def counted(monkeypatch):
    """Counts compilations and backend runs made through the session."""
    counts = {"compile": 0, "run": 0}
    real_compile = session_module.compile_fpcore
    real_backend = session_module.get_backend

    def compile_once(core, *args, **kwargs):
        counts["compile"] += 1
        return real_compile(core, *args, **kwargs)

    def backend(name):
        inner = real_backend(name)

        class Counting:
            def run(self, *args, **kwargs):
                counts["run"] += 1
                return inner.run(*args, **kwargs)

        return Counting()

    monkeypatch.setattr(session_module, "compile_fpcore", compile_once)
    monkeypatch.setattr(session_module, "get_backend", backend)
    return counts


class TestUnknownFunction:
    def test_rejected_at_compile_time(self):
        with pytest.raises(UnknownFunctionError) as caught:
            compile_fpcore(parse_fpcore(UNKNOWN))
        error = caught.value
        assert (error.program, error.function) == ("calls-foo", "foo")
        assert "calls-foo" in str(error) and "'foo'" in str(error)
        assert isinstance(error, ValueError)
        assert isinstance(error, InvalidInputError)
        assert not isinstance(error, DegradableError)
        assert classify(error) is None

    def test_one_attempt_and_no_degradation(self, counted, caplog):
        session = AnalysisSession(config=FAST, num_points=2, degrade=True)
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            with pytest.raises(UnknownFunctionError):
                session.analyze(UNKNOWN)
        assert counted == {"compile": 1, "run": 0}
        assert not [r for r in caplog.records if "degrading" in r.message]

    def test_worker_path_fails_the_same_way(self, counted, caplog):
        request = AnalysisSession(config=FAST, num_points=2).request(UNKNOWN)
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            with pytest.raises(UnknownFunctionError):
                _execute(request, degrade=True)
        assert counted == {"compile": 1, "run": 0}
        assert not caplog.records

    def test_library_and_hardware_operations_still_compile(self):
        compile_fpcore(parse_fpcore(
            "(FPCore (x y) (+ (atan2 (fmax x y) (hypot x y)) (fma x y 1)))"
        ))


class TestUnboundVariable:
    def test_rejected_at_compile_time(self):
        with pytest.raises(UnboundVariableError) as caught:
            compile_fpcore(parse_fpcore(UNBOUND))
        error = caught.value
        assert (error.program, error.variable) == ("free-z", "z")
        assert str(error) == "free-z: unbound variable z"
        assert isinstance(error, ValueError)
        assert isinstance(error, InvalidInputError)
        assert classify(error) is None

    def test_worker_path_fails_once(self, counted, caplog):
        request = AnalysisSession(config=FAST, num_points=2).request(UNBOUND)
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            with pytest.raises(UnboundVariableError):
                _execute(request, degrade=True)
        assert counted == {"compile": 1, "run": 0}
        assert not caplog.records

    def test_served_request_gets_400_invalid_request(self):
        payload = {"core": UNBOUND, "num_points": 2,
                   "config": {"shadow_precision": 96}}

        async def scenario():
            service = AnalysisService(workers=1)
            try:
                outcome = await service.analyze_payload(payload)
                return outcome, service.stats()
            finally:
                await service.close()

        outcome, stats = asyncio.run(scenario())
        assert outcome.status == 400
        error = json.loads(outcome.body)["error"]
        assert error["type"] == "invalid_request"
        assert error["message"] == \
            "UnboundVariableError: free-z: unbound variable z"
        assert stats["service"]["analysis_errors"] == 0
        assert stats["service"]["degraded"] == 0


class TestEmptyPreRange:
    def test_error_names_program_and_variable(self):
        with pytest.raises(EmptyRangeError) as caught:
            sample_inputs(parse_fpcore(EMPTY), 4)
        error = caught.value
        assert (error.program, error.variable) == ("backwards", "x")
        assert (error.low, error.high) == (5.0, 1.0)
        assert "backwards" in str(error) and "'x'" in str(error)
        assert isinstance(error, InvalidInputError)
        assert classify(error) is None

    def test_session_fails_before_running(self, counted):
        session = AnalysisSession(config=FAST, num_points=2)
        with pytest.raises(EmptyRangeError):
            session.analyze(EMPTY)
        assert counted["run"] == 0

    def test_explicit_points_skip_sampling(self):
        # The range only matters to the sampler: given points, the
        # program analyses as before.
        session = AnalysisSession(config=FAST)
        result = session.analyze(EMPTY, points=[[0.5, 0.5]])
        assert result.to_json()


def test_served_requests_get_400_invalid_request():
    payloads = [
        {"core": UNKNOWN, "num_points": 2,
         "config": {"shadow_precision": 96}},
        {"core": EMPTY, "num_points": 2,
         "config": {"shadow_precision": 96}},
    ]

    async def scenario():
        service = AnalysisService(workers=1)
        try:
            single = [await service.analyze_payload(p) for p in payloads]
            batch = await service.analyze_batch_payload(
                {"requests": payloads}
            )
            return single, batch, service.stats()
        finally:
            await service.close()

    single, batch, stats = asyncio.run(scenario())
    for outcome, name in zip(single, ("calls-foo", "backwards")):
        assert outcome.status == 400
        error = json.loads(outcome.body)["error"]
        assert error["type"] == "invalid_request"
        assert name in error["message"]
        assert error["digest"] == outcome.digest
    assert batch.status == 207
    entries = json.loads(batch.body)["results"]
    assert [e["error"]["type"] for e in entries] == ["invalid_request"] * 2
    assert stats["service"]["analysis_errors"] == 0
    assert stats["service"]["invalid"] == 4
