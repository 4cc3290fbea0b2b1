"""The degradation ladder: classification, rung planning, and the
retry driver — unit-level, with stub executors."""

import pytest

from repro.api import AnalysisSession, request_digest
from repro.bigfloat import backend as backend_mod
from repro.bigfloat.functions import DOUBLE_HANDLERS
from repro.core import AnalysisConfig
from repro.machine.interpreter import MachineError
from repro.resilience.errors import (
    AnalysisDeadlineExceeded,
    EngineFault,
    KernelFault,
    OpBudgetExceeded,
)
from repro.resilience.ladder import (
    RUNG_FIXED_POLICY,
    RUNG_PYTHON_SUBSTRATE,
    RUNG_REFERENCE,
    RUNG_SEQUENTIAL,
    RUNG_WORKING_TIER,
    DegradationLadder,
    classify,
    degradation_enabled,
    run_with_ladder,
)

CORE = "(FPCore (x) :name \"t\" :pre (<= 1 x 2) (+ x 1))"


@pytest.fixture(autouse=True)
def _engine_defaults(monkeypatch):
    """Plan from the engine defaults: whether the sequential and
    working-tier rungs exist depends on ``REPRO_BATCHED`` and
    ``REPRO_HWTIER``, which a test leg may set."""
    monkeypatch.delenv("REPRO_BATCHED", raising=False)
    monkeypatch.delenv("REPRO_HWTIER", raising=False)


class _StubProvider:
    """A native provider that overrides no kernel: all the planner asks
    is what ``native`` resolves to."""

    name = "mpmath"
    kernels = {}
    roundings = frozenset()
    double_fma = staticmethod(DOUBLE_HANDLERS["fma"])


@pytest.fixture(autouse=True)
def _native_library(monkeypatch):
    """Plan as on a host with a native library, whichever this host
    has: the python-substrate rung exists only when ``native`` resolves
    to something other than the python kernels."""
    monkeypatch.setattr(backend_mod, "_BACKENDS", {})
    monkeypatch.setattr(backend_mod, "_load_provider", _StubProvider)


def _request(**config_fields):
    config = AnalysisConfig(shadow_precision=96, **config_fields)
    return AnalysisSession(config=config, num_points=2).request(CORE)


class TestClassify:
    def test_degradable_errors(self):
        assert classify(KernelFault("k")) == "KernelFault"
        assert classify(EngineFault("e")) == "EngineFault"
        assert classify(AnalysisDeadlineExceeded("d")) == \
            "AnalysisDeadlineExceeded"
        assert classify(MachineError("m")) == "MachineError"

    def test_op_budget_is_not_degradable(self):
        # Every rung analyses the same operations, so a retry would
        # exhaust the budget again.
        assert classify(OpBudgetExceeded("b")) is None

    def test_foreign_errors_are_not_ours(self):
        assert classify(ValueError("v")) is None
        assert classify(KeyboardInterrupt()) is None


class TestPlanning:
    def test_full_ladder_from_the_top(self):
        request = _request(engine="compiled", substrate="native",
                           precision_policy="adaptive")
        plan = DegradationLadder(enabled=True).plan(request)
        names = [name for name, _ in plan]
        assert names == [RUNG_WORKING_TIER, RUNG_SEQUENTIAL,
                         RUNG_REFERENCE, RUNG_PYTHON_SUBSTRATE,
                         RUNG_FIXED_POLICY]
        bottom = plan[-1][1]
        assert bottom.config.engine == "reference"
        assert bottom.config.substrate == "python"
        assert bottom.config.precision_policy == "fixed"
        assert bottom.config.hw_tier is False

    def test_rungs_are_cumulative(self):
        request = _request(engine="compiled", substrate="native")
        plan = dict(DegradationLadder(enabled=True).plan(request))
        assert plan[RUNG_PYTHON_SUBSTRATE].config.engine == "reference"

    def test_working_tier_rung_only_disables_hw_tier(self):
        request = _request(engine="compiled",
                           precision_policy="adaptive")
        plan = dict(DegradationLadder(enabled=True).plan(request))
        working = plan[RUNG_WORKING_TIER]
        assert working.config.hw_tier is False
        assert working.config == request.config.with_(hw_tier=False)
        # Every rung below it keeps the hardware tier off (cumulative).
        assert plan[RUNG_SEQUENTIAL].config.hw_tier is False
        assert plan[RUNG_REFERENCE].config.hw_tier is False

    def test_fixed_policy_has_no_working_tier_rung(self):
        request = _request(engine="compiled")
        plan = dict(DegradationLadder(enabled=True).plan(request))
        assert RUNG_WORKING_TIER not in plan

    def test_hw_tier_off_skips_the_working_tier_rung(self):
        request = _request(engine="compiled",
                           precision_policy="adaptive", hw_tier=False)
        plan = dict(DegradationLadder(enabled=True).plan(request))
        assert RUNG_WORKING_TIER not in plan

    def test_sequential_rung_only_disables_batching(self):
        request = _request(engine="compiled")
        plan = dict(DegradationLadder(enabled=True).plan(request))
        sequential = plan[RUNG_SEQUENTIAL]
        assert sequential.config == request.config.with_(batched=False)

    def test_engine_rungs_keep_batching_off(self):
        # Rungs are config changes, cumulative like every other one;
        # the reference engine never batches either way.
        request = _request(engine="compiled", substrate="native")
        plan = dict(DegradationLadder(enabled=True).plan(request))
        assert plan[RUNG_REFERENCE].config.batched is False
        assert plan[RUNG_PYTHON_SUBSTRATE].config.batched is False

    def test_batching_off_skips_the_sequential_rung(self):
        request = _request(engine="compiled", batched=False)
        plan = dict(DegradationLadder(enabled=True).plan(request))
        assert list(plan) == [RUNG_REFERENCE, RUNG_PYTHON_SUBSTRATE]

    def test_native_without_a_library_has_no_python_substrate_rung(
        self, monkeypatch
    ):
        # There "native" runs the python kernels, so the rung would
        # retry the very plan that failed.
        monkeypatch.setattr(backend_mod, "_load_provider", lambda: None)
        request = _request(precision_policy="adaptive")
        assert request.config.substrate == "native"
        plan = dict(DegradationLadder(enabled=True).plan(request))
        assert list(plan) == [RUNG_WORKING_TIER, RUNG_SEQUENTIAL,
                              RUNG_REFERENCE, RUNG_FIXED_POLICY]
        assert plan[RUNG_FIXED_POLICY].config.substrate == "native"

    def test_bottom_configuration_has_no_ladder(self):
        request = _request(engine="reference", substrate="python",
                           precision_policy="fixed")
        assert DegradationLadder(enabled=True).plan(request) == []

    def test_requests_keep_identity_fields(self):
        request = _request(engine="compiled", substrate="native")
        for _, degraded in DegradationLadder(enabled=True).plan(request):
            assert degraded.name == request.name
            assert degraded.seed == request.seed
            assert degraded.num_points == request.num_points

    def test_every_rung_keeps_the_digest(self):
        # A rung changes only the execution plan, which the digest
        # leaves out: a degraded result answers the original request.
        request = _request(engine="compiled", substrate="native",
                           precision_policy="adaptive")
        plan = DegradationLadder(enabled=True).plan(request)
        assert len(plan) == 5
        for _, degraded in plan:
            assert request_digest(degraded) == request_digest(request)


class _Recorder:
    """An executor stub that fails per-script and records the configs."""

    def __init__(self, failures):
        self.failures = dict(failures)
        self.calls = []

    def __call__(self, request):
        key = self._key(request)
        self.calls.append(key)
        exc = self.failures.get(key)
        if exc is not None:
            raise exc
        from repro.api.results import AnalysisResult

        return AnalysisResult(benchmark="stub", backend="stub",
                              seed=0, num_points=1)

    @staticmethod
    def _key(request):
        config = request.config
        if config.engine == "compiled":
            if config.batched is False:
                return RUNG_SEQUENTIAL
            if config.hw_tier is False:
                return RUNG_WORKING_TIER
            return "initial"
        if config.substrate != "python":
            return RUNG_REFERENCE
        if config.precision_policy != "fixed":
            return RUNG_PYTHON_SUBSTRATE
        return RUNG_FIXED_POLICY


class TestDriver:
    def test_success_needs_no_ladder(self):
        execute = _Recorder({})
        result = run_with_ladder(_request(engine="compiled"), execute,
                                 enabled=True)
        assert execute.calls == ["initial"]
        assert "degradation" not in result.extra

    def test_walks_down_until_success(self):
        request = _request(engine="compiled", substrate="native",
                           precision_policy="adaptive")
        execute = _Recorder({
            "initial": EngineFault("boom"),
            RUNG_WORKING_TIER: EngineFault("hw boom"),
            RUNG_SEQUENTIAL: EngineFault("still boom"),
            RUNG_REFERENCE: KernelFault("kernel boom"),
        })
        result = run_with_ladder(request, execute, enabled=True)
        record = result.extra["degradation"]
        assert record["degraded"] is True
        assert record["rung"] == RUNG_PYTHON_SUBSTRATE
        assert [a["rung"] for a in record["attempts"]] == \
            ["initial", RUNG_WORKING_TIER, RUNG_SEQUENTIAL,
             RUNG_REFERENCE]
        assert record["attempts"][3]["error"]["kind"] == "KernelFault"

    def test_non_degradable_error_propagates_immediately(self):
        execute = _Recorder({"initial": ValueError("not ours")})
        with pytest.raises(ValueError):
            run_with_ladder(_request(engine="compiled"), execute,
                            enabled=True)
        assert execute.calls == ["initial"]

    def test_spent_deadline_degrades(self):
        # A deadline depends on wall-clock time, so unlike the op
        # budget it is retried on the next rung.
        execute = _Recorder({"initial": AnalysisDeadlineExceeded("late")})
        result = run_with_ladder(_request(engine="compiled"), execute,
                                 enabled=True)
        assert execute.calls == ["initial", RUNG_SEQUENTIAL]
        assert result.extra["degradation"]["rung"] == RUNG_SEQUENTIAL

    def test_op_budget_propagates_after_one_attempt(self):
        request = _request(engine="compiled", substrate="native",
                           precision_policy="adaptive")
        execute = _Recorder({"initial": OpBudgetExceeded("spent")})
        with pytest.raises(OpBudgetExceeded):
            run_with_ladder(request, execute, enabled=True)
        assert execute.calls == ["initial"]

    def test_dry_ladder_reraises_last_failure(self):
        request = _request(engine="compiled", substrate="native",
                           precision_policy="adaptive")
        execute = _Recorder({
            "initial": EngineFault("a"),
            RUNG_WORKING_TIER: EngineFault("a2"),
            RUNG_SEQUENTIAL: EngineFault("b"),
            RUNG_REFERENCE: EngineFault("c"),
            RUNG_PYTHON_SUBSTRATE: EngineFault("d"),
            RUNG_FIXED_POLICY: EngineFault("e"),
        })
        with pytest.raises(EngineFault, match="e"):
            run_with_ladder(request, execute, enabled=True)
        assert execute.calls == ["initial", RUNG_WORKING_TIER,
                                 RUNG_SEQUENTIAL, RUNG_REFERENCE,
                                 RUNG_PYTHON_SUBSTRATE,
                                 RUNG_FIXED_POLICY]

    def test_disabled_ladder_propagates_first_failure(self):
        execute = _Recorder({"initial": EngineFault("boom")})
        with pytest.raises(EngineFault):
            run_with_ladder(_request(engine="compiled"), execute,
                            enabled=False)
        assert execute.calls == ["initial"]


class TestSwitch:
    def test_explicit_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEGRADE", "0")
        assert degradation_enabled(True) is True
        assert degradation_enabled(None) is False

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("", True), ("0", False), ("false", False),
        ("OFF", False), ("yes", True),
    ])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_DEGRADE", value)
        assert degradation_enabled(None) is expected

    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEGRADE", raising=False)
        assert degradation_enabled(None) is True
