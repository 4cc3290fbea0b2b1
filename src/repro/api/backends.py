"""Pluggable analysis backends behind one uniform interface.

A backend turns (compiled program, input points, request) into an
:class:`~repro.api.results.AnalysisResult`.  Four ship by default:

* ``herbgrind`` — the paper's shadow-real root-cause analysis,
* ``fpdebug``  — per-op total-error measurement (Benz et al. 2012),
* ``verrou``   — Monte-Carlo-arithmetic output stability (Févotte &
  Lathuilière 2016),
* ``bz``       — cancellation taint to discrete factors (Bao & Zhang
  2013).

All four run on identical compiled programs and input sets, which is
what makes Table-1-style comparisons meaningful.  Third parties add
backends with :func:`register_backend`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

from repro.api.requests import AnalysisRequest
from repro.api.results import (
    AnalysisResult,
    ErrorStats,
    RootCauseResult,
    SpotResult,
)
from repro.machine import isa

InputSets = Sequence[Sequence[float]]


class AnalysisBackend:
    """Interface every analysis backend implements."""

    #: Registry key; subclasses override.
    name = "abstract"

    def run(
        self,
        program: isa.Program,
        points: InputSets,
        request: AnalysisRequest,
    ) -> AnalysisResult:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[[], AnalysisBackend]] = {}


def register_backend(
    name: str, factory: Callable[[], AnalysisBackend]
) -> None:
    """Register (or replace) a backend under ``name``."""
    _REGISTRY[name] = factory


def get_backend(name: str) -> AnalysisBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise KeyError(f"unknown backend {name!r} (known: {known})")
    return factory()


def available_backends() -> List[str]:
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Herbgrind (the paper's analysis)
# ----------------------------------------------------------------------


class HerbgrindBackend(AnalysisBackend):
    """The shadow-real root-cause analysis of the source paper."""

    name = "herbgrind"

    def run(self, program, points, request):
        import dataclasses

        from repro.core.analysis import EngineFeatures, analyze_program
        from repro.core.report import root_cause_report
        from repro.resilience import faults as _faults
        from repro.resilience.errors import EngineFault

        if _faults.active() and request.config.engine == "compiled":
            # Chaos seam for whole-suite fault legs: every call into
            # this method is ladder-wrapped (repro.api.session), and
            # gating on the compiled engine guarantees the ladder's
            # reference rung converges.
            _faults.trip("backend.flaky", EngineFault)
        # The engine's default layer stack — including lockstep
        # batching when the compiled engine is selected (overridable
        # via REPRO_BATCHED=0).  Results are contractually identical
        # across every stack; the layers only change the cost.
        # ``request.features`` (internal — the degradation ladder's
        # sequential rung) overrides the default stack.
        features = request.features
        if request.profile:
            # Same engine layers, plus the per-stage attribution
            # counters (results are unchanged; only extra[] grows).
            features = dataclasses.replace(
                features if features is not None
                else EngineFeatures.for_engine(request.config.engine),
                profile=True,
            )
        analysis, __ = analyze_program(
            program,
            points,
            config=request.config,
            wrap_libraries=request.wrap_libraries,
            libm=request.libm,
            features=features,
        )
        causes = []
        for record in analysis.candidate_records():
            report = root_cause_report(record)
            causes.append(
                RootCauseResult(
                    site_id=record.site_id,
                    op=record.op,
                    loc=record.loc,
                    expression=(
                        None
                        if report.expression is None
                        else _expr_text(report.expression)
                    ),
                    variables=list(report.variables),
                    precondition_clauses=list(report.precondition_clauses),
                    problematic_clauses=list(report.problematic_clauses),
                    example_problematic=report.example_problematic,
                    compensations_detected=record.compensations_detected,
                    local_error=ErrorStats(
                        executions=record.executions,
                        erroneous=record.candidate_executions,
                        max_bits=record.max_local_error,
                        average_bits=record.average_local_error,
                    ),
                )
            )
        spots = []
        for spot in sorted(
            analysis.spot_records.values(), key=lambda s: s.site_id
        ):
            spots.append(
                SpotResult(
                    site_id=spot.site_id,
                    kind=spot.kind,
                    loc=spot.loc,
                    error=ErrorStats(
                        executions=spot.executions,
                        erroneous=spot.erroneous,
                        max_bits=spot.max_error,
                        average_bits=spot.average_error,
                    ),
                    root_cause_sites=sorted(
                        record.site_id for record in spot.influences
                    ),
                )
            )
        extra = {"runs": analysis.runs}
        # Process-local (stripped by to_dict, like "degradation"): which
        # precision tier shadow ops ran at and why escalations fired —
        # surfaced by --profile and aggregated into /v1/stats.
        extra["tier_residency"] = analysis.tier_residency()
        if request.profile:
            profile = analysis.stage_counters.to_dict()
            profile["kernel_cache_hits"] = analysis.kernel_cache_hits
            profile["kernel_cache_misses"] = analysis.kernel_cache_misses
            profile["tier_residency"] = analysis.tier_residency()
            extra["pipeline_profile"] = profile
        return AnalysisResult(
            benchmark=request.name,
            backend=self.name,
            seed=request.seed,
            num_points=request.num_points,
            max_output_error=analysis.max_output_error(),
            root_causes=causes,
            spots=spots,
            extra=extra,
            raw=analysis,
        )


def _expr_text(expression) -> str:
    from repro.fpcore.printer import format_expr

    return format_expr(expression)


# ----------------------------------------------------------------------
# FpDebug baseline
# ----------------------------------------------------------------------


class FpDebugBackend(AnalysisBackend):
    """Per-operation total-error measurement, FpDebug style."""

    name = "fpdebug"

    def run(self, program, points, request):
        from repro.comparisons.fpdebug import run_fpdebug

        analysis = run_fpdebug(
            program, points, precision=min(request.config.shadow_precision, 256)
        )
        threshold = request.config.local_error_threshold
        causes = []
        records = sorted(
            analysis.records.values(),
            key=lambda r: (-r.max_error, r.loc or ""),
        )
        for index, record in enumerate(records):
            if record.max_error <= threshold:
                continue
            causes.append(
                RootCauseResult(
                    site_id=index + 1,
                    op=record.op,
                    loc=record.loc,
                    expression=None,
                    local_error=ErrorStats(
                        executions=record.executions,
                        erroneous=record.executions,
                        max_bits=record.max_error,
                        average_bits=record.average_error,
                    ),
                )
            )
        return AnalysisResult(
            benchmark=request.name,
            backend=self.name,
            seed=request.seed,
            num_points=request.num_points,
            max_output_error=max(
                (r.max_error for r in analysis.records.values()), default=0.0
            ),
            root_causes=causes,
            extra={"flagged_operations": len(causes)},
            raw=analysis,
        )


# ----------------------------------------------------------------------
# Verrou baseline
# ----------------------------------------------------------------------

#: Stable decimal digits below which an output counts as unstable.
VERROU_DIGIT_THRESHOLD = 5.0

#: Random-rounding re-executions per input point.
VERROU_RUNS = 8


class VerrouBackend(AnalysisBackend):
    """Output stability under random rounding (no localization)."""

    name = "verrou"

    def run(self, program, points, request):
        from repro.comparisons.verrou import run_verrou

        spots: List[SpotResult] = []
        wobble_sums: List[float] = []
        worst = 0.0
        digit_table = []
        for point in points:
            report = run_verrou(
                program, point, runs=VERROU_RUNS, seed=request.seed
            )
            for index in range(len(report.means)):
                digits = report.significant_digits(index)
                wobble_bits = max(0.0, (17.0 - digits) * math.log2(10.0))
                worst = max(worst, wobble_bits)
                while len(spots) <= index:
                    spots.append(
                        SpotResult(
                            site_id=len(spots) + 1, kind="output", loc=None
                        )
                    )
                    wobble_sums.append(0.0)
                spots[index].error.executions += 1
                spots[index].error.max_bits = max(
                    spots[index].error.max_bits, wobble_bits
                )
                wobble_sums[index] += wobble_bits
                if digits < VERROU_DIGIT_THRESHOLD:
                    spots[index].error.erroneous += 1
                digit_table.append(round(digits, 3))
        for spot, total in zip(spots, wobble_sums):
            if spot.error.executions:
                spot.error.average_bits = total / spot.error.executions
        return AnalysisResult(
            benchmark=request.name,
            backend=self.name,
            seed=request.seed,
            num_points=request.num_points,
            max_output_error=worst,
            spots=spots,
            extra={"significant_digits": digit_table, "runs": VERROU_RUNS},
        )


# ----------------------------------------------------------------------
# Bao-Zhang baseline
# ----------------------------------------------------------------------


class BZBackend(AnalysisBackend):
    """Cancellation taint reaching discrete factors (cheap filter)."""

    name = "bz"

    def run(self, program, points, request):
        from repro.comparisons.bz import run_bz

        analysis = run_bz(program, points)
        spots = []
        reports = sorted(
            analysis.factor_reports.values(),
            key=lambda r: (-r.hits, r.kind, r.loc or ""),
        )
        for index, report in enumerate(reports):
            spots.append(
                SpotResult(
                    site_id=index + 1,
                    kind=report.kind,
                    loc=report.loc,
                    error=ErrorStats(
                        executions=report.hits, erroneous=report.hits
                    ),
                )
            )
        return AnalysisResult(
            benchmark=request.name,
            backend=self.name,
            seed=request.seed,
            num_points=request.num_points,
            spots=spots,
            extra={
                "cancellations": analysis.cancellations,
                "suspect_ops": len(analysis.suspect_ops),
            },
            raw=analysis,
        )


register_backend(HerbgrindBackend.name, HerbgrindBackend)
register_backend(FpDebugBackend.name, FpDebugBackend)
register_backend(VerrouBackend.name, VerrouBackend)
register_backend(BZBackend.name, BZBackend)
