"""The Section 8.1 methodology, end to end.

Per benchmark: compile to the machine, run under the analysis on
sampled inputs, collect the candidate root causes, and feed each
extracted expression (with its *observed* input characteristics as the
sampling region) to the mini-Herbie.  A benchmark counts as a
Herbgrind success when some reported root cause is improvable.

The input-characteristics configuration determines how the improver's
sample points are drawn (Figure 5b):

* ``sign_split`` / ``range`` — sample inside the recorded ranges,
* ``representative`` — jitter around the single example input,
* ``none`` — fall back to a blind default box.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.api.sampling import sample_range
from repro.api.session import AnalysisSession
from repro.core import AnalysisConfig
from repro.core.config import (
    CHARACTERISTICS_NONE,
    CHARACTERISTICS_RANGE,
    CHARACTERISTICS_REPRESENTATIVE,
    CHARACTERISTICS_SIGN_SPLIT,
)
from repro.core.inputs import (
    NoSummary,
    RangeSummary,
    RepresentativeInput,
    SignSplitRangeSummary,
)
from repro.core.records import OpRecord
from repro.eval.oracle import OracleVerdict, oracle_judge
from repro.fpcore.ast import FPCore, free_variables
from repro.improve import ImprovementResult, SearchSettings, improve_expression

logger = logging.getLogger("repro.eval.pipeline")

#: Blind sampling box used when characteristics are unavailable.
DEFAULT_RANGE = (-1e9, 1e9)


def _summary_range(summary) -> Optional[Tuple[float, float]]:
    if isinstance(summary, SignSplitRangeSummary):
        clauses_lo = []
        low = math.inf
        high = -math.inf
        if summary.negative.count:
            low = min(low, summary.negative.low)
            high = max(high, summary.negative.high)
        if summary.nonnegative.count:
            low = min(low, summary.nonnegative.low)
            high = max(high, summary.nonnegative.high)
        if low <= high:
            return (low, high)
        return None
    if isinstance(summary, RangeSummary):
        if summary.count:
            return (summary.low, summary.high)
        return None
    return None


def sample_points_for_record(
    record: OpRecord,
    count: int = 16,
    seed: int = 0,
) -> Tuple[List[str], List[List[float]]]:
    """Sample improver inputs for one extracted root cause.

    Half the points come from the *problematic* input ranges (where the
    operation had high local error — the region the repair must win on)
    and half from the total ranges (so a repair is not accepted at the
    price of the benign region).  Falls back to the representative
    example and finally to a blind default box — reproducing the
    Figure 5b degradation when characteristics are disabled.
    """
    expression = record.symbolic_expression
    variables = list(free_variables(expression)) if expression is not None else []
    rng = random.Random(seed)

    def sample_variable(variable: str, problematic: bool) -> float:
        tables = [record.problematic_inputs, record.total_inputs]
        if not problematic:
            tables = tables[::-1]
        for table in tables:
            summary = table.by_variable.get(variable)
            bounds = _summary_range(summary) if summary is not None else None
            if bounds is not None and bounds[0] < bounds[1]:
                return sample_range(rng, *bounds)
            if bounds is not None:
                return bounds[0]
            if isinstance(summary, RepresentativeInput) and summary.value is not None:
                return summary.value * rng.uniform(0.5, 2.0)
        if record.example_problematic and variable in record.example_problematic:
            return record.example_problematic[variable]
        return rng.uniform(*DEFAULT_RANGE)

    points: List[List[float]] = []
    for index in range(count):
        problematic = index % 2 == 0
        points.append(
            [sample_variable(v, problematic) for v in variables]
        )
    return variables, points


@dataclass
class BenchmarkOutcome:
    """Everything Section 8.1 needs to know about one benchmark."""

    name: str
    oracle: OracleVerdict
    herbgrind_detected: bool
    herbgrind_max_output_error: float
    candidate_count: int
    reported_count: int
    best_improvement: Optional[ImprovementResult]
    improved_expression: Optional[str] = None
    #: Improvement searches that raised, one
    #: ``"<site>: <ExcType>: <message>"`` entry each; such a cause
    #: counts as not improvable.
    improvement_errors: List[str] = field(default_factory=list)

    @property
    def herbgrind_improvable(self) -> bool:
        return (
            self.best_improvement is not None
            and self.best_improvement.improved()
        )


def evaluate_benchmark(
    core: FPCore,
    config: Optional[AnalysisConfig] = None,
    num_points: int = 16,
    seed: int = 0,
    settings: Optional[SearchSettings] = None,
    max_causes: int = 3,
    session: Optional[AnalysisSession] = None,
) -> BenchmarkOutcome:
    """Run oracle + Herbgrind + improver for one benchmark.

    Analysis routes through :class:`repro.api.AnalysisSession`; pass
    ``session`` to share compiled-program and input-set caches across
    benchmarks (``evaluate_suite`` does).
    """
    if config is None:
        config = AnalysisConfig(shadow_precision=256)
    if session is None:
        session = AnalysisSession(
            config=config, num_points=num_points, seed=seed
        )
    oracle = oracle_judge(core, num_points=num_points, seed=seed)
    analysis = session.analyze(
        core, config=config, num_points=num_points, seed=seed
    ).raw
    detected = analysis.max_output_error() > config.output_error_threshold
    causes = analysis.reported_root_causes()
    best: Optional[ImprovementResult] = None
    best_text: Optional[str] = None
    errors: List[str] = []
    for record in causes[:max_causes]:
        expression = record.symbolic_expression
        if expression is None:
            continue
        variables, points = sample_points_for_record(
            record, count=num_points, seed=seed
        )
        if not variables:
            continue
        try:
            result = improve_expression(
                expression, variables, points, settings=settings
            )
        except Exception as error:
            site = record.loc or f"site {record.site_id}"
            message = f"{site}: {type(error).__name__}: {error}"
            logger.warning("improvement search failed in %s: %s",
                           core.name or "<anonymous>", message)
            errors.append(message)
            continue
        if best is None or result.improvement > best.improvement:
            best = result
            from repro.fpcore.printer import format_expr

            best_text = format_expr(result.best)
    return BenchmarkOutcome(
        name=core.name or "<anonymous>",
        oracle=oracle,
        herbgrind_detected=detected,
        herbgrind_max_output_error=analysis.max_output_error(),
        candidate_count=len(analysis.candidate_records()),
        reported_count=len(causes),
        best_improvement=best,
        improved_expression=best_text,
        improvement_errors=errors,
    )


@dataclass
class SuiteSummary:
    """The headline Section 8.1 counts."""

    outcomes: List[BenchmarkOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def oracle_erroneous(self) -> int:
        return sum(1 for o in self.outcomes if o.oracle.has_significant_error)

    @property
    def oracle_improvable(self) -> int:
        return sum(1 for o in self.outcomes if o.oracle.improvable)

    @property
    def herbgrind_detected(self) -> int:
        """Erroneous-by-oracle benchmarks Herbgrind also detects."""
        return sum(
            1 for o in self.outcomes
            if o.oracle.has_significant_error and o.herbgrind_detected
        )

    @property
    def herbgrind_reported(self) -> int:
        """Erroneous benchmarks with at least one reported root cause."""
        return sum(
            1 for o in self.outcomes
            if o.oracle.has_significant_error and o.reported_count > 0
        )

    @property
    def herbgrind_improvable(self) -> int:
        """Erroneous benchmarks whose reported cause Herbie can improve
        (the paper's 'true root cause' success count)."""
        return sum(
            1 for o in self.outcomes
            if o.oracle.has_significant_error and o.herbgrind_improvable
        )

    def end_to_end_rate(self) -> float:
        if self.oracle_erroneous == 0:
            return 1.0
        return self.herbgrind_improvable / self.oracle_erroneous


def evaluate_suite(
    corpus: Sequence[FPCore],
    config: Optional[AnalysisConfig] = None,
    num_points: int = 16,
    seed: int = 0,
    settings: Optional[SearchSettings] = None,
    session: Optional[AnalysisSession] = None,
) -> SuiteSummary:
    """Run the full Section 8.1 pipeline over a benchmark corpus.

    One :class:`repro.api.AnalysisSession` is shared across the whole
    suite so repeated evaluations reuse compiled programs and samples.
    """
    if session is None:
        session = AnalysisSession(
            config=config, num_points=num_points, seed=seed
        )
    summary = SuiteSummary()
    for core in corpus:
        summary.outcomes.append(
            evaluate_benchmark(
                core,
                config=config,
                num_points=num_points,
                seed=seed,
                settings=settings,
                session=session,
            )
        )
    return summary
