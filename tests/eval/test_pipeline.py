"""Tests for the Section 8.1 oracle and evaluation pipeline."""

import logging

import pytest

from repro.core import AnalysisConfig
from repro.eval import (
    evaluate_benchmark,
    evaluate_suite,
    oracle_judge,
    sample_points_for_record,
)
from repro.fpcore import corpus_by_name, parse_fpcore
from repro.improve import SearchSettings

FAST = AnalysisConfig(shadow_precision=192)
FAST_SEARCH = SearchSettings(
    beam_width=3, generations=2, max_candidates_per_generation=600
)


class TestOracle:
    def test_erroneous_benchmark_detected(self):
        core = parse_fpcore(
            "(FPCore (x) :pre (<= 1e16 x 1e17) (- (+ x 1) x))"
        )
        verdict = oracle_judge(core, num_points=8)
        assert verdict.has_significant_error
        assert verdict.max_error > 50

    def test_clean_benchmark(self):
        core = parse_fpcore("(FPCore (x) :pre (<= 1 x 100) (* x 2))")
        verdict = oracle_judge(core, num_points=8)
        assert not verdict.has_significant_error
        assert verdict.improvement is None

    def test_improvability_judged(self):
        core = parse_fpcore(
            "(FPCore (x) :pre (<= 1 x 1e12) (- (sqrt (+ x 1)) (sqrt x)))"
        )
        verdict = oracle_judge(core, num_points=10, settings=FAST_SEARCH)
        assert verdict.has_significant_error
        assert verdict.improvable

    def test_loop_benchmarks_not_improved(self):
        core = corpus_by_name()["loop-tenth-accumulate"]
        verdict = oracle_judge(core, num_points=4)
        # Loops are measured but not fed to the rewrite search.
        assert verdict.improvement is None


class TestSamplePoints:
    def analysis_record(self, source, points):
        from repro.api import AnalysisSession

        session = AnalysisSession(config=FAST, result_cache_size=0)
        analysis = session.analyze(
            parse_fpcore(source), points=[list(p) for p in points]
        ).raw
        causes = analysis.reported_root_causes()
        assert causes
        return causes[0]

    def test_points_within_observed_ranges(self):
        record = self.analysis_record(
            "(FPCore (x) (- (+ x 1) x))", [[1e16], [3e16], [9e16]]
        )
        variables, points = sample_points_for_record(record, count=12)
        assert variables
        axis = [p[0] for p in points]
        assert all(1e15 <= v <= 1e17 for v in axis)

    def test_problematic_ranges_prioritized(self):
        # baz: pole at 113; problematic points must appear in samples.
        source = """
        (FPCore (x)
          (- (+ (/ 1 (- x 113)) PI) (/ 1 (- x 113))))
        """
        record = self.analysis_record(
            source, [[150.0], [190.0], [113.0000001], [112.9999999]]
        )
        variables, points = sample_points_for_record(record, count=16)
        near_pole = [p for p in points if abs(p[0]) > 1e5 or abs(p[0]) < 1e-5]
        # The generalized variable is z = 1/(x-113): huge near the pole.
        assert variables


class TestEvaluateBenchmark:
    def test_end_to_end_success(self):
        core = parse_fpcore(
            '(FPCore (x) :name "t" :pre (<= 1 x 1e12)'
            " (- (sqrt (+ x 1)) (sqrt x)))"
        )
        outcome = evaluate_benchmark(
            core, config=FAST, num_points=10, settings=FAST_SEARCH
        )
        assert outcome.oracle.has_significant_error
        assert outcome.herbgrind_detected
        assert outcome.reported_count >= 1
        assert outcome.herbgrind_improvable
        assert outcome.improved_expression is not None

    def test_clean_benchmark_outcome(self):
        core = parse_fpcore(
            '(FPCore (x) :name "c" :pre (<= 1 x 10) (* (+ x 1) 2))'
        )
        outcome = evaluate_benchmark(core, config=FAST, num_points=6)
        assert not outcome.oracle.has_significant_error
        assert not outcome.herbgrind_detected
        assert outcome.reported_count == 0

    def test_improvement_errors_are_recorded(self, monkeypatch, caplog):
        from repro.eval import pipeline

        def broken(*args, **kwargs):
            raise RuntimeError("search exploded")

        monkeypatch.setattr(pipeline, "improve_expression", broken)
        core = parse_fpcore(
            '(FPCore (x) :name "t" :pre (<= 1 x 1e12)'
            " (- (sqrt (+ x 1)) (sqrt x)))"
        )
        with caplog.at_level(logging.WARNING, logger="repro.eval.pipeline"):
            outcome = evaluate_benchmark(core, config=FAST, num_points=10)
        assert outcome.reported_count >= 1
        assert not outcome.herbgrind_improvable
        assert outcome.improvement_errors
        for entry in outcome.improvement_errors:
            site, exc_type, message = entry.split(": ", 2)
            assert site and exc_type == "RuntimeError"
            assert message == "search exploded"
        warnings = [r for r in caplog.records
                    if r.name == "repro.eval.pipeline"]
        assert len(warnings) == len(outcome.improvement_errors)
        assert all(r.levelno == logging.WARNING for r in warnings)

    def test_clean_search_records_no_errors(self):
        core = parse_fpcore(
            '(FPCore (x) :name "c" :pre (<= 1 x 10) (* (+ x 1) 2))'
        )
        outcome = evaluate_benchmark(core, config=FAST, num_points=6)
        assert outcome.improvement_errors == []

    def test_suite_summary_counts(self):
        corpus = [
            parse_fpcore(
                '(FPCore (x) :name "bad" :pre (<= 1e16 x 1e17) (- (+ x 1) x))'
            ),
            parse_fpcore('(FPCore (x) :name "good" :pre (<= 1 x 10) (+ x 1))'),
        ]
        summary = evaluate_suite(
            corpus, config=FAST, num_points=8, settings=FAST_SEARCH
        )
        assert summary.total == 2
        assert summary.oracle_erroneous == 1
        assert summary.herbgrind_detected == 1
        assert summary.herbgrind_improvable == 1
        assert summary.end_to_end_rate() == 1.0

    def test_empty_suite_rate(self):
        summary = evaluate_suite([], config=FAST)
        assert summary.end_to_end_rate() == 1.0
