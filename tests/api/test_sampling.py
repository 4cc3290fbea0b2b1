"""Tests for the shared sampler and precondition-box extraction."""

import logging
import math
import multiprocessing
import random

import pytest

from repro.api.sampling import (
    DEFAULT_RANGE,
    precondition_box,
    sample_box,
    sample_inputs,
    sample_range,
    sampler_precondition_errors,
)
from repro.fpcore import parse_fpcore


class TestPreconditionBox:
    def test_single_range(self):
        core = parse_fpcore("(FPCore (x) :pre (<= 1 x 10) x)")
        assert precondition_box(core) == {"x": (1.0, 10.0)}

    def test_conjunction(self):
        core = parse_fpcore(
            "(FPCore (x y) :pre (and (<= -2 x 2) (<= 0.5 y 1.5)) (+ x y))"
        )
        box = precondition_box(core)
        assert box == {"x": (-2.0, 2.0), "y": (0.5, 1.5)}

    def test_missing_range_defaults(self):
        core = parse_fpcore("(FPCore (x y) :pre (<= 1 x 2) (+ x y))")
        box = precondition_box(core)
        assert box["x"] == (1.0, 2.0)
        assert box["y"] == DEFAULT_RANGE

    def test_no_precondition(self):
        core = parse_fpcore("(FPCore (x) x)")
        assert precondition_box(core) == {"x": DEFAULT_RANGE}

    def test_non_range_clauses_ignored(self):
        core = parse_fpcore(
            "(FPCore (x) :pre (and (<= 1 x 10) (!= x 5)) x)"
        )
        assert precondition_box(core) == {"x": (1.0, 10.0)}


class TestSampleRange:
    def test_tight_range(self):
        rng = random.Random(0)
        for __ in range(100):
            value = sample_range(rng, 1.0, 1.0 + 1e-12)
            assert 1.0 <= value <= 1.0 + 1e-12

    def test_degenerate_range(self):
        rng = random.Random(0)
        assert sample_range(rng, 3.5, 3.5) == 3.5

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            sample_range(random.Random(0), 2.0, 1.0)

    def test_positive_log_scale(self):
        rng = random.Random(1)
        values = [sample_range(rng, 1e-12, 1.0) for __ in range(400)]
        assert all(1e-12 <= v <= 1.0 for v in values)
        # Log-uniform: a fair share of samples must be tiny — linear
        # sampling would essentially never go below 1e-3.
        assert sum(1 for v in values if v < 1e-3) > 100

    def test_negative_log_scale(self):
        rng = random.Random(2)
        values = [sample_range(rng, -1.0, -1e-12) for __ in range(400)]
        assert all(-1.0 <= v <= -1e-12 for v in values)
        assert sum(1 for v in values if v > -1e-3) > 100

    def test_negative_log_scale_mirrors_positive(self):
        pos = [
            sample_range(random.Random(7), 1e-9, 1e3) for __ in range(50)
        ]
        neg = [
            sample_range(random.Random(7), -1e3, -1e-9) for __ in range(50)
        ]
        assert neg == [-v for v in pos]

    def test_zero_span_linear_by_default(self):
        rng = random.Random(3)
        values = [sample_range(rng, -1e9, 1e9) for __ in range(200)]
        assert all(-1e9 <= v <= 1e9 for v in values)
        # Linear: essentially no tiny magnitudes.
        assert sum(1 for v in values if abs(v) < 1.0) == 0

    def test_zero_span_log_mode(self):
        rng = random.Random(4)
        values = [
            sample_range(rng, -1e9, 1e9, zero_span_log=True)
            for __ in range(400)
        ]
        assert all(-1e9 <= v <= 1e9 for v in values)
        assert any(v < 0 for v in values) and any(v > 0 for v in values)
        # Log-magnitude: small values are actually reachable now.
        assert sum(1 for v in values if abs(v) < 1e8) > 100

    def test_zero_span_log_asymmetric_weighting(self):
        rng = random.Random(5)
        values = [
            sample_range(rng, -1.0, 1e6, zero_span_log=True)
            for __ in range(500)
        ]
        negatives = sum(1 for v in values if v < 0)
        # The negative side is one millionth of the width.
        assert negatives < 25


class TestSampleInputs:
    def test_count_and_bounds(self):
        core = parse_fpcore("(FPCore (x) :pre (<= 2 x 3) x)")
        points = sample_inputs(core, 10, seed=1)
        assert len(points) == 10
        assert all(2.0 <= p[0] <= 3.0 for p in points)

    def test_rejection_clause_respected(self):
        core = parse_fpcore(
            "(FPCore (x) :pre (and (<= 0 x 10) (< 5 x)) x)"
        )
        points = sample_inputs(core, 20, seed=0)
        assert all(p[0] > 5.0 for p in points)

    def test_rejection_limit_exhaustion(self):
        # The box is [0, 10] but the extra clause is unsatisfiable.
        core = parse_fpcore(
            "(FPCore (x) :pre (and (<= 0 x 10) (< 20 x)) x)"
        )
        with pytest.raises(ValueError, match="cannot satisfy"):
            sample_inputs(core, 1, seed=0, max_rejections=50)

    def test_hard_but_satisfiable_precondition(self):
        # Regression: the rejection bound is on *consecutive* failures.
        # ~5% acceptance over 100 points used to accumulate ~1900 total
        # rejections and spuriously trip max_rejections=1000; with the
        # counter reset on every accepted point it never comes close.
        core = parse_fpcore(
            "(FPCore (x) :pre (and (<= 0 x 1) (< x 0.05)) x)"
        )
        points = sample_inputs(core, 100, seed=3, max_rejections=1000)
        assert len(points) == 100
        assert all(p[0] < 0.05 for p in points)

    def test_seed_determinism(self):
        core = parse_fpcore("(FPCore (x y) :pre (and (<= 1e-9 x 1e9) (<= -5 y 5)) (+ x y))")
        a = sample_inputs(core, 8, seed=42)
        b = sample_inputs(core, 8, seed=42)
        c = sample_inputs(core, 8, seed=43)
        assert a == b
        assert a != c


class TestPreconditionErrors:
    def test_raising_pre_is_counted_and_logged_once(self, caplog):
        # The clause names an unbound variable, so evaluating it raises
        # on the half of the box where the `or` does not short-circuit.
        raising = parse_fpcore(
            "(FPCore half-raising (x)"
            " :pre (and (<= -1 x 1) (or (< x 0) (< z 1))) x)"
        )
        rejecting = parse_fpcore(
            "(FPCore half-rejecting (x) :pre (and (<= -1 x 1) (< x 0)) x)"
        )
        key = ("half-raising", "EvaluationError")
        assert key not in sampler_precondition_errors()  # unique name
        with caplog.at_level(logging.INFO, logger="repro.api.sampling"):
            points = sample_inputs(raising, 20, seed=5)
            again = sample_inputs(raising, 20, seed=5)
        # A raising draw is rejected exactly like a failing one: the
        # RNG sequence and the accepted points are unchanged.
        assert points == again == sample_inputs(rejecting, 20, seed=5)
        raised = sampler_precondition_errors()[key]
        assert raised > 2 and raised % 2 == 0  # same draws both runs
        logged = [r for r in caplog.records
                  if r.name == "repro.api.sampling"
                  and "half-raising" in r.getMessage()]
        assert len(logged) == 1 and logged[0].levelno == logging.INFO
        assert "EvaluationError" in logged[0].getMessage()

    def test_plain_rejections_are_not_counted(self):
        core = parse_fpcore(
            "(FPCore never-raising (x) :pre (and (<= 0 x 10) (< 5 x)) x)"
        )
        sample_inputs(core, 20, seed=0)
        assert not any(program == "never-raising"
                       for program, __ in sampler_precondition_errors())


def _sample_in_subprocess(args):
    source, count, seed = args
    return sample_inputs(parse_fpcore(source), count, seed=seed)


class TestCrossProcessDeterminism:
    def test_same_seed_across_processes(self):
        source = (
            "(FPCore (x y) :pre (and (<= 1e-12 x 1e3) (<= -7 y 7)) (* x y))"
        )
        local = sample_inputs(parse_fpcore(source), 12, seed=9)
        with multiprocessing.Pool(2) as pool:
            remote = pool.map(
                _sample_in_subprocess, [(source, 12, 9), (source, 12, 9)]
            )
        assert remote[0] == local
        assert remote[1] == local


class TestSampleBox:
    def test_shape_and_bounds(self):
        points = sample_box(["a", "b"], 1e-3, 1e3, 16, seed=0)
        assert len(points) == 16
        assert all(len(p) == 2 for p in points)
        assert all(1e-3 <= v <= 1e3 for p in points for v in p)

    def test_matches_legacy_cli_sampling(self):
        # The CLI's old inline loop: one log-uniform draw per variable.
        low, high = 1e-3, 1e3
        rng = random.Random(5)
        expected = []
        for __ in range(6):
            expected.append(
                [
                    math.exp(rng.uniform(math.log(low), math.log(high)))
                    for __v in ("x", "y")
                ]
            )
        assert sample_box(["x", "y"], low, high, 6, seed=5) == expected
