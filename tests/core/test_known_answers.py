"""Known-answer programs, checked against oracles outside the system.

Two classic error amplifiers, kept out of the corpus so no other
golden depends on them:

* the unstable recurrence E_n = 1 - n E_(n-1) for the integrals
  E_n = int_0^1 x^n e^(x-1) dx, started from E_0 = 1 - 1/e with ``e``
  the double nearest Euler's number.  Every value of the recurrence is
  rational in that input, so an exact ``Fraction`` run is the oracle.
  The rounding of ``1/e`` grows factorially, and so does the adaptive
  policy's drift bound: the run reaches the policy's ``UNTRUSTED``
  cut-off;
* sixty square roots of ``x`` then sixty squarings, which returns
  ``x`` in the reals and 1.0 in doubles, against an mpmath oracle.

Each program's reported output error must equal the oracle's, its
root causes are pinned, and the ``adaptive`` policy must report
exactly what ``fixed`` does, under both engines.
"""

import math
from fractions import Fraction

import pytest

from repro.bigfloat.policy import UNTRUSTED
from repro.core import AnalysisConfig, analyze_program, generate_report
from repro.core.localerror import bits_of_error
from repro.fpcore import parse_fpcore
from repro.fpcore.printer import format_expr
from repro.machine import compile_fpcore

STEPS = 60

RECURRENCE = f"""(FPCore (e) :name "recurrence-en"
  (while* (< n {STEPS})
    ([n 0 (+ n 1)]
     [en (- 1 (/ 1 e)) (- 1 (* n en))])
    en))"""

SQRT_SQUARE = """(FPCore (x) :name "sqrt-then-square"
  (let ([r (while* (< i 60) ([i 0 (+ i 1)] [s x (sqrt s)]) s)])
    (while* (< j 60) ([j 0 (+ j 1)] [t r (* t t)]) t)))"""

ENGINES = ("compiled", "reference")


def run(source, points, policy, engine, threshold):
    config = AnalysisConfig(
        shadow_precision=1000, precision_policy=policy, engine=engine,
        local_error_threshold=threshold,
    )
    return analyze_program(
        compile_fpcore(parse_fpcore(source)), points, config=config
    )


def signature(analysis):
    """What the report says, in comparable form."""
    causes = [
        (record.op, format_expr(record.symbolic_expression),
         record.max_local_error, record.candidate_executions)
        for record in analysis.reported_root_causes()
    ]
    return causes, analysis.max_output_error(), \
        generate_report(analysis).format()


def recurrence_oracle(e):
    value = 1 - 1 / Fraction(e)
    for n in range(1, STEPS + 1):
        value = 1 - n * value
    return float(value)


@pytest.mark.parametrize("engine", ENGINES)
def test_recurrence_against_fraction_oracle(engine):
    points = [[math.e]]
    fixed, outputs = run(RECURRENCE, points, "fixed", engine, 2.0)
    [[computed]] = outputs
    expected = bits_of_error(computed, recurrence_oracle(math.e))
    assert expected > 50
    assert fixed.max_output_error() == expected
    # The cancellation in 1 - n E is what the analysis blames.
    [cause] = fixed.reported_root_causes()
    assert cause.op == "-"
    assert format_expr(cause.symbolic_expression) \
        == "(- 1 (* (+ v0 1) (- 1 v1)))"
    adaptive, __ = run(RECURRENCE, points, "adaptive", engine, 2.0)
    assert signature(adaptive) == signature(fixed)
    assert adaptive.policy.stats["rounding"] > 0


def test_recurrence_drift_reaches_the_untrusted_cut_off():
    adaptive, __ = run(RECURRENCE, [[math.e]], "adaptive", "compiled", 2.0)
    drifts = [entry[0].drift for entry in adaptive.pool.memo
              if entry is not None]
    assert UNTRUSTED in drifts
    assert max(d for d in drifts if d != UNTRUSTED) \
        < adaptive.policy._ulps_limit


def sqrt_square_oracle(x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(2000):
        value = mpmath.mpf(x)
        for __ in range(60):
            value = mpmath.sqrt(value)
        for __ in range(60):
            value = value * value
        return float(value)


@pytest.mark.parametrize("engine", ENGINES)
def test_sqrt_then_square_against_mpmath_oracle(engine):
    points = [[2.0], [100.0]]
    oracle = [sqrt_square_oracle(x) for [x] in points]
    assert oracle == [2.0, 100.0]
    fixed, outputs = run(SQRT_SQUARE, points, "fixed", engine, 0.5)
    assert outputs == [[1.0], [1.0]]
    assert fixed.max_output_error() == max(
        bits_of_error(computed, expected)
        for [computed], expected in zip(outputs, oracle)
    )
    # Each op loses at most one bit; only a low threshold blames them.
    assert sorted(
        (record.op, format_expr(record.symbolic_expression))
        for record in fixed.reported_root_causes()
    ) == [("*", "(* v1 v1)"), ("sqrt", "(sqrt x0)")]
    adaptive, __ = run(SQRT_SQUARE, points, "adaptive", engine, 0.5)
    assert signature(adaptive) == signature(fixed)
