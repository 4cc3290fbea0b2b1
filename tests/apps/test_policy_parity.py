"""Adaptive-vs-fixed report identity on the paper's case studies.

The corpus programs are short expressions; these are machine programs
with memory, branches and deep shared trace DAGs (Gram-Schmidt's dot
products, PID's 50-iteration loop), where the escalator re-executes
long traces whose sub-computations the pool interns.  Every rung of
the adaptive policy decides only cost, so each study must give the
same report under ``adaptive`` as under ``fixed``: per-site
expressions, node locations, error statistics, spot influences and
the rendered report text.

At these sizes the report would not show a wrong escalation: every
decision the case studies escalate turns out the same at the working
tier.  So the compiled engine's escalator is also checked value by
value: the pool interns both runs identically, and re-executing every
ident at the full rung must give the real the fixed run computed for
it as it executed.

The adaptive policy escalates only when a decision falls inside a
working value's drift band, so that band must hold the full-tier value
(:func:`assert_drift_bounds_hold`): on every study, and on the whole
corpus (:func:`test_corpus_drift_bounds_hold`).
"""

import random
from fractions import Fraction

import pytest

from repro.apps.dihedral import (
    generic_configuration,
    near_flat_configuration,
    run_dihedral,
)
from repro.apps.gramschmidt import run_gramschmidt
from repro.apps.pid import run_pid
from repro.apps.plotter import run_plotter
from repro.apps.triangle import run_triangle_study
from repro.api.sampling import sample_inputs
from repro.bigfloat.doubledouble import DoubleDouble
from repro.bigfloat.policy import EXACT
from repro.core import AnalysisConfig, analyze_program
from repro.core.report import generate_report
from repro.fpcore import load_corpus
from repro.machine import compile_fpcore


def _dihedral_configurations():
    rng = random.Random(3)
    return [near_flat_configuration(rng) for __ in range(3)] + [
        generic_configuration(rng) for __ in range(2)
    ]


STUDIES = {
    "pid-10": lambda config: run_pid(
        10.0, config=config.with_(local_error_threshold=0.1)
    ).analysis,
    "gramschmidt-8x4": lambda config: run_gramschmidt(
        8, 4, config=config
    ).analysis,
    "gramschmidt-12x12": lambda config: run_gramschmidt(
        12, 12, config=config
    ).analysis,
    "dihedral": lambda config: run_dihedral(
        _dihedral_configurations(), config=config
    ).analysis,
    "plotter-4x9": lambda config: run_plotter(
        4, 9, config=config
    ).analysis,
    "orient2d": lambda config: run_triangle_study(
        num_generic=2, num_degenerate=6, config=config
    ).analysis,
}

#: Each study's adaptive escalations by reason, ``(rounding,
#: comparison, integer)``, per engine; both precisions give the same
#: counts.  Pinned exactly, so a change to the drift rule that moves
#: any decision shows here even when the report stays equal.  The
#: corpus escalates on rounding only: the plotter and ``orient2d`` are
#: what hold the comparison check to its decisions.  The reference
#: engine has no memo, so it decides the plotter's repeated idents
#: again.
ESCALATIONS = {
    ("pid-10", "compiled"): (402, 0, 0),
    ("pid-10", "reference"): (402, 0, 0),
    ("gramschmidt-8x4", "compiled"): (0, 0, 0),
    ("gramschmidt-8x4", "reference"): (0, 0, 0),
    ("gramschmidt-12x12", "compiled"): (3269, 0, 0),
    ("dihedral", "compiled"): (3, 0, 0),
    ("dihedral", "reference"): (3, 0, 0),
    ("plotter-4x9", "compiled"): (131, 6, 0),
    ("plotter-4x9", "reference"): (143, 6, 0),
    ("orient2d", "compiled"): (85, 30, 0),
    ("orient2d", "reference"): (85, 30, 0),
}

#: Gram-Schmidt 12x12 takes about 15 s on the reference engine.
CASES = [
    (study, engine, precision)
    for study in STUDIES
    for engine in ("compiled", "reference")
    for precision in (256, 1000)
    if not (engine == "reference" and study == "gramschmidt-12x12")
]


def report_signature(analysis):
    """Everything a user reads in the report, in comparable form."""
    sites = [
        (
            record.site_id, record.op, record.loc,
            str(record.symbolic_expression),
            sorted(record.node_locations().items()),
            record.executions, record.candidate_executions,
            record.max_local_error, record.sum_local_error,
            record.compensations_detected,
        )
        for record in sorted(
            analysis.op_records.values(), key=lambda r: r.site_id
        )
    ]
    spots = [
        (
            spot.site_id, spot.kind, spot.loc, spot.executions,
            spot.erroneous, spot.max_error, spot.sum_error,
            sorted(r.site_id for r in spot.influences),
        )
        for spot in sorted(
            analysis.spot_records.values(), key=lambda s: s.site_id
        )
    ]
    return sites, spots, generate_report(analysis).format()


@pytest.mark.parametrize("study,engine,precision", CASES)
def test_adaptive_report_matches_fixed(study, engine, precision):
    config = AnalysisConfig(shadow_precision=precision, engine=engine)
    fixed = STUDIES[study](config)
    adaptive = STUDIES[study](config.with_(precision_policy="adaptive"))
    assert report_signature(adaptive) == report_signature(fixed)
    stats = adaptive.policy.stats
    rounding, comparison, integer = ESCALATIONS[study, engine]
    assert (stats["rounding"], stats["comparison"], stats["integer"]) \
        == (rounding, comparison, integer)
    assert stats["escalations"] == rounding + comparison + integer
    if engine == "compiled":
        assert_full_rung_matches(adaptive, fixed)
        assert_drift_bounds_hold(adaptive)


def assert_full_rung_matches(adaptive, fixed):
    """Every ident's full-rung re-execution under ``adaptive`` equals
    the real ``fixed`` computed for it (both runs intern alike)."""
    assert len(adaptive.pool) == len(fixed.pool)
    checked = 0
    for ident, entry in enumerate(fixed.pool.memo):
        if entry is not None:
            exact = adaptive.escalator.exact(ident)
            assert exact.key() == entry[0].real.key(), ident
            checked += 1
    assert checked > len(fixed.pool) // 2


def drift_bound_violations(analysis):
    """(checked, violations) of the drift bound over every memoized
    shadow of an adaptive run: an ``EXACT`` real is its full-tier
    value, and a finite drift ``d`` below the trust limit puts the
    full-tier value within ``d`` working-tier ulps of the real.
    Untrusted, non-finite and zero reals are skipped."""
    policy = analysis.policy
    precision = policy.working_context.precision
    checked, violations = 0, []
    for ident, entry in enumerate(analysis.pool.memo):
        if entry is None:
            continue
        shadow = entry[0]
        real, drift = shadow.real, shadow.drift
        if drift >= policy._ulps_limit or not real.is_finite() \
                or real.is_zero():
            continue
        exact = analysis.escalator.exact(ident)
        if drift == EXACT:
            value = real.to_bigfloat() if type(real) is DoubleDouble \
                else real
            ok = value.key() == exact.key()
        else:
            ulp = Fraction(2) ** (real.msb_exponent - precision + 1)
            ok = exact.is_finite() and abs(
                real.to_fraction() - exact.to_fraction()
            ) <= Fraction(drift) * ulp
        checked += 1
        if not ok:
            violations.append((ident, drift))
    return checked, violations


def assert_drift_bounds_hold(adaptive):
    checked, violations = drift_bound_violations(adaptive)
    assert violations == []
    # Gram-Schmidt's shadows are mostly untrusted; 8x4 checks 15.
    assert checked > 10


def test_corpus_drift_bounds_hold():
    config = AnalysisConfig(shadow_precision=1000,
                            precision_policy="adaptive", engine="compiled")
    checked, violations = 0, []
    for core in load_corpus():
        analysis, __ = analyze_program(
            compile_fpcore(core), sample_inputs(core, 8, seed=0),
            config=config,
        )
        count, bad = drift_bound_violations(analysis)
        checked += count
        violations += [(core.name,) + item for item in bad]
    assert violations == []
    assert checked > 10000
