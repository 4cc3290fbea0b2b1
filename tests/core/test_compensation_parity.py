"""Compensation detection agrees across precision policies and tiers.

The compensation test (paper Section 5.3) is two conditions: (b) the
output has less error than an argument, decided on cached error
measurements, and (a) the operation returns that argument in the
reals, which under the adaptive policy may escalate.  The per-op
closures check (b) first and only reach (a) when an argument carries
error, so these tests pin the per-site verdicts — compensations
detected and candidate executions — on the programs that exercise
them: the ``loops`` corpus family (accumulators that gain error every
iteration) and the Section 8.3 Triangle study (hundreds of exact
compensating terms).  Fixed, adaptive with the double-double hardware
tier, adaptive without it, and the reference engine's unfused path
must all agree site by site.
"""

from __future__ import annotations

import pytest

from repro.api.sampling import sample_inputs
from repro.apps.triangle import run_triangle_study
from repro.core import AnalysisConfig, analyze_program
from repro.fpcore.corpus import families
from repro.machine import compile_fpcore

BASE = AnalysisConfig(shadow_precision=1000)
CONFIGS = {
    "fixed": BASE,
    "adaptive-hw": BASE.with_(precision_policy="adaptive", hw_tier=True),
    "adaptive-no-hw": BASE.with_(precision_policy="adaptive",
                                 hw_tier=False),
    "adaptive-reference": BASE.with_(precision_policy="adaptive",
                                     hw_tier=True, engine="reference"),
}

LOOPS = families()["loops"]


def per_site(analysis):
    """Site -> (executions, compensations, candidate executions).

    Site ids number sites in first-execution order, which the machine
    fixes: every configuration runs the same float program.
    """
    return {
        (record.site_id, record.loc, record.op): (
            record.executions,
            record.compensations_detected,
            record.candidate_executions,
        )
        for record in analysis.op_records.values()
    }


def test_loop_family_is_present():
    assert len(LOOPS) == 3


@pytest.mark.parametrize("core", LOOPS, ids=lambda core: core.name)
def test_loop_sites_agree(core):
    points = sample_inputs(core, 3, seed=5)
    program = compile_fpcore(core)
    sites = {
        name: per_site(analyze_program(program, points, config=config)[0])
        for name, config in CONFIGS.items()
    }
    expected = sites.pop("fixed")
    for name, observed in sites.items():
        assert observed == expected, name


def test_triangle_compensations_agree():
    sites = {
        name: per_site(run_triangle_study(
            num_generic=16, num_degenerate=16, config=config
        ).analysis)
        for name, config in CONFIGS.items()
    }
    expected = sites.pop("fixed")
    # The study must exercise the detector, not agree vacuously (the
    # Section 8.3 benchmark's own floor).
    assert sum(site[1] for site in expected.values()) > 100
    for name, observed in sites.items():
        assert observed == expected, name
