"""Static numerical-stability analysis (no execution required).

Herbgrind — the dynamic analysis this repo reproduces — only flags
instability that the sampled inputs happen to excite.  This package is
the complementary *static* layer: an abstract interpretation over
compiled machine programs (and FPCore sources, via the same compiler
the dynamic engine uses) that computes, per program point,

* **value intervals** — with widening for loops, precondition-seeded
  input boxes, and overflow / subnormal / domain-edge tracking
  (:mod:`repro.staticanalysis.intervals`,
  :mod:`repro.staticanalysis.dataflow`), and
* **condition numbers** — per-site relative condition-number suprema
  and first-order error-amplification bounds propagated through the
  dataflow (:mod:`repro.staticanalysis.condition`).

Three consumers sit on top:

* ``repro lint`` — ranked JSON/text diagnostics (catastrophic
  cancellation, domain-edge operations, overflow/underflow-prone
  intermediates, ill-conditioned branches) with witness binades
  (:mod:`repro.staticanalysis.lint`);
* :func:`static_report` / :func:`cross_check` — a
  :class:`StaticReport` computed on demand and cross-checked against
  the sites a dynamic analysis flagged
  (:mod:`repro.staticanalysis.report`);
* static sampling guidance — per-input high-condition-number binades
  that bias ``repro.api.sampling`` toward the narrow regimes the
  log-uniform sampler misses (:mod:`repro.staticanalysis.hotspots`).

See ``docs/static-analysis.md`` for the lattice, the widening rules,
the condition-number propagation rules, and the lint catalog.
"""

from repro.staticanalysis.dataflow import (
    AbstractValue,
    SiteSummary,
    StaticAnalysis,
    analyze_program_static,
)
from repro.staticanalysis.hotspots import guided_sample_inputs, input_hotspots
from repro.staticanalysis.intervals import Interval
from repro.staticanalysis.lint import (
    DIAGNOSTIC_CATALOG,
    Diagnostic,
    lint_core,
    lint_program,
)
from repro.staticanalysis.report import StaticReport, cross_check, static_report

__all__ = [
    "AbstractValue",
    "DIAGNOSTIC_CATALOG",
    "Diagnostic",
    "Interval",
    "SiteSummary",
    "StaticAnalysis",
    "StaticReport",
    "analyze_program_static",
    "cross_check",
    "guided_sample_inputs",
    "input_hotspots",
    "lint_core",
    "lint_program",
    "static_report",
]
