"""The ``StaticReport``: one static pass over one program, on demand.

:func:`static_report` runs interval dataflow + lint over a compiled
program and its precondition box — the same ones a dynamic analysis of
the same FPCore uses — so :func:`cross_check` can compare its ranking
with that analysis' candidate records.

:func:`cross_check` is the agreement contract between the two layers:
every dynamically flagged root-cause site (a candidate record) should
appear among the statically *ranked* sites (score above the dynamic
local-error threshold) at the same source location.  Interval analysis
only over-approximates ranges — condition-number suprema only grow —
so disagreements are the static pass missing structure (a bug) or a
correlation the interval domain cannot express (allowlisted in the
agreement test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.fpcore.ast import FPCore
from repro.machine import isa
from repro.machine.compiler import compile_fpcore
from repro.staticanalysis.dataflow import (
    StaticAnalysis,
    analyze_program_static,
)
from repro.staticanalysis.lint import Diagnostic, _json_number, lint_program

#: Static score (bits) above which a site counts as "ranked" for the
#: static-vs-dynamic agreement — the dynamic default Tℓ.
RANK_THRESHOLD_BITS = 5.0


@dataclass
class StaticReport:
    """The static layer's findings for one analyzed program."""

    program: str
    sites: List[Dict[str, Any]] = field(default_factory=list)
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)
    agreement: Optional[Dict[str, Any]] = None
    converged: bool = True
    visits: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "program": self.program,
            "sites": self.sites,
            "diagnostics": self.diagnostics,
            "agreement": self.agreement,
            "converged": self.converged,
            "visits": self.visits,
        }

    def ranked_locs(
        self, threshold: float = RANK_THRESHOLD_BITS
    ) -> List[str]:
        """Source locations with static score above ``threshold``."""
        return [
            site["loc"]
            for site in self.sites
            if site["loc"] is not None
            and site["score_bits"] is not None
            and site["score_bits"] > threshold
        ]


def _site_dict(site) -> Dict[str, Any]:
    return {
        "site_id": site.site_id,
        "loc": site.loc,
        "op": site.op,
        "kind": site.kind,
        "score_bits": _json_number(site.score_bits),
        "total_err_bits": _json_number(site.total_err_bits),
        "condition_sup": _json_number(max(site.conds, default=0.0)),
        "witness_binade": site.witness_binade,
        "flags": sorted(site.flags),
    }


def build_report(
    name: str,
    analysis: StaticAnalysis,
    diagnostics: Sequence[Diagnostic],
) -> StaticReport:
    """Assemble a report from a finished static analysis + lint."""
    ranked = analysis.ranked()
    return StaticReport(
        program=name,
        sites=[_site_dict(site) for site in ranked],
        diagnostics=[d.to_dict() for d in diagnostics],
        converged=analysis.converged,
        visits=analysis.visits,
    )


def static_report(
    core: Optional[FPCore] = None,
    program: Optional[isa.Program] = None,
    input_box: Optional[Sequence[Tuple[float, float]]] = None,
    name: Optional[str] = None,
) -> StaticReport:
    """One-call convenience: compile (if needed), analyze, lint.

    Give either an FPCore benchmark (``core``; its :pre supplies the
    input box) or a machine program plus an explicit ``input_box``.
    """
    if program is None:
        if core is None:
            raise ValueError("static_report needs a core or a program")
        program = compile_fpcore(core)
    if input_box is None and core is not None:
        from repro.api.sampling import precondition_box

        box = precondition_box(core)
        input_box = [box[argument] for argument in core.arguments]
    analysis = analyze_program_static(program, input_box or ())
    diagnostics = lint_program(program, input_box or (), analysis=analysis)
    report_name = name or (core.name if core is not None else None) or "<program>"
    return build_report(report_name, analysis, diagnostics)


def _dynamic_loc_errors(records: Iterable[Any]) -> List[Tuple[str, float]]:
    """Normalize dynamic flagged sites to (loc, max_local_error_bits).

    Accepts ``OpRecord`` objects (``max_local_error``) or serialized
    ``RootCauseResult`` objects (``local_error.max_bits``).
    """
    normalized = []
    for record in records:
        loc = getattr(record, "loc", None)
        if loc is None:
            continue
        error = getattr(record, "max_local_error", None)
        if error is None:
            stats = getattr(record, "local_error", None)
            error = getattr(stats, "max_bits", 0.0) if stats else 0.0
        normalized.append((loc, float(error)))
    return normalized


def cross_check(
    report: StaticReport,
    dynamic_records: Iterable[Any],
    rank_threshold: float = RANK_THRESHOLD_BITS,
) -> Dict[str, Any]:
    """Compare static ranking against dynamically flagged sites.

    A dynamic site *matches* when a static site at the same source
    location scores above ``rank_threshold``.  The result records the
    agreement fraction and the mismatched locations; it is stored into
    ``report.agreement`` as a side effect.
    """
    ranked = set(report.ranked_locs(rank_threshold))
    matched: List[str] = []
    missed: List[Dict[str, Any]] = []
    for loc, error_bits in sorted(set(_dynamic_loc_errors(dynamic_records))):
        if loc in ranked:
            matched.append(loc)
        else:
            missed.append(
                {"loc": loc, "dynamic_bits": _json_number(error_bits)}
            )
    total = len(matched) + len(missed)
    agreement = {
        "dynamic_sites": total,
        "matched": matched,
        "missed": missed,
        "fraction": 1.0 if total == 0 else len(matched) / total,
        "rank_threshold_bits": rank_threshold,
    }
    report.agreement = agreement
    return agreement
