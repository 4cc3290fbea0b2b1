#!/usr/bin/env python3
"""Static-analysis cost and agreement benchmark → ``BENCH_static.json``.

Measures the interval/condition-number static pass
(:mod:`repro.staticanalysis`) against the dynamic shadow analysis, and
gates on the properties the subsystem promises:

* **Cost** — full-corpus ``lint`` (compile + fixpoint + diagnostics
  for all 86 benchmarks) must take **< 10%** of one cold dynamic
  corpus analysis at the same precision/point count.
* **Agreement** — every dynamically flagged candidate location must
  be statically ranked (score above the dynamic threshold Tℓ), up to
  the small allowlist of interval-domain limitations shared with
  ``tests/staticanalysis/test_agreement.py``.  The fraction is
  recorded and gated at ``--min-agreement`` (default 0.80).
* **Determinism** — two lint sweeps must produce byte-identical
  diagnostics (the CI snapshot job depends on it).

Usage::

    PYTHONPATH=src python benchmarks/bench_static.py \
        [--points 8] [--precision 256] [--repeat 2] \
        [--min-agreement 0.8] [--out BENCH_static.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.api import AnalysisSession
from repro.core import AnalysisConfig
from repro.fpcore import load_corpus
from repro.staticanalysis import cross_check, lint_core, static_report


def lint_sweep(corpus):
    """One full-corpus lint; returns (wall seconds, diagnostics-dict)."""
    start = time.perf_counter()
    diagnostics = {
        core.name: [d.to_dict() for d in lint_core(core)] for core in corpus
    }
    return time.perf_counter() - start, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=8)
    parser.add_argument("--precision", type=int, default=256)
    parser.add_argument("--repeat", type=int, default=2,
                        help="lint sweeps (fastest wins; also checks "
                             "byte-determinism across sweeps)")
    parser.add_argument("--min-agreement", type=float, default=0.80)
    parser.add_argument("--out", default="BENCH_static.json")
    args = parser.parse_args(argv)

    corpus = load_corpus()

    # --- static cost + determinism ---------------------------------
    sweeps = [lint_sweep(corpus) for __ in range(max(1, args.repeat))]
    static_seconds = min(seconds for seconds, __ in sweeps)
    deterministic = all(
        json.dumps(diags, sort_keys=True)
        == json.dumps(sweeps[0][1], sort_keys=True)
        for __, diags in sweeps[1:]
    )

    # --- cold dynamic corpus analysis ------------------------------
    # workers=1 (the default) keeps result.raw for the agreement check.
    session = AnalysisSession(
        config=AnalysisConfig(shadow_precision=args.precision),
        num_points=args.points,
        seed=0,
    )
    start = time.perf_counter()
    results = session.analyze_batch(corpus)
    dynamic_seconds = time.perf_counter() - start

    # --- static-vs-dynamic agreement -------------------------------
    matched = 0
    missed = []
    for core, result in zip(corpus, results):
        agreement = cross_check(
            static_report(core=core), result.raw.candidate_records()
        )
        matched += len(agreement["matched"])
        missed.extend(
            {"benchmark": core.name, **miss} for miss in agreement["missed"]
        )
    dynamic_sites = matched + len(missed)
    fraction = 1.0 if dynamic_sites == 0 else matched / dynamic_sites

    flagged = sum(1 for __, diags in (sweeps[0],) for d in diags.values() if d)
    report = {
        "corpus_size": len(corpus),
        "programs_flagged": flagged,
        "static_seconds": static_seconds,
        "dynamic_seconds": dynamic_seconds,
        "static_fraction_of_dynamic": static_seconds / dynamic_seconds,
        "deterministic": deterministic,
        "agreement": {
            "dynamic_sites": dynamic_sites,
            "matched": matched,
            "missed": missed,
            "fraction": fraction,
        },
        "points": args.points,
        "precision": args.precision,
    }

    failures = []
    if report["static_fraction_of_dynamic"] >= 0.10:
        failures.append(
            f"full-corpus lint took "
            f"{report['static_fraction_of_dynamic'] * 100:.1f}% of the "
            "cold dynamic analysis (budget: < 10%)"
        )
    if not deterministic:
        failures.append("lint sweeps are not byte-identical")
    if fraction < args.min_agreement:
        failures.append(
            f"static-dynamic agreement {fraction:.1%} below "
            f"{args.min_agreement:.0%}"
        )

    report["failures"] = failures
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"wrote {args.out}; lint {static_seconds:.2f}s vs dynamic "
        f"{dynamic_seconds:.2f}s "
        f"({report['static_fraction_of_dynamic'] * 100:.1f}%), "
        f"agreement {fraction:.1%}"
    )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
