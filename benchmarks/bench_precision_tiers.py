#!/usr/bin/env python3
"""Adaptive-precision tiers: equivalence, speedup, and cache benchmark.

Measures the tiered shadow substrate (``repro.bigfloat.policy``)
against the paper's fixed 1000-bit mode and emits
``BENCH_precision.json``:

* **Equivalence** — the adaptive policy must produce *byte-identical*
  result JSON (same candidates, same root causes, same error
  statistics) over the corpus and identical analysis signatures on the
  case-study apps.  Any mismatch fails the run.
* **Speedup** — wall-clock fixed vs adaptive, reported per suite:

  - ``corpus``  — every benchmark, timed per family (``by_family``:
    ``loops`` vs ``straight-line``) so the adaptive <= fixed bar can be
    read per class; the corpus totals are the family sums.  The loop
    benchmarks dominate wall-clock.  Adaptive wins there because the
    pair add certifies exact sums, so loop accumulators keep EXACT
    drift and never escalate;
  - ``kernel``  — the precision-bound suite: straight-line benchmarks
    whose expression contains a *heavy* library kernel (log family,
    trig, inverse trig, atanh/asinh, pow, atan2 — the calls measured
    at >= ~150us each at 1000 bits, 5-10x their working-tier cost; the
    unit-cost table is part of the output).  This is the workload the
    adaptive tier exists for; the headline ``speedup`` field is this
    suite's median per-benchmark wall-clock ratio (the aggregate ratio
    is reported alongside).

* **Result cache** — a cold corpus batch vs a warm rerun of the same
  batch through ``AnalysisSession``'s result cache (and a disk-warm
  rerun in a fresh session via ``cache_dir``); the warm rerun must
  complete in under 10% of the cold time.

Usage::

    PYTHONPATH=src python benchmarks/bench_precision_tiers.py \
        [--points 8] [--kernel-points 32] [--slice N] [--repeat 2] \
        [--out BENCH_precision.json] [--require-speedup 2.0]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import AnalysisSession, results_to_json
from repro.bigfloat.policy import GUARD_BITS
from repro.core import AnalysisConfig, analyze_program
from repro.fpcore import load_corpus
from repro.fpcore.printer import format_fpcore

#: Library kernels whose 1000-bit software implementations cost
#: >= ~150us per call (measured by :func:`bench_kernel_unit_costs` and
#: recorded in the output) — 5-10x their working-tier cost.  These are
#: the calls the fixed tier actually spends its time in; benchmarks
#: containing one define the precision-bound suite.
HEAVY_KERNELS = (
    "log", "log2", "log10", "log1p", "pow", "sin", "cos", "tan", "asin",
    "acos", "atan", "atan2", "asinh", "atanh",
)

_KERNEL_RE = re.compile(r"\(\s*(%s)\b" % "|".join(HEAVY_KERNELS))

FULL_PRECISION = 1000


def fixed_config() -> AnalysisConfig:
    return AnalysisConfig(shadow_precision=FULL_PRECISION)


def adaptive_config() -> AnalysisConfig:
    return AnalysisConfig(
        shadow_precision=FULL_PRECISION, precision_policy="adaptive"
    )


def is_kernel_bound(core) -> bool:
    """Straight-line and containing an expensive library kernel."""
    text = format_fpcore(core)
    return bool(_KERNEL_RE.search(text)) and "(while" not in text


def timed_batch(
    cores, config: AnalysisConfig, points: int, seed: int, repeat: int
) -> Tuple[List, float]:
    best: Optional[float] = None
    results = None
    for __ in range(repeat):
        session = AnalysisSession(
            config=config, num_points=points, seed=seed,
            result_cache_size=0,
        )
        start = time.perf_counter()
        results = session.analyze_batch(cores, workers=1)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return results, best


def escalation_stats(results) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for result in results:
        if result.raw is None or not hasattr(result.raw, "policy"):
            continue
        for key, value in result.raw.policy.stats.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def bench_suite(
    name: str, cores, points: int, seed: int, repeat: int
) -> Dict:
    fixed_results, fixed_time = timed_batch(
        cores, fixed_config(), points, seed, repeat
    )
    adaptive_results, adaptive_time = timed_batch(
        cores, adaptive_config(), points, seed, repeat
    )
    identical = results_to_json(fixed_results) == \
        results_to_json(adaptive_results)
    mismatches = []
    if not identical:
        for fr, ar in zip(fixed_results, adaptive_results):
            if fr.to_json() != ar.to_json():
                mismatches.append(fr.benchmark)
    return {
        "benchmarks": len(cores),
        "num_points": points,
        "fixed_seconds": round(fixed_time, 4),
        "adaptive_seconds": round(adaptive_time, 4),
        "aggregate_speedup": round(fixed_time / adaptive_time, 3),
        "report_identical": identical,
        "mismatched_benchmarks": mismatches,
        "escalations": escalation_stats(adaptive_results),
    }


def family_of(core) -> str:
    """``loops`` for the loop family, ``straight-line`` otherwise."""
    if core.properties.get("herbgrind-family") == "loops":
        return "loops"
    return "straight-line"


def bench_corpus(cores, points: int, seed: int, repeat: int) -> Dict:
    """:func:`bench_suite` per family, plus corpus totals (the sums)."""
    families: Dict[str, List] = {}
    for core in cores:
        families.setdefault(family_of(core), []).append(core)
    rows = {
        family: bench_suite(family, members, points, seed, repeat)
        for family, members in sorted(families.items())
    }
    fixed_time = sum(row["fixed_seconds"] for row in rows.values())
    adaptive_time = sum(row["adaptive_seconds"] for row in rows.values())
    escalations: Dict[str, int] = {}
    for row in rows.values():
        for key, value in row["escalations"].items():
            escalations[key] = escalations.get(key, 0) + value
    return {
        "benchmarks": len(cores),
        "num_points": points,
        "fixed_seconds": round(fixed_time, 4),
        "adaptive_seconds": round(adaptive_time, 4),
        "aggregate_speedup": round(fixed_time / adaptive_time, 3),
        "report_identical": all(
            row["report_identical"] for row in rows.values()),
        "mismatched_benchmarks": [
            name for row in rows.values()
            for name in row["mismatched_benchmarks"]],
        "escalations": escalations,
        "by_family": rows,
    }


def timed_single_steady(
    core, config: AnalysisConfig, points: int, seed: int, repeat: int
) -> float:
    """Steady-state analysis time: program and input-set caches warm,
    result cache off, so only the analysis itself is on the clock."""
    session = AnalysisSession(
        config=config, num_points=points, seed=seed, result_cache_size=0
    )
    session.analyze(core)  # warm the compile/sampling caches
    best = None
    for __ in range(max(2, repeat)):
        start = time.perf_counter()
        session.analyze(core)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def bench_kernel_details(
    cores, points: int, seed: int, repeat: int
) -> Dict:
    """Per-benchmark steady-state timing for the kernel suite."""
    rows = []
    for core in cores:
        fixed_time = timed_single_steady(
            core, fixed_config(), points, seed, repeat
        )
        adaptive_time = timed_single_steady(
            core, adaptive_config(), points, seed, repeat
        )
        rows.append({
            "benchmark": core.name,
            "fixed_seconds": round(fixed_time, 4),
            "adaptive_seconds": round(adaptive_time, 4),
            "speedup": round(fixed_time / adaptive_time, 3),
        })
    rows.sort(key=lambda r: -r["speedup"])
    speedups = [row["speedup"] for row in rows]
    if not speedups:
        # A small --slice can contain no kernel-bound benchmark.
        return {
            "per_benchmark": [],
            "median_speedup": None,
            "best_speedup": None,
            "worst_speedup": None,
        }
    return {
        "per_benchmark": rows,
        "median_speedup": round(statistics.median(speedups), 3),
        "best_speedup": max(speedups),
        "worst_speedup": min(speedups),
    }


def bench_kernel_unit_costs() -> Dict[str, Dict[str, float]]:
    """Microbenchmark: per-call cost of each library kernel per tier."""
    from repro.bigfloat import BigFloat, Context, apply

    x = BigFloat.from_float(0.7346298156)
    y = BigFloat.from_float(2.34964)
    full = Context(precision=FULL_PRECISION)
    working = Context(precision=adaptive_config().working_precision)
    table: Dict[str, Dict[str, float]] = {}
    for op in HEAVY_KERNELS + ("exp", "sqrt"):
        args = [x, y] if op in ("pow", "atan2") else [x]
        row = {}
        for label, context in (("full_us", full), ("working_us", working)):
            rounds = 40
            start = time.perf_counter()
            for __ in range(rounds):
                apply(op, args, context)
            row[label] = round(
                (time.perf_counter() - start) / rounds * 1e6, 1
            )
        row["ratio"] = round(row["full_us"] / max(row["working_us"], 0.01), 2)
        table[op] = row
    return table


def bench_apps() -> Dict:
    """Equivalence + timing on the paper's case-study apps."""
    from repro.apps.pid import build_pid_program
    from repro.apps.plotter import PAPER_REGION, build_plotter_program

    def signature(analysis):
        rows = []
        for record in analysis.candidate_records():
            rows.append((record.site_id, record.op, record.loc,
                         record.executions, record.candidate_executions,
                         record.max_local_error, record.sum_local_error,
                         record.compensations_detected))
        for spot in sorted(analysis.spot_records.values(),
                           key=lambda s: s.site_id):
            rows.append((spot.site_id, spot.kind, spot.loc,
                         spot.executions, spot.erroneous, spot.max_error,
                         sorted(r.site_id for r in spot.influences)))
        return rows

    cases = [
        ("plotter-8x8", build_plotter_program(8, 8),
         [list(PAPER_REGION)]),
        ("pid", build_pid_program(), [[10.0], [4.0], [7.2]]),
    ]
    out = {}
    for name, program, inputs in cases:
        timings = {}
        signatures = {}
        for mode, config in (("fixed", fixed_config()),
                             ("adaptive", adaptive_config())):
            start = time.perf_counter()
            analysis, __ = analyze_program(program, inputs, config=config)
            timings[mode] = time.perf_counter() - start
            signatures[mode] = signature(analysis)
        out[name] = {
            "fixed_seconds": round(timings["fixed"], 4),
            "adaptive_seconds": round(timings["adaptive"], 4),
            "speedup": round(timings["fixed"] / timings["adaptive"], 3),
            "report_identical":
                signatures["fixed"] == signatures["adaptive"],
        }
    return out


def bench_result_cache(cores, points: int, seed: int) -> Dict:
    """Cold batch vs warm (memory) and disk-warm (fresh session) reruns."""
    with tempfile.TemporaryDirectory() as cache_dir:
        session = AnalysisSession(
            config=adaptive_config(), num_points=points, seed=seed,
            cache_dir=cache_dir,
        )
        start = time.perf_counter()
        cold = session.analyze_batch(cores, workers=1)
        cold_time = time.perf_counter() - start

        start = time.perf_counter()
        warm = session.analyze_batch(cores, workers=1)
        warm_time = time.perf_counter() - start

        fresh = AnalysisSession(
            config=adaptive_config(), num_points=points, seed=seed,
            cache_dir=cache_dir,
        )
        start = time.perf_counter()
        disk = fresh.analyze_batch(cores, workers=1)
        disk_time = time.perf_counter() - start

    return {
        "benchmarks": len(cores),
        "cold_seconds": round(cold_time, 4),
        "warm_seconds": round(warm_time, 4),
        "disk_warm_seconds": round(disk_time, 4),
        "warm_fraction_of_cold": round(warm_time / cold_time, 5),
        "disk_fraction_of_cold": round(disk_time / cold_time, 5),
        "warm_identical": results_to_json(cold) == results_to_json(warm),
        "disk_identical": results_to_json(cold) == results_to_json(disk),
    }


def slice_with_loops(corpus: List, count: int) -> List:
    """The first ``count`` benchmarks plus every ``loops`` benchmark.

    The loop family sits at the end of the corpus, and it is the only
    place the adaptive tier decides loop branches on shadow values, so
    a plain prefix would keep those decisions out of the gate.
    """
    head = corpus[:count]
    return head + [
        core for core in corpus[count:]
        if core.properties.get("herbgrind-family") == "loops"
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--points", type=int, default=8,
                        help="input points per corpus benchmark")
    parser.add_argument("--kernel-points", type=int, default=32,
                        help="input points for the kernel suite")
    parser.add_argument("--slice", type=int, default=None,
                        help="limit the corpus to its first N benchmarks; "
                             "the 'loops' family is always kept, so the "
                             "identity gate still sees real-valued loop "
                             "branch comparisons")
    parser.add_argument("--repeat", type=int, default=1,
                        help="timing repetitions (min is reported)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--skip-apps", action="store_true",
                        help="skip the case-study app benchmarks")
    parser.add_argument("--out", default="BENCH_precision.json")
    parser.add_argument("--require-speedup", type=float, default=None,
                        help="fail unless the kernel-suite median "
                             "speedup reaches this factor")
    args = parser.parse_args(argv)

    corpus = load_corpus()
    if args.slice is not None:
        corpus = slice_with_loops(corpus, args.slice)
    kernel_suite = [c for c in corpus if is_kernel_bound(c)]

    print(f"corpus: {len(corpus)} benchmarks "
          f"({len(kernel_suite)} kernel-bound), "
          f"fixed tier = {FULL_PRECISION} bits")

    report = {
        "schema_version": 1,
        "settings": {
            "full_precision": FULL_PRECISION,
            "working_precision": adaptive_config().working_precision,
            "guard_bits": GUARD_BITS,
            "points": args.points,
            "kernel_points": args.kernel_points,
            "seed": args.seed,
            "repeat": args.repeat,
            "corpus_size": len(corpus),
        },
        "suites": {},
    }

    report["kernel_unit_costs"] = bench_kernel_unit_costs()

    report["suites"]["corpus"] = bench_corpus(
        corpus, args.points, args.seed, args.repeat
    )
    rows = dict(report["suites"]["corpus"]["by_family"],
                corpus=report["suites"]["corpus"])
    for name, row in rows.items():
        print(f"{name:<13}: fixed {row['fixed_seconds']}s"
              f" adaptive {row['adaptive_seconds']}s"
              f" ({row['aggregate_speedup']}x,"
              f" {row['escalations'].get('escalations', 0)} escalations)"
              f" identical={row['report_identical']}")

    kernel = bench_suite(
        "kernel", kernel_suite, args.kernel_points, args.seed, args.repeat
    )
    kernel.update(bench_kernel_details(
        kernel_suite, args.kernel_points, args.seed, args.repeat
    ))
    report["suites"]["kernel"] = kernel
    print(f"kernel : fixed {kernel['fixed_seconds']}s"
          f" adaptive {kernel['adaptive_seconds']}s"
          f" (aggregate {kernel['aggregate_speedup']}x,"
          f" median {kernel['median_speedup']}x)"
          f" identical={kernel['report_identical']}")

    if not args.skip_apps:
        report["suites"]["apps"] = bench_apps()
        for name, row in report["suites"]["apps"].items():
            print(f"app    : {name} {row['speedup']}x"
                  f" identical={row['report_identical']}")

    report["result_cache"] = bench_result_cache(
        corpus, args.points, args.seed
    )
    cache = report["result_cache"]
    print(f"cache  : cold {cache['cold_seconds']}s"
          f" warm {cache['warm_seconds']}s"
          f" ({cache['warm_fraction_of_cold'] * 100:.2f}% of cold),"
          f" disk {cache['disk_warm_seconds']}s")

    #: The headline number: median per-benchmark wall-clock speedup on
    #: the precision-bound suite.
    report["speedup"] = kernel["median_speedup"]

    failures = []
    for name, suite in report["suites"].items():
        if isinstance(suite, dict) and "report_identical" in suite:
            if not suite["report_identical"]:
                failures.append(f"suite {name} not report-identical")
        else:
            for app, row in suite.items():
                if not row["report_identical"]:
                    failures.append(f"app {app} not report-identical")
    if not cache["warm_identical"] or not cache["disk_identical"]:
        failures.append("cache rerun not byte-identical")
    if cache["warm_fraction_of_cold"] >= 0.10:
        failures.append(
            f"warm rerun took {cache['warm_fraction_of_cold'] * 100:.1f}% "
            "of cold (budget: < 10%)"
        )
    if args.require_speedup is not None and (
        report["speedup"] is None
        or report["speedup"] < args.require_speedup
    ):
        failures.append(
            f"kernel-suite median speedup {report['speedup']}x below "
            f"required {args.require_speedup}x"
        )

    report["failures"] = failures
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}; headline speedup {report['speedup']}x")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
