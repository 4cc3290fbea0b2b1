#!/usr/bin/env python3
"""Tracer fast path: per-op overhead, layer attribution, and parity.

PR 2 measured that the corpus is *interpreter/anti-unification-bound*:
per-op tracer overhead (Python dispatch, trace-node allocation, the
anti-unify walk) dominates everything else.  This benchmark measures
the compiled fast path that attacks all three layers and emits
``BENCH_tracer.json``:

* **Per-op overhead vs native** — uninstrumented (no-op tracer)
  execution per engine, and fully traced execution, reported in
  microseconds per floating-point operation.
* **End-to-end wall-clock** — the interpreter-bound corpus suite (the
  loop benchmarks plus the most operation-heavy straight-line
  benchmarks) per engine stack, with **per-stack attribution**:

  - ``reference``  — the reference engine (every fast layer off),
  - ``sequential`` — the compiled engine with lockstep batching off
    (trace pool, fused per-op pipeline, steady-state anti-unification),
  - ``batched``    — + lockstep multi-point execution (= the full
    compiled engine; loop benchmarks fall back per-point, so the
    batched gain concentrates in the straight-line suite).

* **Hardware shadow tier** (``hw_tier``) — adaptive-policy per-op cost
  with the double-double hardware tier on vs off, measured on a
  synthetic kernel-bound straight-line core where shadow arithmetic
  dominates tracing, with per-tier residency counters and
  promotion/escalation rates from the hw-on run.
* **Parity gate** — identical analysis signatures across the three
  stacks, and byte-identical ``AnalysisResult`` JSON between the
  compiled and reference engines, under both precision policies.  Any
  mismatch fails the run.
* **Live baseline** (optional, ``--baseline-rev``; default the PR-4
  commit) — checks out the baseline tree in a temporary git worktree
  and times *its* analysis on the same suite/points/seed, so the
  headline speedup is measured against the actual predecessor rather
  than remembered numbers.  Without git, the current reference engine
  is the (conservative) stand-in.
* **Floor regression gate** (``--gate-regression FACTOR``) — reads the
  previously committed ``per_op_floor_ns`` out of ``--out`` before
  overwriting it and fails when the fresh floor exceeds the committed
  one by more than FACTOR (CI uses 1.3x).  The committed floor is
  scaled by the ratio of native (uninstrumented) per-op speeds first,
  so the gate compares analysis overhead, not the runner's clock.

Usage::

    PYTHONPATH=src python benchmarks/bench_tracer_overhead.py \
        [--points 8] [--suite-size 12] [--repeat 2] [--parity-points 3] \
        [--out BENCH_tracer.json] [--require-speedup 1.5] \
        [--baseline-rev <git-rev>] [--skip-baseline] \
        [--gate-regression 1.3]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from repro.api import AnalysisSession, results_to_json
from repro.core import AnalysisConfig, analyze_program
from repro.fpcore import load_corpus
from repro.fpcore.parser import parse_fpcore
from repro.fpcore.printer import format_fpcore
from repro.machine import CompiledProgram, Interpreter, compile_fpcore
from repro.api.sampling import sample_inputs

#: The engine stacks, slowest first: (label, engine, batched).  The
#: reference engine runs no fast layer; the compiled engine runs them
#: all, with lockstep batching off ("sequential") or on ("batched", the
#: default compiled engine).
LAYERS = (
    ("reference", "reference", False),
    ("sequential", "compiled", False),
    ("batched", "compiled", True),
)


def run_stack(program, sampled, stack, policy: str = "fixed"):
    """``analyze_program`` under one :data:`LAYERS` stack."""
    __, engine, batched = stack
    config = AnalysisConfig(engine=engine, precision_policy=policy,
                            batched=batched)
    return analyze_program(program, sampled, config=config)


def select_suites(corpus, points: int, seed: int, size: int):
    """The two measurement suites.

    * ``loops`` — the interpreter-bound suite: benchmarks with loops,
      whose deep trace DAGs make per-op tracer overhead (dispatch,
      trace allocation, anti-unification) the dominant cost.  This is
      the suite the fast path targets and the headline median.
    * ``straightline`` — the most operation-heavy straight-line
      benchmarks ("heavy" is measured: executed float operations under
      native execution).  Their shallow traces spend proportionally
      more time in 1000-bit shadow arithmetic, which the tracer fast
      path deliberately leaves untouched; reported separately so the
      headline measures what the PR changes.
    """
    weights = []
    for core in corpus:
        program = compile_fpcore(core)
        compiled = CompiledProgram(program)
        ops = 0
        for point in sample_inputs(core, points, seed=seed):
            compiled.run(point)
            ops += compiled.stats.float_ops + compiled.stats.library_calls
        weights.append((ops, core))
    loops = [core for __, core in weights if "(while" in format_fpcore(core)]
    straight = sorted(
        (
            (ops, core) for ops, core in weights
            if "(while" not in format_fpcore(core)
        ),
        key=lambda pair: -pair[0],
    )
    straightline = [
        core for __, core in straight[: max(0, size - len(loops))]
    ]
    return loops, straightline


def bench_native_overhead(suite, points: int, seed: int, repeat: int) -> Dict:
    """Per-op cost: native per engine, and fully traced (compiled)."""
    rows = {"reference_native": 0.0, "compiled_native": 0.0,
            "compiled_traced": 0.0, "reference_traced": 0.0}
    total_ops = 0
    for core in suite:
        program = compile_fpcore(core)
        sampled = sample_inputs(core, points, seed=seed)
        compiled = CompiledProgram(program)
        for point in sampled:
            compiled.run(point)
            total_ops += compiled.stats.float_ops + compiled.stats.library_calls

        def timed(run_once) -> float:
            best = None
            for __ in range(repeat):
                start = time.perf_counter()
                run_once()
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            return best

        rows["compiled_native"] += timed(
            lambda: [compiled.run(p) for p in sampled]
        )
        rows["reference_native"] += timed(
            lambda: [Interpreter(program).run(p) for p in sampled]
        )
        for label, engine in (("compiled_traced", "compiled"),
                              ("reference_traced", "reference")):
            config = AnalysisConfig(engine=engine)
            rows[label] += timed(
                lambda: analyze_program(
                    program, sampled, config=config
                )
            )
    out = {"executed_float_ops": total_ops}
    for label, seconds in rows.items():
        out[label + "_us_per_op"] = round(seconds / max(total_ops, 1) * 1e6, 3)
        out[label + "_seconds"] = round(seconds, 4)
    native = out["compiled_native_us_per_op"]
    #: The per-op analysis floor: fully traced compiled-engine cost per
    #: executed float operation, in nanoseconds (the regression gate's
    #: metric).
    out["per_op_floor_ns"] = round(out["compiled_traced_us_per_op"] * 1000.0)
    out["tracer_overhead_factor_compiled"] = round(
        out["compiled_traced_us_per_op"] / max(native, 1e-9), 1
    )
    out["tracer_overhead_factor_reference"] = round(
        out["reference_traced_us_per_op"] / max(native, 1e-9), 1
    )
    return out


def bench_layers(suite, points: int, seed: int, repeat: int) -> Dict:
    """Per-benchmark, per-stack steady-state analysis times.

    Repetitions are *interleaved* across the stacks (reference,
    sequential, batched all timed once per round, best-of-rounds
    reported) so slow drift in machine load hits every stack equally
    instead of skewing the ratios.
    """
    per_benchmark = []
    for core in suite:
        program = compile_fpcore(core)
        sampled = sample_inputs(core, points, seed=seed)
        best: Dict[str, float] = {}
        for stack in LAYERS:  # warm every stack once
            run_stack(program, sampled, stack)
        for __ in range(max(1, repeat)):
            for stack in LAYERS:
                start = time.perf_counter()
                run_stack(program, sampled, stack)
                elapsed = time.perf_counter() - start
                label = stack[0]
                if label not in best or elapsed < best[label]:
                    best[label] = elapsed
        row = {"benchmark": core.name}
        for label, *__ in LAYERS:
            row[label + "_seconds"] = round(best[label], 4)
        outer = LAYERS[-1][0]
        row["speedup_vs_reference"] = round(
            row["reference_seconds"] / max(row[outer + "_seconds"], 1e-9), 3
        )
        per_benchmark.append(row)
    speedups = [row["speedup_vs_reference"] for row in per_benchmark]
    attribution = {}
    previous = "reference"
    for label, *__ in LAYERS[1:]:
        gains = [
            row[previous + "_seconds"] / max(row[label + "_seconds"], 1e-9)
            for row in per_benchmark
        ]
        attribution[label] = {
            "median_incremental_speedup": round(statistics.median(gains), 3),
        }
        previous = label
    return {
        "per_benchmark": sorted(
            per_benchmark, key=lambda r: -r["speedup_vs_reference"]
        ),
        "median_speedup_vs_reference": round(statistics.median(speedups), 3),
        "best_speedup_vs_reference": max(speedups),
        "worst_speedup_vs_reference": min(speedups),
        "layer_attribution": attribution,
    }


def bench_batched_per_op(suite, points: int, seed: int, repeat: int) -> Dict:
    """Straight-line per-op cost, batched on vs off.

    The headline number for lockstep execution: the compiled engine,
    with only the batched layer toggled, on the suite where it actually
    engages (loop benchmarks fall back per-point).
    """
    on = LAYERS[-1]
    off = LAYERS[-2]
    total_ops = 0
    seconds = {"batched": 0.0, "unbatched": 0.0}
    for core in suite:
        program = compile_fpcore(core)
        sampled = sample_inputs(core, points, seed=seed)
        compiled = CompiledProgram(program)
        for point in sampled:
            compiled.run(point)
            total_ops += compiled.stats.float_ops + compiled.stats.library_calls
        for label, stack in (("batched", on), ("unbatched", off)):
            # Warm caches outside the timed region.
            run_stack(program, sampled, stack)
            best = None
            for __ in range(max(1, repeat)):
                start = time.perf_counter()
                run_stack(program, sampled, stack)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            seconds[label] += best
    out = {"executed_float_ops": total_ops}
    for label, secs in seconds.items():
        out[label + "_us_per_op"] = round(secs / max(total_ops, 1) * 1e6, 3)
    out["batched_speedup"] = round(
        seconds["unbatched"] / max(seconds["batched"], 1e-9), 3
    )
    return out


def _kernel_bound_core():
    """A deep straight-line arithmetic core for the hw-tier headline.

    The corpus straight-line benchmarks are shallow enough that
    sampling, tracing, and reporting dilute the shadow-kernel cost this
    measurement targets, so the hw-tier row uses a synthetic core:
    well-conditioned rational arithmetic nested three deep, which keeps
    every operation on the double-double fast path (no transcendental
    promotes) while still exercising +, -, *, and /.
    """
    expr = "(* (+ x y) (/ (- x y) (+ (* x x) (* y y))))"
    for __ in range(3):
        expr = f"(+ (* {expr} x) (/ {expr} y))"
    return parse_fpcore(
        '(FPCore (x y) :name "hw-kernel-bound" '
        ":pre (and (<= 1 x 2) (<= 1 y 2)) " + expr + ")"
    )


def bench_hw_tier(points: int, seed: int, repeat: int) -> Dict:
    """Adaptive per-op cost, hardware shadow tier on vs off.

    Both configurations run the full compiled/batched stack; only
    ``hw_tier`` is toggled, so the ratio isolates the double-double
    bottom rung.  Repetitions are interleaved (hw-on and hw-off timed
    once per round, best-of-rounds reported) so machine drift hits both
    configurations equally.  The hw-on run's tier residency counters
    are reported alongside, with the promotion and escalation rates
    that explain how much work stayed on the hardware tier.
    """
    core = _kernel_bound_core()
    program = compile_fpcore(core)
    sampled = sample_inputs(core, points, seed=seed)
    compiled = CompiledProgram(program)
    total_ops = 0
    for point in sampled:
        compiled.run(point)
        total_ops += compiled.stats.float_ops + compiled.stats.library_calls
    configs = (
        ("hw_on", AnalysisConfig(precision_policy="adaptive", hw_tier=True)),
        ("hw_off", AnalysisConfig(precision_policy="adaptive",
                                  hw_tier=False)),
    )
    residency = {}
    signatures = {}
    for label, config in configs:  # warm caches outside the timed region
        analysis, __ = analyze_program(program, sampled, config=config)
        signatures[label] = _signature_json(analysis)
        if label == "hw_on":
            residency = analysis.tier_residency()
    best: Dict[str, float] = {}
    for __ in range(max(1, repeat)):
        for label, config in configs:
            start = time.perf_counter()
            analyze_program(program, sampled, config=config)
            elapsed = time.perf_counter() - start
            if label not in best or elapsed < best[label]:
                best[label] = elapsed
    out = {
        "benchmark": core.name,
        "points": points,
        "executed_float_ops": total_ops,
        "parity_identical": signatures["hw_on"] == signatures["hw_off"],
    }
    for label, seconds in best.items():
        out[label + "_us_per_op"] = round(
            seconds / max(total_ops, 1) * 1e6, 3
        )
        out[label + "_seconds"] = round(seconds, 4)
    out["hw_speedup"] = round(best["hw_off"] / max(best["hw_on"], 1e-9), 3)
    kernel_ops = residency.get("hw_kernel_ops", 0)
    promotions = residency.get("hw_promotions", 0)
    out["tier_residency"] = residency
    #: Fraction of hardware-tier kernel attempts the kernels declined
    #: (returned None), sending the operation to the working tier.
    out["hw_promotion_rate"] = round(
        promotions / max(kernel_ops + promotions, 1), 6
    )
    #: Escalations (rounding ties, comparisons, integer conversions,
    #: drift-bound violations) per accepted hardware kernel result.
    out["escalation_rate"] = round(
        residency.get("escalations", 0) / max(kernel_ops, 1), 6
    )
    return out


def bench_parity(suite, points: int, seed: int) -> Dict:
    """Identical results across the three stacks and both policies."""
    failures = []
    for policy in ("fixed", "adaptive"):
        baseline = None
        for stack in LAYERS:
            label = stack[0]
            serialized = []
            for core in suite:
                program = compile_fpcore(core)
                sampled = sample_inputs(core, points, seed=seed)
                analysis, __ = run_stack(program, sampled, stack, policy)
                serialized.append(_signature_json(analysis))
            blob = "\n".join(serialized)
            if baseline is None:
                baseline = blob
            elif blob != baseline:
                failures.append(f"{policy}/{label} diverged from reference")
    # The session-level byte-for-byte check on full AnalysisResult JSON.
    for policy in ("fixed", "adaptive"):
        outputs = {}
        for engine in ("compiled", "reference"):
            session = AnalysisSession(
                config=AnalysisConfig(
                    precision_policy=policy, engine=engine
                ),
                num_points=points, seed=seed, result_cache_size=0,
            )
            outputs[engine] = results_to_json(
                session.analyze_batch(suite, workers=1)
            )
        if outputs["compiled"] != outputs["reference"]:
            failures.append(f"{policy}: result JSON not byte-identical")
    return {"identical": not failures, "failures": failures}


def _signature_json(analysis) -> str:
    rows = []
    for record in analysis.candidate_records():
        rows.append([
            record.site_id, record.op, record.loc, record.executions,
            record.candidate_executions, record.max_local_error,
            record.sum_local_error, record.compensations_detected,
            str(record.symbolic_expression),
        ])
    for spot in sorted(analysis.spot_records.values(), key=lambda s: s.site_id):
        rows.append([
            spot.site_id, spot.kind, spot.loc, spot.executions,
            spot.erroneous, spot.max_error,
            sorted(r.site_id for r in spot.influences),
        ])
    return json.dumps(rows, sort_keys=True)


BASELINE_TIMING_SCRIPT = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from repro.api import AnalysisSession
from repro.core import AnalysisConfig
from repro.fpcore.parser import parse_fpcore

spec = json.load(open(sys.argv[2]))
rows = {}
for source in spec["cores"]:
    core = parse_fpcore(source)
    session = AnalysisSession(
        num_points=spec["points"], seed=spec["seed"], result_cache_size=0
    )
    session.analyze(core)  # warm compile/sampling caches
    best = None
    for _ in range(spec["repeat"]):
        start = time.perf_counter()
        session.analyze(core)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    rows[core.name] = best
json.dump(rows, open(sys.argv[3], "w"))
"""


def _time_in_subprocess(
    src_path: str, scratch: str, tag: str, suite, points: int, seed: int,
    repeat: int,
) -> Optional[Dict[str, float]]:
    """Per-benchmark steady-state seconds, measured by a fresh process
    importing ``src_path`` — the same script for every code version, so
    baseline and current measurements share one methodology and one
    machine state."""
    spec = {
        "cores": [format_fpcore(core) for core in suite],
        "points": points, "seed": seed, "repeat": max(1, repeat),
    }
    spec_path = os.path.join(scratch, f"spec-{tag}.json")
    out_path = os.path.join(scratch, f"times-{tag}.json")
    script_path = os.path.join(scratch, "time_session.py")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    if not os.path.exists(script_path):
        with open(script_path, "w", encoding="utf-8") as handle:
            handle.write(BASELINE_TIMING_SCRIPT)
    try:
        subprocess.run(
            [sys.executable, script_path, src_path, spec_path, out_path],
            check=True, capture_output=True, timeout=3600,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired):
        return None
    with open(out_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def bench_live_baseline(
    suite, points: int, seed: int, repeat: int, rev: str
) -> Optional[Dict]:
    """Time the baseline revision and the current code on the same
    work, each in a fresh subprocess via the same script (the baseline
    from a git worktree), interleaved so machine drift cancels."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(repo_root, ".git")):
        return None
    with tempfile.TemporaryDirectory() as scratch:
        worktree = os.path.join(scratch, "baseline")
        try:
            subprocess.run(
                ["git", "-C", repo_root, "worktree", "add", "--detach",
                 worktree, rev],
                check=True, capture_output=True,
            )
        except (subprocess.CalledProcessError, FileNotFoundError):
            return None
        try:
            current_src = os.path.join(repo_root, "src")
            base_src = os.path.join(worktree, "src")
            rounds = []
            for index in range(2):  # two interleaved rounds, best-of
                base = _time_in_subprocess(
                    base_src, scratch, f"base-{index}", suite, points, seed,
                    repeat,
                )
                now = _time_in_subprocess(
                    current_src, scratch, f"now-{index}", suite, points,
                    seed, repeat,
                )
                if base is None or now is None:
                    return None
                rounds.append((base, now))
            base_best = {
                name: min(r[0][name] for r in rounds) for name in rounds[0][0]
            }
            now_best = {
                name: min(r[1][name] for r in rounds) for name in rounds[0][1]
            }
            return {
                "rev": rev,
                "seconds_by_benchmark": base_best,
                "current_seconds_by_benchmark": now_best,
            }
        finally:
            subprocess.run(
                ["git", "-C", repo_root, "worktree", "remove", "--force",
                 worktree],
                capture_output=True,
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--points", type=int, default=8,
                        help="input points per benchmark for timing")
    parser.add_argument("--parity-points", type=int, default=3,
                        help="input points for the parity gate")
    parser.add_argument("--suite-size", type=int, default=12,
                        help="size of the interpreter-bound suite")
    parser.add_argument("--repeat", type=int, default=2,
                        help="timing repetitions (min is reported)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_tracer.json")
    parser.add_argument("--require-speedup", type=float, default=None,
                        help="fail unless the suite's median speedup vs "
                             "the live baseline (or, without git, the "
                             "reference engine) reaches this factor")
    parser.add_argument("--hw-points", type=int, default=32,
                        help="input points for the hw-tier row (the "
                             "lanes of its one batched run)")
    parser.add_argument("--require-hw-speedup", type=float, default=None,
                        metavar="FACTOR",
                        help="fail unless the kernel-bound hw-tier "
                             "speedup reaches this factor")
    parser.add_argument("--baseline-rev", default="7ba76a9",
                        help="git revision of the live baseline "
                             "(default: the PR-4 commit)")
    parser.add_argument("--skip-baseline", action="store_true",
                        help="skip the live baseline measurement")
    parser.add_argument("--gate-regression", type=float, default=None,
                        metavar="FACTOR",
                        help="fail when the fresh per-op floor exceeds "
                             "the committed per_op_floor_ns in --out by "
                             "more than FACTOR (e.g. 1.3)")
    args = parser.parse_args(argv)

    committed_floor_ns = None
    committed_native_us = None
    if args.gate_regression is not None and os.path.exists(args.out):
        try:
            with open(args.out, "r", encoding="utf-8") as handle:
                committed = json.load(handle)
            committed_floor_ns = committed.get("per_op_overhead", {}).get(
                "per_op_floor_ns"
            )
            committed_native_us = committed.get("per_op_overhead", {}).get(
                "compiled_native_us_per_op"
            )
        except (OSError, ValueError):
            committed_floor_ns = None

    corpus = load_corpus()
    loops, straightline = select_suites(
        corpus, args.points, args.seed, args.suite_size
    )
    everything = loops + straightline
    print(f"interpreter-bound suite: {len(loops)} loop benchmarks "
          f"({', '.join(core.name for core in loops)}); "
          f"{len(straightline)} op-heavy straight-line benchmarks")

    report = {
        "schema_version": 1,
        "settings": {
            "points": args.points,
            "parity_points": args.parity_points,
            "seed": args.seed,
            "repeat": args.repeat,
            "interpreter_bound_suite": [core.name for core in loops],
            "straightline_suite": [core.name for core in straightline],
        },
    }

    report["per_op_overhead"] = bench_native_overhead(
        everything, args.points, args.seed, args.repeat
    )
    o = report["per_op_overhead"]
    print(f"native : reference {o['reference_native_us_per_op']}us/op,"
          f" compiled {o['compiled_native_us_per_op']}us/op")
    print(f"traced : reference {o['reference_traced_us_per_op']}us/op,"
          f" compiled {o['compiled_traced_us_per_op']}us/op"
          f" (overhead {o['tracer_overhead_factor_compiled']}x native)")

    # The PR-2 subprocess runs immediately before the layer timings so
    # both phases see the same machine state; ratios across phases are
    # then meaningful.
    baseline = None
    if not args.skip_baseline:
        baseline = bench_live_baseline(
            everything, args.points, args.seed, args.repeat,
            args.baseline_rev
        )

    report["suites"] = {}
    for label, suite in (("loops", loops), ("straightline", straightline)):
        layers = bench_layers(suite, args.points, args.seed, args.repeat)
        report["suites"][label] = layers
        print(f"{label:7s}: median {layers['median_speedup_vs_reference']}x"
              f" vs reference engine; attribution "
              + ", ".join(
                  f"{k}={v['median_incremental_speedup']}x"
                  for k, v in layers["layer_attribution"].items()
              ))

    report["batched_per_op"] = bench_batched_per_op(
        straightline, args.points, args.seed, args.repeat
    )
    b = report["batched_per_op"]
    print(f"batched: straight-line {b['batched_us_per_op']}us/op vs "
          f"{b['unbatched_us_per_op']}us/op unbatched "
          f"({b['batched_speedup']}x)")

    # The hw-tier row times a ~tens-of-ms workload, so best-of needs
    # more rounds than the big suites to converge; five rounds still
    # cost well under a second.
    report["hw_tier"] = bench_hw_tier(
        args.hw_points, args.seed, max(args.repeat, 5)
    )
    h = report["hw_tier"]
    print(f"hw tier: kernel-bound {h['hw_on_us_per_op']}us/op vs "
          f"{h['hw_off_us_per_op']}us/op without the hardware tier "
          f"({h['hw_speedup']}x); promotion rate "
          f"{h['hw_promotion_rate']}, escalation rate "
          f"{h['escalation_rate']}, parity={h['parity_identical']}")

    report["parity"] = bench_parity(
        everything, args.parity_points, args.seed
    )
    print(f"parity : identical={report['parity']['identical']}")
    if baseline is not None:
        current = baseline["current_seconds_by_benchmark"]
        for label in ("loops", "straightline"):
            layers = report["suites"][label]
            names = {row["benchmark"] for row in layers["per_benchmark"]}
            ratios = [
                seconds / max(current[name], 1e-9)
                for name, seconds in baseline["seconds_by_benchmark"].items()
                if name in names and name in current
            ]
            layers["median_speedup_vs_baseline"] = round(
                statistics.median(ratios), 3
            ) if ratios else None
        report["baseline"] = baseline
        report["speedup"] = report["suites"]["loops"][
            "median_speedup_vs_baseline"
        ]
        print(f"base   : interpreter-bound median vs live baseline "
              f"({baseline['rev']}): {report['speedup']}x; straight-line "
              f"{report['suites']['straightline']['median_speedup_vs_baseline']}x")
    else:
        report["baseline"] = None
        report["speedup"] = report["suites"]["loops"][
            "median_speedup_vs_reference"
        ]
        print("base   : live baseline unavailable; using the reference "
              "engine as the (conservative) baseline")

    failures = list(report["parity"]["failures"])
    floor_ns = report["per_op_overhead"]["per_op_floor_ns"]
    report["committed_floor_ns"] = committed_floor_ns
    if committed_floor_ns is not None and args.gate_regression is not None:
        # The committed floor was measured on a different machine;
        # absolute ns are not portable.  Scale the committed value by
        # this machine's native (uninstrumented compiled-engine) speed
        # relative to the committed run's — the gate then measures the
        # analysis overhead ratio, not the runner's clock.
        scale = 1.0
        fresh_native = report["per_op_overhead"]["compiled_native_us_per_op"]
        if committed_native_us and fresh_native:
            scale = fresh_native / committed_native_us
        limit = committed_floor_ns * scale * args.gate_regression
        report["floor_gate"] = {
            "committed_floor_ns": committed_floor_ns,
            "machine_scale": round(scale, 3),
            "limit_ns": round(limit),
        }
        if floor_ns > limit:
            failures.append(
                f"per-op floor {floor_ns}ns regressed more than "
                f"{args.gate_regression}x over the committed "
                f"{committed_floor_ns}ns (machine-normalized limit "
                f"{round(limit)}ns)"
            )
    if args.require_speedup is not None and (
        report["speedup"] is None or report["speedup"] < args.require_speedup
    ):
        failures.append(
            f"median speedup {report['speedup']}x below required "
            f"{args.require_speedup}x"
        )
    if not report["hw_tier"]["parity_identical"]:
        failures.append(
            "hw_tier: analysis signatures diverge between hw on and off"
        )
    if args.require_hw_speedup is not None and (
        report["hw_tier"]["hw_speedup"] < args.require_hw_speedup
    ):
        failures.append(
            f"hw-tier speedup {report['hw_tier']['hw_speedup']}x below "
            f"required {args.require_hw_speedup}x"
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
