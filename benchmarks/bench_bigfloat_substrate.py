"""BigFloat substrate benchmark: native kernels vs the python reference.

Measures what PR 4 changes — the cost of the shadow-real kernel layer —
and gates on what it must preserve: byte-identical corpus reports
across ``substrate`` x ``engine`` x ``precision_policy``.

Sections (all recorded in ``BENCH_bigfloat.json``):

* **Kernel unit costs** — per-call cost of each library kernel at the
  paper's 1000-bit shadow precision, per substrate.
* **Op-heavy straight-line suite** — the headline: synthetic
  straight-line programs dominated by library-kernel shadow
  evaluation, one dense chain per kernel family (exp included, where
  the mpmath provider wins least).  Reported: per-benchmark
  steady-state speedup of the native substrate and the suite median.
* **Kernel-dominated corpus benchmarks** — the same measurement on
  real corpus benchmarks whose *measured* kernel time share is at
  least half (via a null-kernel floor run).
* **All kernel-bound corpus benchmarks** — and on every straight-line
  corpus benchmark containing a library kernel, dominant or not, so
  nothing is curated away.
* **Parity gate** — byte-identical ``AnalysisResult`` JSON for
  substrate x engine x policy over a corpus slice; the benchmark
  *fails* on any mismatch.

Usage:
    PYTHONPATH=src python benchmarks/bench_bigfloat_substrate.py \
        [--points 8] [--repeat 3] [--slice N] [--parity-points 3] \
        [--min-sample-ms 5] [--out BENCH_bigfloat.json]

CI runs a small-budget smoke subset; the checked-in BENCH_bigfloat.json
comes from a full local run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import AnalysisSession, results_to_json
from repro.api.sampling import sample_inputs
from repro.bigfloat import (
    BigFloat,
    Context,
    get_backend,
    substrate_provider,
)
from repro.core import AnalysisConfig
from repro.core.analysis import analyze_program
from repro.fpcore import load_corpus, parse_fpcore
from repro.fpcore.printer import format_fpcore
from repro.machine import compile_fpcore

SHADOW_PRECISION = 1000

#: Library kernels whose shadow evaluation costs far more than basic
#: arithmetic at the shadow precision: the unit-cost table, the
#: kernel-bound corpus selection and the null-kernel floor cover these.
LIBRARY_KERNELS = frozenset(
    {
        "exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
        "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
        "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
        "pow", "cbrt", "hypot",
    }
)

#: The op-heavy straight-line suite: synthetic dense chains of library
#: kernels over the inputs — straight-line programs whose cost is, by
#: construction, dominated by shadow-kernel evaluation (the regime the
#: native substrate targets, and the cost profile PR 3 identified as
#: the remaining floor).  One chain per kernel family, *including* the
#: exp family where the mpmath provider wins least, so the median is
#: not curated around the substrate's weak spot.  Preconditions keep
#: every call on its general path.
SYNTHETIC_SUITE = [
    """(FPCore (x y) :name "synth-log-chain" :pre (and (<= 1.5 x 40) (<= 1.5 y 40))
        (log (* (log (* x y)) (* (log (* x 2)) (* (log (* y 3))
         (* (log (+ x y)) (* (log (+ 1 (* x y)))
         (* (log (+ 2 (* x 3))) (* (log (+ 3 (* y 2)))
            (log (+ x (* 2 y))))))))))))""",
    """(FPCore (x y) :name "synth-exp-chain" :pre (and (<= 0.2 x 1.4) (<= 0.2 y 1.4))
        (+ (exp (* x y)) (+ (exp (- x y)) (+ (expm1 (* 0.5 x))
           (+ (exp2 (+ x y)) (+ (exp (/ x (+ y 1)))
           (+ (expm1 (* 0.25 y)) (+ (exp (* 0.75 (+ x y)))
           (+ (exp2 (- x (* 2 y))) (+ (exp (* 1.25 x))
           (+ (expm1 (* 0.125 (+ x y))) (+ (exp (* 0.3 y))
           (+ (exp2 (* 0.6 x)) (+ (exp (- y (* 0.5 x)))
              (expm1 (* 0.4 (- x y)))))))))))))))))""",
    """(FPCore (x y) :name "synth-trig-mix" :pre (and (<= 0.3 x 1.2) (<= 0.3 y 1.2))
        (+ (* (sin x) (cos y)) (+ (* (tan x) (sin y))
           (+ (* (cos x) (tan y)) (+ (* (sin (+ x y)) (cos (- x y)))
           (+ (* (sin (* 2 x)) (cos (* 2 y))) (* (tan (* 0.5 (+ x y)))
              (sin (* x y)))))))))""",
    """(FPCore (x y) :name "synth-pow-ladder" :pre (and (<= 1.1 x 3) (<= 0.2 y 2.5))
        (+ (pow x y) (+ (pow x (+ y 0.5)) (+ (pow (+ x 1) y)
           (+ (pow (+ x 0.5) (+ y 0.25)) (+ (pow x (* 0.75 y))
           (pow (+ x 0.25) (+ y 0.75))))))))""",
    """(FPCore (x y) :name "synth-atan-field" :pre (and (<= 0.4 x 6) (<= 0.4 y 6))
        (+ (atan2 y x) (+ (atan (* x y)) (+ (atan2 x (+ y 1))
           (+ (atan (/ x y)) (+ (atan2 (+ x y) (* x y))
           (+ (atan (+ x (* 2 y))) (+ (asin (/ x (+ (+ x y) 1)))
           (+ (acos (/ y (+ (+ x y) 1))) (+ (atan (* 3 (+ x y)))
           (+ (atan2 (* 2 y) (+ x 3)) (+ (asin (/ y (+ (+ x y) 2)))
           (+ (acos (/ x (+ (+ x y) 3))) (+ (atan (/ (+ x 1) (+ y 1)))
              (atan2 (- x y) (+ (* x y) 1))))))))))))))))""",
    """(FPCore (x y) :name "synth-hyper-chain" :pre (and (<= 0.4 x 2) (<= 0.4 y 2))
        (+ (tanh (* x y)) (+ (asinh (+ x y)) (+ (acosh (+ 1.5 (* x y)))
           (+ (atanh (/ x (+ (+ x y) 1))) (+ (asinh (* x 3))
           (+ (acosh (+ 2 x)) (+ (atanh (/ y (+ (+ x y) 2)))
           (+ (sinh (* 0.5 (+ x y))) (+ (asinh (* 5 y))
           (+ (acosh (+ 3 (* 2 y))) (+ (atanh (/ (* 0.5 x) (+ y 1)))
           (+ (asinh (/ x y)) (+ (acosh (+ 1.25 x))
              (cosh (* 0.75 (- x y)))))))))))))))))""",
    """(FPCore (x y) :name "synth-root-chain" :pre (and (<= 0.5 x 9) (<= 0.5 y 9))
        (+ (cbrt (* x y)) (+ (hypot x y) (+ (cbrt (+ x (* 2 y)))
           (+ (hypot (+ x 1) (+ y 2)) (+ (cbrt (/ x y))
           (+ (hypot (* 2 x) (* 3 y)) (+ (cbrt (+ (* 3 x) y))
           (+ (cbrt (* 0.5 (+ x y))) (+ (cbrt (+ 1 (* x x)))
           (+ (hypot (+ x y) (* x y)) (+ (cbrt (* 7 y))
              (cbrt (/ (+ x 2) (+ y 2)))))))))))))))""",
    """(FPCore (x y) :name "synth-log-pow-mix" :pre (and (<= 1.2 x 20) (<= 1.2 y 20))
        (/ (log (pow x y)) (+ (log2 (* x y)) (+ (log10 (+ x y))
           (+ (log1p (* 0.5 (* x y))) (+ (log2 (+ 1 (* x 2)))
           (+ (log10 (+ 2 (* y 3))) (pow (+ x y) 0.375))))))))""",
]

def _steady_seconds(fn, repeat: int, min_sample_ms: float) -> float:
    """Best-of-``repeat`` wall-clock of ``fn``, with each sample batched
    until it lasts at least ``min_sample_ms`` (per-call time returned)."""
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed * 1000 >= min_sample_ms or calls >= 1 << 14:
            break
        scale = max(2.0, (min_sample_ms / 1000) / max(elapsed, 1e-9) * 1.2)
        calls = min(1 << 14, int(calls * scale) + 1)
    best = elapsed / calls
    for _ in range(repeat - 1):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def _analysis_timer(core, points, substrate: str, apply_override=None):
    """A thunk running one full analysis of ``core`` over ``points``."""
    program = compile_fpcore(core)
    config = AnalysisConfig(
        substrate=substrate, shadow_precision=SHADOW_PRECISION
    )

    if apply_override is None:
        def run():
            analyze_program(program, points, config=config)
        return run

    from unittest import mock
    from repro.bigfloat import backend as backend_mod

    def run():
        with mock.patch.object(
            backend_mod.PythonBackend, "apply",
            staticmethod(apply_override),
        ):
            backend_mod._BACKENDS.pop("python", None)
            try:
                analyze_program(program, points, config=config)
            finally:
                backend_mod._BACKENDS.pop("python", None)
    return run


def _null_kernel_apply():
    """A python-substrate ``apply`` whose heavy kernels are free.

    Timing an analysis under it yields the *non-kernel floor*; the
    kernel time share is 1 - floor/total.  Results are garbage — the
    run is used for timing only.
    """
    real_apply = get_backend("python").apply
    one = BigFloat.from_float(1.0)

    def apply(op, args, context=None):
        if op in LIBRARY_KERNELS:
            return one
        return real_apply(op, args, context)

    return apply


def bench_kernel_unit_costs(repeat: int, min_sample_ms: float) -> Dict:
    """Per-call kernel cost at the shadow precision, per substrate."""
    context = Context(precision=SHADOW_PRECISION)
    python = get_backend("python")
    native = get_backend("native")
    x = BigFloat.from_float(1.2345678901234567)
    y = BigFloat.from_float(9.876543210987654)
    #: |x| < 1 general-path operand for the bounded-domain inverses.
    unit = BigFloat.from_float(0.7324081429644442)
    operands = {1: [x], 2: [x, y]}
    bounded = {"asin": [unit], "acos": [unit], "atanh": [unit],
               "acosh": [y], "log1p": [unit]}
    from repro.bigfloat.functions import arity

    table = {}
    for op in sorted(LIBRARY_KERNELS) + ["+", "*", "/", "sqrt"]:
        args = bounded.get(op, operands[min(2, arity(op))])
        t_py = _steady_seconds(
            lambda: python.apply(op, args, context), repeat, min_sample_ms
        )
        t_nat = _steady_seconds(
            lambda: native.apply(op, args, context), repeat, min_sample_ms
        )
        table[op] = {
            "python_us": round(t_py * 1e6, 2),
            "native_us": round(t_nat * 1e6, 2),
            "speedup": round(t_py / t_nat, 2),
        }
    return table


def kernel_bound_corpus(corpus) -> List:
    """Straight-line corpus benchmarks containing a library kernel."""
    selected = []
    for core in corpus:
        text = format_fpcore(core)
        if "(while" in text:
            continue
        if any(f"({op} " in text or f"({op})" in text
               for op in LIBRARY_KERNELS):
            selected.append(core)
    return selected


def bench_straightline(
    corpus,
    points: int,
    seed: int,
    repeat: int,
    min_sample_ms: float,
    share_threshold: float = 0.5,
) -> Tuple[Dict, Dict, Dict]:
    """(op-heavy suite, kernel-dominated corpus, all kernel-bound).

    The headline op-heavy suite is the synthetic dense-kernel set --
    op-heavy by construction, one chain per kernel family.  The two
    corpus tables put the same measurement on real benchmarks: ones
    whose measured kernel time share is at least ``share_threshold``
    (via a null-kernel floor run), and every kernel-containing
    straight-line benchmark, so nothing is curated away.
    """

    def timed(core, pts):
        t_python = _steady_seconds(
            _analysis_timer(core, pts, "python"), repeat, min_sample_ms
        )
        t_native = _steady_seconds(
            _analysis_timer(core, pts, "native"), repeat, min_sample_ms
        )
        return t_python, t_native

    def median_of(rows: Dict) -> Optional[float]:
        speedups = [row["speedup"] for row in rows.values()]
        return round(statistics.median(speedups), 2) if speedups else None

    null_apply = _null_kernel_apply()
    all_rows = {}
    for core in kernel_bound_corpus(corpus):
        pts = sample_inputs(core, points, seed=seed)
        t_python, t_native = timed(core, pts)
        t_floor = _steady_seconds(
            _analysis_timer(core, pts, "python", apply_override=null_apply),
            repeat, min_sample_ms,
        )
        share = max(0.0, 1.0 - t_floor / t_python) if t_python else 0.0
        all_rows[core.name] = {
            "python_ms": round(t_python * 1000, 3),
            "native_ms": round(t_native * 1000, 3),
            "kernel_time_share": round(share, 3),
            "speedup": round(t_python / t_native, 2),
        }
    synth_rows = {}
    for source in SYNTHETIC_SUITE:
        core = parse_fpcore(source)
        pts = sample_inputs(core, points, seed=seed)
        t_python, t_native = timed(core, pts)
        synth_rows[core.name] = {
            "python_ms": round(t_python * 1000, 3),
            "native_ms": round(t_native * 1000, 3),
            "speedup": round(t_python / t_native, 2),
        }
    headline = {
        "definition": (
            "synthetic straight-line programs dominated by library-"
            "kernel shadow evaluation, one dense chain per kernel "
            "family (including the exp family, the mpmath provider's "
            "weakest)"
        ),
        "members": synth_rows,
        "median_speedup": median_of(synth_rows),
    }
    dominated = {
        name: row for name, row in all_rows.items()
        if row["kernel_time_share"] >= share_threshold
    }
    corpus_dominated = {
        "definition": (
            "corpus straight-line benchmarks whose shadow-kernel "
            f"evaluation is >= {share_threshold:.0%} of analysis "
            "wall-clock under the python substrate (measured via a "
            "null-kernel floor run)"
        ),
        "members": dominated,
        "median_speedup": median_of(dominated),
    }
    secondary = {
        "definition": "every straight-line corpus benchmark containing "
                      "a library kernel (suite-selection transparency)",
        "members": all_rows,
        "median_speedup": median_of(all_rows),
    }
    return headline, corpus_dominated, secondary


def bench_parity(corpus, points: int, seed: int) -> Dict:
    """Byte-identical reports across substrate x engine x policy."""
    combos = [
        (substrate, engine, policy)
        for substrate in ("python", "native")
        for engine in ("compiled", "reference")
        for policy in ("fixed", "adaptive")
    ]
    reference_json: Optional[str] = None
    checked = 0
    for substrate, engine, policy in combos:
        config = AnalysisConfig(
            substrate=substrate, engine=engine, precision_policy=policy
        )
        session = AnalysisSession(
            config=config, num_points=points, seed=seed, result_cache_size=0
        )
        text = results_to_json(session.analyze_batch(corpus, workers=1))
        if reference_json is None:
            reference_json = text
        elif text != reference_json:
            raise SystemExit(
                f"PARITY FAILURE: substrate={substrate} engine={engine} "
                f"policy={policy} diverged from the reference report"
            )
        checked += 1
    return {
        "combinations_checked": checked,
        "benchmarks": len(corpus),
        "points": points,
        "byte_identical": True,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=8)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--slice", type=int, default=0,
                        help="limit the parity corpus to N benchmarks "
                             "(0 = full corpus)")
    parser.add_argument("--parity-points", type=int, default=3)
    parser.add_argument("--min-sample-ms", type=float, default=5.0)
    parser.add_argument("--skip-unit-costs", action="store_true")
    parser.add_argument("--out", default="BENCH_bigfloat.json")
    args = parser.parse_args(argv)

    corpus = load_corpus()
    parity_corpus = corpus[: args.slice] if args.slice else corpus

    report = {
        "benchmark": "bigfloat-substrate",
        "shadow_precision": SHADOW_PRECISION,
        "native_provider": substrate_provider("native"),
        "config": {
            "points": args.points, "seed": args.seed,
            "repeat": args.repeat, "min_sample_ms": args.min_sample_ms,
        },
    }
    print(f"native substrate provider: {report['native_provider']}")

    print("parity gate "
          f"({len(parity_corpus)} benchmarks x 8 combinations)...")
    report["parity"] = bench_parity(
        parity_corpus, args.parity_points, args.seed
    )
    print("  byte-identical across all combinations")

    if not args.skip_unit_costs:
        print("kernel unit costs at 1000 bits...")
        report["kernel_unit_costs"] = bench_kernel_unit_costs(
            args.repeat, args.min_sample_ms
        )

    print("op-heavy straight-line suite...")
    headline, dominated, secondary = bench_straightline(
        corpus, args.points, args.seed, args.repeat, args.min_sample_ms
    )
    report["op_heavy_straightline"] = headline
    report["corpus_kernel_dominated"] = dominated
    report["all_kernel_bound"] = secondary
    print(f"  op-heavy suite median speedup: {headline['median_speedup']}x "
          f"({len(headline['members'])} members); kernel-dominated corpus "
          f"median: {dominated['median_speedup']}x "
          f"({len(dominated['members'])} members); all kernel-bound "
          f"median: {secondary['median_speedup']}x "
          f"({len(secondary['members'])} members)")

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
