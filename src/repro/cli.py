"""Command-line front end: ``herbgrind-py``.

Sub-commands:

* ``analyze <fpcore-or-file>`` — run an analysis backend on sampled
  inputs and print the Herbgrind-style report (or ``--json``).
* ``improve <expr>`` — run the mini-Herbie on a bare expression.
* ``corpus`` — list or analyse the bundled 86-benchmark suite.
* ``lint`` — rank error-prone sites *without running anything*: the
  interval/condition-number static analysis
  (:mod:`repro.staticanalysis`) over one program or the whole corpus.
* ``backends`` — list the registered analysis backends.
* ``serve`` — run the analysis-as-a-service HTTP server
  (:mod:`repro.serve`): warm answers from the sharded result store,
  cold ones through a supervised worker pool.

All analysis routes through :class:`repro.api.AnalysisSession`, so the
CLI exercises exactly the code path programmatic and batch callers use.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.api import (
    AnalysisSession,
    available_backends,
    results_to_json,
    sample_box,
)
from repro.bigfloat import (
    available_policies,
    available_substrates,
    substrate_status,
)
from repro.core import AnalysisConfig, generate_report
from repro.fpcore import load_corpus, parse_expr, parse_fpcore
from repro.fpcore.ast import free_variables
from repro.fpcore.printer import format_expr
from repro.improve import improve_expression


def _read_source(argument: str) -> str:
    if os.path.exists(argument):
        with open(argument, "r", encoding="utf-8") as handle:
            return handle.read()
    return argument


#: Plan options whose default is the one ``AnalysisConfig`` declares:
#: the parser leaves them None unless given.
_PLAN_OPTIONS = ("precision_policy", "working_precision", "engine",
                 "substrate")


def _session(args: argparse.Namespace, **config_fields) -> AnalysisSession:
    if getattr(args, "hw_tier", None) is not None:
        # Unset, the config's default follows REPRO_HWTIER.
        config_fields["hw_tier"] = args.hw_tier == "on"
    for option in _PLAN_OPTIONS:
        if getattr(args, option, None) is not None:
            config_fields[option] = getattr(args, option)
    config = AnalysisConfig(
        shadow_precision=args.precision,
        deadline_seconds=getattr(args, "deadline", None),
        op_budget=getattr(args, "op_budget", None),
        **config_fields,
    )
    return AnalysisSession(
        config=config,
        backend=getattr(args, "backend", "herbgrind"),
        num_points=args.points,
        seed=getattr(args, "seed", 0),
        cache_dir=getattr(args, "cache_dir", None),
        degrade=False if getattr(args, "no_degrade", False) else None,
    )


def _arm_faults(args: argparse.Namespace) -> None:
    """Install the ``--faults`` injection plan before any analysis runs."""
    if getattr(args, "faults", None):
        from repro.resilience import faults

        faults.install(args.faults)


def _has_report(result) -> bool:
    from repro.core.analysis import HerbgrindAnalysis

    return isinstance(result.raw, HerbgrindAnalysis)


def _print_result(result, as_json: bool) -> None:
    if as_json:
        print(result.to_json())
    elif _has_report(result):
        print(generate_report(result.raw).format())
    elif result.backend == "herbgrind":
        # A cache hit from disk carries no in-process analysis; render
        # a report-shaped summary from the serialized result instead of
        # silently switching the output format to JSON.
        print(_cached_report(result))
    else:
        # Non-Herbgrind backends have no report renderer; JSON is the
        # canonical serialization.
        print(result.to_json())


def _cached_report(result) -> str:
    lines = [
        f"{result.benchmark}: max output error "
        f"{result.max_output_error:.1f} bits (cached result)"
    ]
    causes = result.reported_root_causes()
    if not causes:
        lines.append("No erroneous spots detected.")
    for cause in causes:
        lines.append("")
        lines.append(f"Operation at {cause.loc or '<unknown>'}")
        lines.append(cause.fpcore_text())
        if cause.example_problematic:
            values = ", ".join(
                repr(v) for v in cause.example_problematic.values()
            )
            lines.append(f"Example problematic input: ({values})")
    return "\n".join(lines)


def _command_analyze(args: argparse.Namespace) -> int:
    _arm_faults(args)
    source = _read_source(args.source)
    core = parse_fpcore(source)
    session = _session(
        args,
        local_error_threshold=args.threshold,
        max_expression_depth=args.depth,
    )
    result = session.analyze(core, profile=args.profile)
    _print_result(result, args.json)
    if args.profile:
        _print_substrate(session.config.substrate)
    return 0


def _print_substrate(name: str) -> None:
    """Which kernels served the shadow reals, and every provider passed
    over on the way (stderr, so ``--json`` output stays one document)."""
    status = substrate_status(name)
    line = f"substrate: {name} -> {status['provider']}"
    for skipped, reason in sorted(status["fallbacks"].items()):
        line += f"; skipped {skipped} ({reason})"
    print(line, file=sys.stderr)


def _command_improve(args: argparse.Namespace) -> int:
    expression = parse_expr(_read_source(args.expression))
    variables = args.var or list(free_variables(expression))
    if not variables:
        print("expression has no variables", file=sys.stderr)
        return 1
    low, high = args.range
    points = sample_box(variables, low, high, args.points, seed=args.seed)
    result = improve_expression(expression, variables, points)
    print(f"before: {format_expr(result.original)}  ({result.initial_error:.1f} bits)")
    print(f"after:  {format_expr(result.best)}  ({result.best_error:.1f} bits)")
    return 0


def _command_corpus(args: argparse.Namespace) -> int:
    corpus = load_corpus()
    if args.list:
        for core in corpus:
            family = core.properties.get("herbgrind-family", "?")
            print(f"{core.name:<28} [{family}] args={','.join(core.arguments)}")
        return 0
    _arm_faults(args)
    session = _session(args)
    selected = [c for c in corpus if args.name is None or c.name == args.name]
    if not selected:
        print(f"no benchmark named {args.name!r}", file=sys.stderr)
        return 1
    results = session.analyze_batch(
        selected, workers=args.workers, profile=args.profile
    )
    if args.profile:
        _print_substrate(session.config.substrate)
    if args.json:
        print(results_to_json(results))
        return 0
    for result in results:
        print(f"{result.benchmark:<28} max-error={result.max_output_error:5.1f} bits"
              f"  root-causes={len(result.reported_root_causes())}")
        if args.name is not None and _has_report(result):
            print(generate_report(result.raw).format())
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.staticanalysis import lint_core

    if args.source is not None:
        cores = [parse_fpcore(_read_source(args.source))]
    else:
        corpus = load_corpus()
        cores = [c for c in corpus if args.name is None or c.name == args.name]
        if not cores:
            print(f"no benchmark named {args.name!r}", file=sys.stderr)
            return 1
    reports = [
        (core, lint_core(core, min_severity=args.min_severity))
        for core in cores
    ]
    if args.json:
        import json

        payload = {
            "programs": [
                {
                    "program": core.name or "<anonymous>",
                    "diagnostics": [d.to_dict() for d in diagnostics],
                }
                for core, diagnostics in reports
            ]
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    flagged = 0
    for core, diagnostics in reports:
        if not diagnostics:
            continue
        flagged += 1
        print(f"{core.name or '<anonymous>'}:")
        for diagnostic in diagnostics:
            print("  " + diagnostic.format().replace("\n", "\n  "))
    print(f"{flagged}/{len(reports)} programs flagged")
    return 0


def _command_backends(args: argparse.Namespace) -> int:
    for name in available_backends():
        print(name)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import run_server

    if args.no_degrade:
        # Worker processes read REPRO_DEGRADE at analysis time; the
        # env var is how the flag crosses the fork.
        os.environ["REPRO_DEGRADE"] = "0"
    _arm_faults(args)  # install() exports REPRO_FAULTS for the workers
    return run_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        store_dir=args.store_dir,
        queue_limit=args.queue_limit,
        timeout=args.timeout if args.timeout > 0 else None,
        batch_shard_size=args.shard_size,
        log_level=args.log_level,
    )


def build_parser() -> argparse.ArgumentParser:
    default = AnalysisConfig()
    parser = argparse.ArgumentParser(
        prog="herbgrind-py",
        description="Find root causes of floating-point error (PLDI 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyse an FPCore program")
    analyze.add_argument("source", help="FPCore text or path to a .fpcore file")
    analyze.add_argument("--points", type=int, default=16)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--precision", type=int, default=256)
    analyze.add_argument("--threshold", type=float, default=5.0,
                         help="local-error threshold Tℓ in bits")
    analyze.add_argument("--depth", type=int, default=20,
                         help="max expression depth")
    analyze.add_argument("--backend", default="herbgrind",
                         choices=available_backends(),
                         help="analysis backend to run")
    analyze.add_argument("--precision-policy",
                         choices=available_policies(),
                         help="shadow precision tiering (adaptive escalates "
                              "to --precision only when decisions need it; "
                              f"default: {default.precision_policy})")
    analyze.add_argument("--working-precision", type=int,
                         help="working-tier bits for --precision-policy "
                              f"adaptive (default: "
                              f"{default.working_precision})")
    analyze.add_argument("--hw-tier", choices=("on", "off"), default=None,
                         help="hardware double-double shadow tier below "
                              "the working tier (adaptive policy only; "
                              "default: on, or the REPRO_HWTIER env; "
                              "reports are identical either way)")
    analyze.add_argument("--cache-dir", metavar="DIR",
                         help="persist analysis results as JSON under DIR "
                              "and reuse them across runs")
    analyze.add_argument("--engine",
                         choices=("compiled", "reference"),
                         help="execution engine: the threaded-code fast "
                              "path or the reference interpreter "
                              "(identical results; default: "
                              f"{default.engine})")
    analyze.add_argument("--substrate",
                         choices=available_substrates(),
                         help="BigFloat kernel substrate: the native "
                              "gmpy2/mpmath kernels, which fall back to "
                              "python when neither library is installed, "
                              "or the pure-python reference (identical "
                              f"reports; default: {default.substrate})")
    analyze.add_argument("--json", action="store_true",
                         help="emit the AnalysisResult JSON serialization")
    analyze.add_argument("--profile", action="store_true",
                         help="count per-stage pipeline events and emit "
                              "them as extra.pipeline_profile in the "
                              "result JSON (results are unchanged); "
                              "print the substrate's provider and "
                              "fallbacks to stderr")
    analyze.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="per-analysis wall-clock budget; exceeding "
                              "it raises AnalysisDeadlineExceeded")
    analyze.add_argument("--op-budget", type=int, default=None,
                         metavar="OPS",
                         help="per-analysis shadow-operation budget; "
                              "exceeding it raises OpBudgetExceeded")
    analyze.add_argument("--no-degrade", action="store_true",
                         help="disable the graceful-degradation ladder: "
                              "engine/substrate failures propagate "
                              "instead of retrying down the stack")
    analyze.add_argument("--faults", metavar="SPEC",
                         help="arm deterministic fault injection, e.g. "
                              "'kernel.raise:times=1' (see "
                              "docs/robustness.md for the grammar)")
    analyze.set_defaults(func=_command_analyze)

    improve = sub.add_parser("improve", help="improve a bare expression")
    improve.add_argument("expression")
    improve.add_argument("--var", action="append",
                         help="variable order (repeatable)")
    improve.add_argument("--range", nargs=2, type=float,
                         default=(1e-3, 1e3), metavar=("LO", "HI"))
    improve.add_argument("--points", type=int, default=16)
    improve.add_argument("--seed", type=int, default=0)
    improve.set_defaults(func=_command_improve)

    corpus = sub.add_parser("corpus", help="the 86-benchmark suite")
    corpus.add_argument("--list", action="store_true")
    corpus.add_argument("--name", help="analyse one benchmark in detail")
    corpus.add_argument("--points", type=int, default=8)
    corpus.add_argument("--precision", type=int, default=256)
    corpus.add_argument("--backend", default="herbgrind",
                        choices=available_backends(),
                        help="analysis backend to run")
    corpus.add_argument("--precision-policy",
                        choices=available_policies(),
                        help="shadow precision tiering (default: "
                             f"{default.precision_policy})")
    corpus.add_argument("--working-precision", type=int,
                        help="working-tier bits for adaptive tiering "
                             f"(default: {default.working_precision})")
    corpus.add_argument("--hw-tier", choices=("on", "off"), default=None,
                        help="hardware double-double shadow tier "
                             "(adaptive policy only; reports are "
                             "identical either way)")
    corpus.add_argument("--cache-dir", metavar="DIR",
                        help="persist analysis results as JSON under DIR "
                             "and reuse them across runs")
    corpus.add_argument("--engine",
                        choices=("compiled", "reference"),
                        help="execution engine (results are identical; "
                             f"default: {default.engine})")
    corpus.add_argument("--substrate",
                        choices=available_substrates(),
                        help="BigFloat kernel substrate (reports are "
                             f"identical; default: {default.substrate})")
    corpus.add_argument("--workers", type=int, default=1,
                        help="worker processes for batch analysis")
    corpus.add_argument("--json", action="store_true",
                        help="emit AnalysisResult JSON for the batch")
    corpus.add_argument("--profile", action="store_true",
                        help="emit per-stage pipeline attribution in "
                             "each result's extra.pipeline_profile; "
                             "print the substrate's provider and "
                             "fallbacks to stderr")
    corpus.add_argument("--no-degrade", action="store_true",
                        help="disable the graceful-degradation ladder")
    corpus.add_argument("--faults", metavar="SPEC",
                        help="arm deterministic fault injection "
                             "(docs/robustness.md)")
    corpus.set_defaults(func=_command_corpus)

    lint = sub.add_parser(
        "lint",
        help="static analysis: rank error-prone sites without running",
    )
    lint.add_argument("source", nargs="?",
                      help="FPCore text or path to a .fpcore file "
                           "(default: the bundled corpus)")
    lint.add_argument("--name", help="lint one corpus benchmark by name")
    lint.add_argument("--min-severity", default="info",
                      choices=("info", "warning", "error"),
                      help="suppress diagnostics below this severity")
    lint.add_argument("--json", action="store_true",
                      help="emit machine-readable diagnostics")
    lint.set_defaults(func=_command_lint)

    backends = sub.add_parser("backends", help="list analysis backends")
    backends.set_defaults(func=_command_backends)

    serve = sub.add_parser(
        "serve", help="run the analysis HTTP server (repro.serve)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8318,
                       help="TCP port (0 picks a free one; the chosen "
                            "port is printed on startup)")
    serve.add_argument("--workers", type=int, default=2,
                       help="analysis worker processes")
    serve.add_argument("--store-dir", metavar="DIR",
                       help="sharded result store directory, shared "
                            "with AnalysisSession(cache_dir=...) and "
                            "safe for multiple server processes")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="bounded cold-path queue; beyond it "
                            "requests get HTTP 429")
    serve.add_argument("--timeout", type=float, default=300.0,
                       help="per-request analysis timeout in seconds "
                            "(0 disables; timed-out workers are "
                            "killed and respawned)")
    serve.add_argument("--shard-size", type=int, default=4,
                       help="requests per work-stealing shard for "
                            "POST /v1/batch")
    serve.add_argument("--log-level", default="info",
                       choices=("debug", "info", "warning", "error"),
                       help="structured per-request log verbosity")
    serve.add_argument("--no-degrade", action="store_true",
                       help="disable the graceful-degradation ladder in "
                            "analysis workers (sets REPRO_DEGRADE=0)")
    serve.add_argument("--faults", metavar="SPEC",
                       help="arm deterministic fault injection; exported "
                            "as REPRO_FAULTS so forked workers inherit "
                            "the plan (docs/robustness.md)")
    serve.set_defaults(func=_command_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
