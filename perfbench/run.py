"""The repository benchmark: corpus sweeps and served traffic, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload loops --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 1 --trace 1
    python3 perfbench/run.py --ablation            # leave-one-out table
    python3 perfbench/run.py --make-golden         # refresh golden.json

Workloads (``workloads.py``): ``loops``, ``straightline-64``,
``adaptive`` and ``serve-mixed``; BENCHMARK.json times ``adaptive`` and
``serve-mixed``.  A run sets the workload up several
times in fresh processes (``setup_s`` is their median), sets it up once
more, runs one untimed warm-up pass, then measures whole passes for
``--seconds``.  Each other time metric is a per-pass figure (a pass's
wall clock, or a percentile of its request latencies) summarized by its
interquartile mean across the run's passes; see ``timed_run``.  Every
time, ``setup_s`` too, is scaled to a reference host speed by the
host-speed kernel (``hostspeed.py``), which the run times between the
measured requests: in process after each cold request, scaling that
pass; served after each replay, scaling the whole run.  The raw
figures are printed too.  Every
result's bytes are checked against ``golden.json`` (SHA-256 of the
reference engine's output).

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced
and traced (span wrappers from ``spans.py``, ``profile=True``
requests), the last line carries the per-layer metrics, and the spans,
per-program rows and provenance go to ``.perfbench/trace-*.json``.
Human-readable lines (every metric with its unit, ``error_rate``,
``mismatch_rate``, provenance) precede the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores and trace files, inside the checkout.
WORK = os.path.join(ROOT, ".perfbench")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Whole passes a run measures at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Host-speed kernel calls after each served replay (about 15 ms).
SPEED_REPEATS = 10

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("warm_p90_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, and only there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) \
            != SRC:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def percentile(samples, q: int) -> float:
    """The ``q``-th percentile (linear interpolation)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def interquartile_mean(values) -> float:
    """The mean of the middle half of ``values`` (all, if fewer than 4)."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def set_up(workload_name: str, seed: int, workdir: str, recorder):
    """Everything before the first request can be sent."""
    _import_repro()
    from repro.fpcore import load_corpus

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    recorder.phase = "setup"
    cores = workload.select(load_corpus())
    if workload.served:
        from serving import ServeMixed

        return ServeMixed(workload, cores, seed, workdir, recorder)
    from inprocess import InProcess

    return InProcess(workload, cores, seed, workdir, recorder)


def setup_probe(args) -> int:
    """Child-process mode: set up, say ``ready``, tear down."""
    from spans import Recorder

    workdir = _workdir()
    harness = set_up(args.workload, args.seed, workdir, Recorder())
    print("ready", flush=True)
    close = getattr(harness, "close", None)
    if close is not None:
        close()
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> list:
    """Wall clock from spawning a fresh interpreter to ``ready``."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


def _workdir() -> str:
    path = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


class Tally:
    """Requests attempted, failed and checked against golden bytes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.mismatches = 0
        self.errors: list = []


def measure_inprocess(harness, golden, args, recorder, tally):
    warmup = harness.run_pass(golden)
    _tally_pass(tally, warmup)
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        recorder.enabled = traced
        began = time.perf_counter()
        result = harness.run_pass(golden, profile=traced)
        recorder.enabled = False
        passes.append((traced, result))
        _tally_pass(tally, result)
        took = time.perf_counter() - began
        if len(passes) >= _min_passes(args) and \
                time.perf_counter() - start + took > args.seconds:
            break
    untraced = [p for traced, p in passes if not traced]
    out = {
        "walls": [p.cold_wall for p in untraced],
        "scales": [hostspeed.scale(p.speed) for p in untraced],
        "cold": [p.cold for p in untraced],
        "warm": [p.warm for p in untraced],
        "requests": len(harness.cores),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": len(passes),
    }
    if args.trace:
        from layers import layer_metrics

        traced_passes = [p for traced, p in passes if traced]
        out["layers"] = layer_metrics(
            recorder,
            analysis_phases=("cold",), analysis_passes=len(traced_passes),
            io_phases=("persist", "warm"), io_passes=len(traced_passes),
            extras=[e for p in traced_passes for e in p.extras],
            traced_walls=[p.cold_wall for p in traced_passes],
            untraced_walls=[p.cold_wall for p in untraced],
            root="request.cold", root_phases=("cold",),
        )
    return out


def _tally_pass(tally: Tally, result) -> None:
    tally.attempted += len(result.cold) + len(result.warm)
    tally.failed += len(result.failures)
    tally.errors.extend(result.failures)
    tally.checked += result.checked
    tally.mismatches += result.mismatches


def _min_passes(args) -> int:
    # A traced run needs at least two passes of each kind.
    return MIN_PASSES + 1 if args.trace else MIN_PASSES


def measure_serve(harness, golden, args, recorder, tally):
    from layers import POOL_KEYS, SERVICE_KEYS, counter_delta
    from serving import CLIENTS, peak_rss_kb

    service = harness.server.service
    points = harness.workload.points
    _tally_replay(tally, golden, points,
                  harness.replay(harness.schedule())[1])
    replays = []
    speed = []
    service_delta = {key: 0 for key in SERVICE_KEYS}
    pool_delta = {key: 0 for key in POOL_KEYS}
    start = time.perf_counter()
    while harness.remaining_replays() > 0:
        traced = bool(args.trace) and len(replays) % 2 == 1
        items = harness.schedule()
        before = (service.counters.to_dict(), service.pool.stats())
        recorder.phase = "replay"
        recorder.enabled = traced
        wall, records = harness.replay(items)
        recorder.enabled = False
        # Every reply has arrived, so the kernel runs on an idle
        # service (any work it still does now slows the kernel too).
        recorder.phase = "calibrate"
        speed.extend(hostspeed.measure() for _ in range(SPEED_REPEATS))
        after = (service.counters.to_dict(), service.pool.stats())
        if traced:
            for totals, index, keys in ((service_delta, 0, SERVICE_KEYS),
                                        (pool_delta, 1, POOL_KEYS)):
                for key, value in counter_delta(
                        before[index], after[index], keys).items():
                    totals[key] += value
        replays.append((traced, wall, records))
        _tally_replay(tally, golden, points, records)
        if len(replays) >= _min_passes(args) and \
                time.perf_counter() - start + wall > args.seconds:
            break
    else:
        # Fewer seconds measured than asked: runs are no longer alike.
        print(f"warning: serve-mixed ran out of fresh requests after "
              f"{time.perf_counter() - start:.1f} s of {args.seconds} s; "
              f"widen workloads.SERVE_SEEDS and rerun --make-golden",
              file=sys.stderr)
    untraced = [(wall, records) for traced, wall, records in replays
                if not traced]
    answered = [[r for r in records if r["error"] is None]
                for _, records in untraced]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + sum(
        peak_rss_kb(pid) for pid in harness.worker_pids())
    out = {
        "walls": [wall for wall, _ in untraced],
        # The kernel runs between replays, not during them, and the
        # host changes speed within one: one scale for the whole run.
        "scales": [hostspeed.scale(speed)] * len(untraced),
        "cold": [[r["latency"] for r in records
                  if r["source"] == "computed"] for records in answered],
        "warm": [[r["latency"] for r in records
                  if r["source"] in ("memory", "store")]
                 for records in answered],
        "requests": len(untraced[0][1]),
        "peak_rss_kb": peak,
        "passes": len(replays),
        "sources": _count_sources(r for rs in answered for r in rs),
    }
    if args.trace:
        from layers import layer_metrics

        traced = [(wall, records) for t, wall, records in replays if t]
        out["layers"] = layer_metrics(
            recorder,
            analysis_phases=("preseed",), analysis_passes=1,
            io_phases=("replay",), io_passes=len(traced),
            extras=harness.preseed_extras,
            traced_walls=[wall for wall, _ in traced],
            untraced_walls=[wall for wall, _ in untraced],
            root="client.request", root_phases=("replay",),
            concurrency=CLIENTS,
            service_delta=service_delta, pool_delta=pool_delta,
        )
    return out


def _count_sources(records) -> dict:
    counts: dict = {}
    for record in records:
        counts[record["source"]] = counts.get(record["source"], 0) + 1
    return counts


def _tally_replay(tally: Tally, golden, points: int, records) -> None:
    for record in records:
        tally.attempted += 1
        request = record["request"]
        if record["error"] is not None:
            tally.failed += 1
            tally.errors.append(f"{request.name}: {record['error']}")
            continue
        tally.checked += 1
        if not golden.matches(points, request.name, request.seed,
                              record["text"]):
            tally.mismatches += 1


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(args) -> int:
    from spans import Recorder, install
    from workloads import Golden, provenance

    _import_repro()
    setup_samples = measure_setup(args)
    recorder = Recorder()
    if args.trace:
        install(recorder)
        recorder.enabled = True
    workdir = _workdir()
    tally = Tally()
    harness = None
    try:
        harness = set_up(args.workload, args.seed, workdir, recorder)
        recorder.enabled = False
        golden = Golden.load()
        if getattr(harness, "server", None) is not None:
            out = measure_serve(harness, golden, args, recorder, tally)
        else:
            out = measure_inprocess(harness, golden, args, recorder, tally)
        info = provenance(args.workload)
    finally:
        if harness is not None and hasattr(harness, "close"):
            harness.close()
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = tally.failed / max(1, tally.attempted)
    mismatch_rate = tally.mismatches / max(1, tally.checked)
    # Per-pass figures, each times its pass's host-speed scale, are
    # summarized by their interquartile mean over the run's passes,
    # which drops the passes a spike hit.  A median over passes would
    # jump between the host's fast and slow spells with their share of
    # the run; the interquartile mean moves in proportion to it.  The
    # set-ups take the run's median scale.  The raw figures (every scale
    # 1) are printed beside the scaled ones.
    def summarize(scales) -> dict:
        def pass_percentile(passes, q: int) -> float:
            return interquartile_mean([
                percentile(samples, q) * 1e3 * scale
                for samples, scale in zip(passes, scales) if samples])

        sweep = interquartile_mean(
            [wall * scale for wall, scale in zip(out["walls"], scales)])
        return {
            "setup_s": statistics.median(setup_samples)
            * statistics.median(scales),
            "sweep_s": sweep,
            "cold_p50_ms": pass_percentile(out["cold"], 50),
            "cold_p90_ms": pass_percentile(out["cold"], 90),
            "warm_p50_ms": pass_percentile(out["warm"], 50),
            "warm_p90_ms": pass_percentile(out["warm"], 90),
            "requests_per_s": out["requests"] / sweep,
            "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        }

    end_to_end = summarize(out["scales"])
    raw = summarize([1.0] * len(out["scales"]))
    print(f"workload {args.workload} seed {args.seed}: {out['passes']} "
          f"passes, {sum(map(len, out['cold']))} cold and "
          f"{sum(map(len, out['warm']))} warm samples in "
          f"{len(out['walls'])} untraced passes")
    print("sweep passes (s): " + " ".join(f"{w:.4f}" for w in out["walls"]))
    print("setup runs (s): " + " ".join(f"{s:.4f}" for s in setup_samples))
    print("pass scales: " + " ".join(f"{k:.4f}" for k in out["scales"]))
    if "sources" in out:
        print(f"reply sources: {json.dumps(out['sources'], sort_keys=True)}")
    print("provenance " + json.dumps(info, sort_keys=True))
    for name, unit in END_TO_END:
        print(f"{name} {end_to_end[name]:.6g} {unit} "
              f"(raw {raw[name]:.6g})")
    print(f"error_rate {error_rate:.6g} ratio")
    print(f"mismatch_rate {mismatch_rate:.6g} ratio")
    for error in tally.errors[:10]:
        print(f"error: {error}")

    if args.trace:
        from layers import PER_LAYER, WORKLOAD_SPECIFIC

        layers = out["layers"]
        units = dict(PER_LAYER + WORKLOAD_SPECIFIC)
        for name, value in sorted({**layers["metrics"],
                                   **layers["workload_specific"]}.items()):
            print(f"{name} {value:.6g} {units[name]}")
        for row in layers["per_program"]:
            print(f"program {row['program']}: execute {row['execute_s']:.6f}"
                  f" s, {row['ops']:.0f} ops, {row['us_per_op']:.3f} us/op")
        path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "provenance": info, "end_to_end": end_to_end,
                       "end_to_end_raw": raw,
                       "layers": layers, "spans": recorder.dump()},
                      handle, sort_keys=True)
        print(f"trace written to {os.path.relpath(path, ROOT)}")
        metrics = {name: _metric(layers["metrics"][name], unit)
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: _metric(end_to_end[name], unit)
                   for name, unit in END_TO_END}

    correct = tally.failed == 0 and tally.mismatches == 0 and \
        tally.checked > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="loops")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-golden", action="store_true",
                        help="regenerate golden.json with the reference "
                             "engine")
    parser.add_argument("--ablation", action="store_true",
                        help="leave-one-out layer ratios (not a timed run)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--ablation-leg", nargs=3,
                        metavar=("WORKLOAD", "VARIANTS", "ROUNDS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    os.makedirs(WORK, exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    if args.make_golden:
        _import_repro()
        from workloads import GOLDEN_PATH, make_golden

        data = make_golden()
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(GOLDEN_PATH, ROOT)}")
        return 0
    if args.ablation_leg:
        _import_repro()
        from ablation import run_leg

        workload, variants, rounds = args.ablation_leg
        return run_leg(workload, variants, int(rounds))
    if args.ablation:
        _import_repro()
        from ablation import run_table

        return run_table(WORK)
    return timed_run(args)


if __name__ == "__main__":
    sys.exit(main())
