"""Per-layer metrics from the traced run's spans and result extras.

Every ``*_s`` figure is a *self* time in seconds per pass (a span's
duration minus its child spans), except ``analysis.execute_s``, which is
the whole ``analyze_program`` call (the execute phase) so that
``analysis.us_per_op`` divides like for like.  Counts are per pass too.

On the in-process workloads a pass is one cold sweep plus its store
persist and warm rerun.  On ``serve-mixed`` the analysis layers run in
this process only in the offline pre-seed pass (in-worker time is
``pool.roundtrip_s``), so their figures are per pre-seed pass, while
the HTTP, service, pool and store figures are per replay.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

#: The per-layer metrics every traced run reports (BENCHMARK.json).
PER_LAYER = (
    ("fpcore.parse_s", "s"),
    ("compiler.compile_s", "s"),
    ("compiler.instructions", "count"),
    ("sampling.sample_s", "s"),
    ("sampling.points", "count"),
    ("analysis.execute_s", "s"),
    ("analysis.ops", "count"),
    ("analysis.us_per_op", "us"),
    ("analysis.us_per_op_geomean", "us"),
    ("batched.compile_s", "s"),
    ("batched.eligible_ratio", "ratio"),
    ("engine.run_s", "s"),
    ("batched.run_share", "ratio"),
    ("pipeline.fused_ops", "count"),
    ("pipeline.generic_ops", "count"),
    ("pipeline.kernel_evals", "count"),
    ("antiunify.fast_ratio", "ratio"),
    ("kernel_cache.hit_ratio", "ratio"),
    ("bigfloat.hw_kernel_ops", "count"),
    ("bigfloat.hw_promotions", "count"),
    ("bigfloat.escalations", "count"),
    ("bigfloat.working_certified", "count"),
    ("bigfloat.full_recomputed_nodes", "count"),
    ("bigfloat.hw_share", "ratio"),
    ("report.causes", "count"),
    ("static.static_s", "s"),
    ("results.serialize_s", "s"),
    ("results.bytes", "B"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("service.computed", "count"),
    ("service.memory_hits", "count"),
    ("service.store_hits", "count"),
    ("service.dedupe_hits", "count"),
    ("service.rejected", "count"),
    ("service.hit_ratio", "ratio"),
    ("pool.restarts", "count"),
    ("pool.timeouts", "count"),
    ("pool.crashes", "count"),
    ("ladder.degraded", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
)

#: Layer times that some workload never exercises (the HTTP stack
#: in-process, lockstep batching on loops, the per-point engine on
#: straight-line programs, root-cause reports on the loops, which have
#: none): printed and written to the trace file, but kept out of the
#: uniform metric set, where they would read 0 on every run.
#: ``engine.run_s`` is their uniform sum and ``batched.run_share`` the
#: batched engine's part of it.
WORKLOAD_SPECIFIC = (
    ("compiled.run_s", "s"),
    ("batched.run_s", "s"),
    ("report.report_s", "s"),
    ("service.handle_s", "s"),
    ("pool.roundtrip_s", "s"),
    ("server.http_s", "s"),
)

SERVICE_KEYS = ("computed", "memory_hits", "store_hits", "dedupe_hits",
                 "rejected", "requests", "degraded")
POOL_KEYS = ("restarts", "timeouts", "crashes")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class SpanTotals:
    """Sums of self time, duration, count and calls per span name over
    a set of phases."""

    def __init__(self, recorder, phases: Iterable[str]) -> None:
        phases = set(phases)
        selfs = recorder.self_times()
        self.self_time: Dict[str, float] = defaultdict(float)
        self.duration: Dict[str, float] = defaultdict(float)
        self.value: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        for span in recorder.spans:
            if span.phase not in phases or span.end is None:
                continue
            self.self_time[span.name] += selfs[id(span)]
            self.duration[span.name] += span.duration
            self.value[span.name] += span.value or 0
            self.calls[span.name] += 1


def per_program_rows(recorder, phases, passes: int) -> List[Dict]:
    """``analysis.execute_s``, ops and µs/op per program, per pass."""
    execute: Dict[str, float] = defaultdict(float)
    ops: Dict[str, float] = defaultdict(float)
    for span in recorder.spans:
        if span.name == "analysis.execute" and span.phase in phases \
                and span.end is not None:
            execute[span.request] += span.duration
            ops[span.request] += span.value or 0
    rows = []
    for name in sorted(execute):
        rows.append({
            "program": name,
            "execute_s": execute[name] / passes,
            "ops": ops[name] / passes,
            "us_per_op": _ratio(execute[name] * 1e6, ops[name]),
        })
    return rows


def geomean(values: List[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def extras_metrics(extras: List[Dict], passes: int,
                   ops: float) -> Dict[str, float]:
    """Pipeline, precision-tier and ladder figures from result extras."""
    profile: Dict[str, float] = defaultdict(float)
    tiers: Dict[str, float] = defaultdict(float)
    degraded = 0
    for extra in extras:
        for key, value in extra.get("pipeline_profile", {}).items():
            if isinstance(value, (int, float)):
                profile[key] += value
        for key, value in extra.get("tier_residency", {}).items():
            tiers[key] += value
        if "degradation" in extra:
            degraded += 1
    return {
        "pipeline.fused_ops": profile["fused_ops"] / passes,
        "pipeline.generic_ops": profile["generic_ops"] / passes,
        "pipeline.kernel_evals": profile["kernel_evals"] / passes,
        "antiunify.fast_ratio": _ratio(
            profile["antiunify_fast"],
            profile["antiunify_fast"] + profile["antiunify_merge"]),
        "kernel_cache.hit_ratio": _ratio(
            profile["kernel_cache_hits"],
            profile["kernel_cache_hits"] + profile["kernel_cache_misses"]),
        "bigfloat.hw_kernel_ops": tiers["hw_kernel_ops"] / passes,
        "bigfloat.hw_promotions": tiers["hw_promotions"] / passes,
        "bigfloat.escalations": tiers["escalations"] / passes,
        "bigfloat.working_certified": tiers["working_certified"] / passes,
        "bigfloat.full_recomputed_nodes":
            tiers["full_recomputed_nodes"] / passes,
        "bigfloat.hw_share": _ratio(tiers["hw_kernel_ops"] / passes, ops),
        "ladder.degraded": degraded / passes,
    }


def layer_metrics(recorder, *, analysis_phases, analysis_passes: int,
                  io_phases, io_passes: int, extras: List[Dict],
                  traced_walls: List[float], untraced_walls: List[float],
                  root: str, root_phases, concurrency: int = 1,
                  service_delta: Optional[Dict] = None,
                  pool_delta: Optional[Dict] = None) -> Dict:
    """Every per-layer metric, plus per-program rows, from one run."""
    setup = SpanTotals(recorder, ("setup",))
    work = SpanTotals(recorder, analysis_phases)
    io = SpanTotals(recorder, io_phases)
    a, n = analysis_passes, io_passes
    ops = work.value["analysis.execute"] / a
    rows = per_program_rows(recorder, analysis_phases, a)
    metrics = {
        "fpcore.parse_s": setup.self_time["fpcore.parse"],
        "compiler.compile_s": work.self_time["compiler.compile"] / a,
        "compiler.instructions": work.value["compiler.compile"] / a,
        "sampling.sample_s": work.self_time["sampling.sample"] / a,
        "sampling.points": work.value["sampling.sample"] / a,
        "analysis.execute_s": work.duration["analysis.execute"] / a,
        "analysis.ops": ops,
        "analysis.us_per_op": _ratio(
            work.duration["analysis.execute"] / a * 1e6, ops),
        "analysis.us_per_op_geomean": geomean(
            [row["us_per_op"] for row in rows]),
        "batched.compile_s": work.self_time["batched.compile"] / a,
        "batched.eligible_ratio": _ratio(
            work.value["batched.compile"], work.calls["analysis.execute"]),
        "engine.run_s": (work.self_time["compiled.run"]
                         + work.self_time["batched.run"]) / a,
        "batched.run_share": _ratio(
            work.self_time["batched.run"],
            work.self_time["compiled.run"] + work.self_time["batched.run"]),
        "report.causes": work.calls["report.root_cause"] / a,
        "static.static_s": (work.self_time["static.report"]
                            + work.self_time["static.cross_check"]) / a,
        "results.serialize_s": work.self_time["results.serialize"] / a,
        "results.bytes": work.value["results.serialize"] / a,
        "store.get_s": io.self_time["store.get"] / n,
        "store.put_s": io.self_time["store.put"] / n,
        "store.hits": io.value["store.get"] / n,
        "store.misses": (io.calls["store.get"] - io.value["store.get"]) / n,
        "store.writes": io.calls["store.put"] / n,
    }
    metrics.update(extras_metrics(extras, a, ops))
    service = service_delta or {key: 0 for key in SERVICE_KEYS}
    pool = pool_delta or {key: 0 for key in POOL_KEYS}
    for key in ("computed", "memory_hits", "store_hits", "dedupe_hits",
                "rejected"):
        metrics[f"service.{key}"] = service[key] / n
    metrics["service.hit_ratio"] = _ratio(
        service["memory_hits"] + service["store_hits"], service["requests"])
    for key in POOL_KEYS:
        metrics[f"pool.{key}"] = pool[key] / n
    if service_delta is not None:
        metrics["ladder.degraded"] = service["degraded"] / n
    traced = statistics.median(traced_walls)
    metrics["trace.overhead_ratio"] = _ratio(
        traced, statistics.median(untraced_walls))
    # The share of the traced wall clock (per client) that the named
    # layer spans' self times account for.  The root spans' own self
    # time is not a layer's: the rest of the wall clock, per pass, is
    # ``trace.unattributed_s`` (session dispatch, request building,
    # digests and result assembly in process; on serve-mixed also the
    # HTTP round trip and the clients).
    spans = SpanTotals(recorder, root_phases)
    layer_self = sum(value for name, value in spans.self_time.items()
                     if name != root) / concurrency
    metrics["trace.accounted_ratio"] = _ratio(layer_self, sum(traced_walls))
    metrics["trace.unattributed_s"] = \
        (sum(traced_walls) - layer_self) / len(traced_walls)
    specific = {
        "compiled.run_s": work.self_time["compiled.run"] / a,
        "batched.run_s": work.self_time["batched.run"] / a,
        "report.report_s": work.self_time["report.root_cause"] / a,
        "service.handle_s": io.self_time["service.handle"] / n,
        "pool.roundtrip_s": io.self_time["pool.roundtrip"] / n,
        "server.http_s": (io.duration["client.request"]
                          - io.duration["service.handle"]) / n,
    }
    return {"metrics": metrics, "workload_specific": specific,
            "per_program": rows}


def counter_delta(before: Dict, after: Dict, keys) -> Dict[str, float]:
    return {key: after.get(key, 0) - before.get(key, 0) for key in keys}

