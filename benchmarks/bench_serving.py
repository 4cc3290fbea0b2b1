"""Serving-subsystem benchmark: seeded traffic replay over HTTP.

Measures what the ``repro.serve`` subsystem adds on top of raw
analysis — warm-path latency, in-flight dedupe, batch fan-out — and
gates on what it must preserve: byte-identical results.

Sections (all recorded in ``BENCH_serving.json``):

* **Warm vs cold latency** — per-request wall clock for first-touch
  (cold: full analysis through the worker pool) and repeat requests
  (warm: memory LRU / sharded store) over a corpus slice.  Reported
  as p50/p99; gated: warm p50 must be at most 5% of cold p50 — the
  point of a result store is that repeats cost I/O, not analysis.
* **Traffic replay** — a seeded request mix at a configurable
  hit ratio replayed through one keep-alive client, the serving
  analogue of re-running a corpus: total wall, requests/sec, and the
  server's own hit/miss/computed counters.
* **Dedupe effectiveness** — N concurrent identical cold requests
  from N clients; gated: the server computes exactly once.
* **Batch throughput** — one ``/v1/batch`` of fresh requests, one
  pool task per request; requests/sec.
* **Parity gate** — every served body byte-identical to
  ``AnalysisSession.analyze(request).to_json()`` in-process; the
  benchmark *fails* on any mismatch.

Usage:
    PYTHONPATH=src python benchmarks/bench_serving.py \
        [--slice 6] [--warm-reps 20] [--replay 60] [--hit-ratio 0.7] \
        [--dedupe-clients 8] [--batch 12] [--workers 2] \
        [--precision 256] [--points 3] [--seed 7] \
        [--out BENCH_serving.json]

CI runs a small-budget smoke subset; the checked-in BENCH_serving.json
comes from a full local run.
"""

from __future__ import annotations

import argparse
import asyncio
import concurrent.futures
import json
import shutil
import statistics
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.api import AnalysisSession, request_digest
from repro.api.store import ShardedResultStore
from repro.core import AnalysisConfig
from repro.fpcore import load_corpus
from repro.serve import AnalysisService, ReproServer, ServeClient


class _BenchServer:
    """A live server on a background event-loop thread."""

    def __init__(self, store_dir: str, workers: int) -> None:
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None
        self._store_dir = store_dir
        self._workers = workers
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()), daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=60)
        if self.error is not None:
            raise self.error
        if self.port is None:
            raise RuntimeError("benchmark server did not start")

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            service = AnalysisService(
                store=ShardedResultStore(self._store_dir),
                workers=self._workers,
            )
            server = ReproServer(service)
            _, self.port = await server.start()
        except BaseException as exc:  # noqa: BLE001 — report, don't hang
            self.error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await server.stop(drain=True)

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=120)

    def client(self) -> ServeClient:
        return ServeClient(port=self.port)


def _percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; robust for small sample counts."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    return {
        "samples": len(samples),
        "p50_ms": round(_percentile(samples, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(samples, 0.99) * 1e3, 3),
        "mean_ms": round(statistics.fmean(samples) * 1e3, 3),
    }


def _select_slice(session: AnalysisSession, size: int):
    """The ``size`` most expensive corpus benchmarks that analyze
    cleanly.

    Serving exists for analyses whose cost dwarfs an HTTP round trip
    (the loop benchmarks run for hundreds of milliseconds at the
    paper's 1000-bit shadow precision), so the latency gate measures
    that regime; trivial 1ms cores would gate the HTTP stack instead.
    """
    probe = AnalysisSession(
        config=session.config, num_points=session.num_points,
        seed=session.seed, result_cache_size=0,
    )
    timed = []
    for core in load_corpus():
        request = probe.request(core)
        start = time.perf_counter()
        try:
            probe.analyze(request)
        except Exception:  # noqa: BLE001 — skip cores the backend rejects
            continue
        timed.append((time.perf_counter() - start, request))
    timed.sort(key=lambda pair: -pair[0])
    return [request for _, request in timed[:size]]


def bench_latency(client: ServeClient, requests, warm_reps: int):
    cold, warm = [], []
    for request in requests:
        start = time.perf_counter()
        reply = client.analyze(request)
        cold.append(time.perf_counter() - start)
        assert reply.source == "computed", reply.source
        for _ in range(warm_reps):
            start = time.perf_counter()
            reply = client.analyze(request)
            warm.append(time.perf_counter() - start)
            assert reply.source in ("memory", "store"), reply.source
    cold_summary = _latency_summary(cold)
    warm_summary = _latency_summary(warm)
    ratio = warm_summary["p50_ms"] / max(cold_summary["p50_ms"], 1e-9)
    return {
        "cold": cold_summary,
        "warm": warm_summary,
        "warm_over_cold_p50": round(ratio, 5),
        "gate_limit": 0.05,
        "passed": ratio <= 0.05,
    }


def bench_replay(client: ServeClient, session, requests, length: int,
                 hit_ratio: float, seed: int):
    """A seeded mix of repeats and fresh requests through one client."""
    import random

    rng = random.Random(seed)
    sent = list(requests)  # the latency section already warmed these
    before = client.stats()["service"]
    latencies = []
    fresh_seed = 1000
    wall_start = time.perf_counter()
    for _ in range(length):
        if sent and rng.random() < hit_ratio:
            request = rng.choice(sent)
        else:
            fresh_seed += 1
            request = session.request(
                rng.choice(requests).core, seed=fresh_seed
            )
            sent.append(request)
        start = time.perf_counter()
        client.analyze(request)
        latencies.append(time.perf_counter() - start)
    wall = time.perf_counter() - wall_start
    after = client.stats()["service"]
    return {
        "length": length,
        "hit_ratio": hit_ratio,
        "wall_seconds": round(wall, 3),
        "requests_per_second": round(length / wall, 1),
        "latency": _latency_summary(latencies),
        "served": {
            key: after[key] - before[key]
            for key in ("computed", "memory_hits", "store_hits",
                        "dedupe_hits")
        },
    }


def bench_dedupe(server: _BenchServer, session, template, clients: int):
    """N concurrent identical cold requests must compute exactly once."""
    request = session.request(template.core, seed=31337)
    barrier = threading.Barrier(clients)

    def fire():
        with server.client() as client:
            barrier.wait()
            return client.analyze(request).source

    with server.client() as client:
        before = client.stats()["service"]
    with concurrent.futures.ThreadPoolExecutor(clients) as executor:
        sources = list(executor.map(lambda _: fire(), range(clients)))
    with server.client() as client:
        after = client.stats()["service"]
    computed = after["computed"] - before["computed"]
    return {
        "clients": clients,
        "computed": computed,
        "dedupe_hits": after["dedupe_hits"] - before["dedupe_hits"],
        "sources": sorted(sources),
        "passed": computed == 1,
    }


def bench_batch(client: ServeClient, session, requests, size: int):
    """One cold /v1/batch fanned out over the pool."""
    batch = [
        session.request(requests[i % len(requests)].core, seed=5000 + i)
        for i in range(size)
    ]
    start = time.perf_counter()
    envelope = client.batch(batch)
    wall = time.perf_counter() - start
    return {
        "size": size,
        "errors": envelope["errors"],
        "wall_seconds": round(wall, 3),
        "requests_per_second": round(size / wall, 1),
    }


def parity_gate(client: ServeClient, session, requests):
    """Served bytes must equal the in-process serialization."""
    failures: List[str] = []
    for request in requests:
        expected = session.analyze(request).to_json()
        served = client.analyze(request).text
        if served != expected:
            failures.append(request_digest(request))
    return {"checked": len(requests), "failures": failures,
            "identical": not failures}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--slice", type=int, default=6,
                        help="corpus benchmarks in the serving slice "
                             "(the slowest ones, by a probe run)")
    parser.add_argument("--warm-reps", type=int, default=20,
                        help="warm repetitions per benchmark")
    parser.add_argument("--replay", type=int, default=60,
                        help="requests in the seeded traffic replay")
    parser.add_argument("--hit-ratio", type=float, default=0.7,
                        help="replay probability of repeating a request")
    parser.add_argument("--dedupe-clients", type=int, default=8)
    parser.add_argument("--batch", type=int, default=12,
                        help="requests in the cold batch")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--precision", type=int, default=1000,
                        help="shadow precision for the serving slice "
                             "(default: the paper's 1000 bits)")
    parser.add_argument("--points", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_serving.json")
    args = parser.parse_args(argv)

    config = AnalysisConfig(shadow_precision=args.precision)
    session = AnalysisSession(
        config=config, num_points=args.points, seed=args.seed
    )
    requests = _select_slice(session, args.slice)
    print(f"serving slice: {len(requests)} corpus benchmarks, "
          f"precision={args.precision}, points={args.points}")

    store_dir = tempfile.mkdtemp(prefix="bench-serving-")
    server = _BenchServer(store_dir, args.workers)
    report = {
        "schema_version": 1,
        "settings": {
            "slice": [r.name for r in requests],
            "warm_reps": args.warm_reps,
            "replay": args.replay,
            "hit_ratio": args.hit_ratio,
            "dedupe_clients": args.dedupe_clients,
            "batch": args.batch,
            "workers": args.workers,
            "shadow_precision": args.precision,
            "points": args.points,
            "seed": args.seed,
        },
    }
    failures: List[str] = []
    try:
        client = server.client()
        report["latency"] = bench_latency(client, requests,
                                          args.warm_reps)
        lat = report["latency"]
        print(f"latency: cold p50 {lat['cold']['p50_ms']}ms, "
              f"warm p50 {lat['warm']['p50_ms']}ms "
              f"(ratio {lat['warm_over_cold_p50']})")
        if not lat["passed"]:
            failures.append("warm_p50_gate")

        report["replay"] = bench_replay(
            client, session, requests, args.replay, args.hit_ratio,
            args.seed,
        )
        print(f"replay: {report['replay']['requests_per_second']} req/s "
              f"over {args.replay} requests "
              f"(served: {report['replay']['served']})")

        report["dedupe"] = bench_dedupe(
            server, session, requests[0], args.dedupe_clients
        )
        print(f"dedupe: {report['dedupe']['clients']} clients -> "
              f"{report['dedupe']['computed']} computation(s)")
        if not report["dedupe"]["passed"]:
            failures.append("dedupe_gate")

        report["batch"] = bench_batch(client, session, requests, args.batch)
        print(f"batch: {report['batch']['requests_per_second']} req/s "
              f"({args.batch} cold requests)")

        report["parity"] = parity_gate(client, session, requests)
        print(f"parity: {report['parity']['checked']} benchmarks, "
              f"identical={report['parity']['identical']}")
        if not report["parity"]["identical"]:
            failures.append("parity_gate")

        report["server_stats"] = client.stats()
        client.close()
    finally:
        server.stop()
        shutil.rmtree(store_dir, ignore_errors=True)

    report["failures"] = failures
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}" + (f"; FAILED: {failures}" if failures
                                 else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
