#!/usr/bin/env python3
"""CI smoke test: a real ``repro serve`` process driven end to end.

Launches the CLI server as a subprocess on an ephemeral port, replays
a seeded mix of cold and repeat requests through
:class:`repro.serve.ServeClient`, and asserts the serving guarantees
on every push:

* every served body is byte-identical to an in-process
  ``AnalysisSession.analyze(request).to_json()``,
* concurrent identical requests dedupe to one computation
  (``dedupe_hits`` must be nonzero),
* a ``/v1/batch`` of fresh requests posted while ``/v1/analyze`` calls
  for the same requests are in flight computes each distinct digest
  once across both endpoints, and every batch entry is byte-identical
  to the in-process result,
* repeats are served warm (``memory``/``store``, no recomputation),
* SIGKILLing an analysis worker mid-replay loses zero requests: the
  pool respawns the worker and client retries absorb the structured
  500s, with every body still byte-identical,
* every result served as ``computed`` is on disk under ``--store-dir``
  with the served bytes (the worker persists it before replying),
* SIGTERM drains gracefully and the process exits 0, with an idle
  keep-alive connection still open (the drain closes it rather than
  waiting on it).

Usage:  PYTHONPATH=src python scripts/serve_smoke.py [--slice 6]
"""

from __future__ import annotations

import argparse
import concurrent.futures
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.api import AnalysisSession, request_digest
from repro.core import AnalysisConfig
from repro.fpcore import load_corpus
from repro.serve import ServeClient, ShardedResultStore

LISTENING = "repro-serve listening on http://"


def _worker_pids(server_pid: int) -> "list[int]":
    """Direct children of the server process (the analysis workers).

    Reads ``/proc/<pid>/stat`` — Linux only; callers skip the chaos
    step when the scan comes back empty.
    """
    children = []
    try:
        pids = [int(e) for e in os.listdir("/proc") if e.isdigit()]
    except OSError:
        return children
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "r") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == server_pid:  # ppid is field 4 of stat
            children.append(pid)
    return sorted(children)


def _launch(store_dir: str, workers: int) -> "tuple[subprocess.Popen, int]":
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", str(workers), "--store-dir", store_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    deadline = time.monotonic() + 60
    while True:
        if time.monotonic() > deadline:
            process.kill()
            raise RuntimeError("server did not announce its port in 60s")
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited early (rc={process.poll()})"
            )
        if LISTENING in line:
            port = int(line.split(LISTENING, 1)[1].split("/")[0]
                       .rsplit(":", 1)[1].split()[0])
            return process, port


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slice", type=int, default=6,
                        help="corpus benchmarks in the replay mix")
    parser.add_argument("--repeats", type=int, default=3,
                        help="warm repeats per benchmark in the replay")
    parser.add_argument("--dedupe-clients", type=int, default=6)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    config = AnalysisConfig(shadow_precision=256)
    session = AnalysisSession(config=config, num_points=3, seed=args.seed)
    requests = []
    for core in load_corpus():
        request = session.request(core)
        try:
            expected = session.analyze(request).to_json()
        except Exception:  # noqa: BLE001 — skip backend-rejected cores
            continue
        requests.append((request, expected))
        if len(requests) >= args.slice:
            break

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as store_dir:
        process, port = _launch(store_dir, args.workers)
        # Drain the server's stdout so it can't block on a full pipe.
        drainer = threading.Thread(
            target=lambda: [None for _ in process.stdout], daemon=True
        )
        drainer.start()
        try:
            client = ServeClient(port=port, timeout=120)
            assert client.health()["status"] == "ok"

            # Digest -> body of every reply served as "computed".
            computed = {}

            # Seeded replay: every benchmark cold once, then repeats
            # in a shuffled order that must all come back warm.
            rng = random.Random(args.seed)
            for request, expected in requests:
                reply = client.analyze(request)
                assert reply.source == "computed", reply.source
                computed[reply.digest] = reply.text
                assert reply.text == expected, (
                    f"parity mismatch on {request.name}"
                )
            replay = [pair for pair in requests
                      for _ in range(args.repeats)]
            rng.shuffle(replay)
            for request, expected in replay:
                reply = client.analyze(request)
                assert reply.source in ("memory", "store"), reply.source
                assert reply.text == expected, (
                    f"warm parity mismatch on {request.name}"
                )

            # Concurrent identical cold requests: exactly one compute.
            # Lots of points makes the analysis slow enough that every
            # client genuinely arrives while it is in flight (a cheap
            # request can finish before the last client connects,
            # turning would-be dedupe hits into memory hits).
            fresh = session.request(
                requests[0][0].core, seed=31337, num_points=512
            )
            barrier = threading.Barrier(args.dedupe_clients)

            def fire():
                with ServeClient(port=port, timeout=120) as one:
                    barrier.wait()
                    return one.analyze(fresh)

            with concurrent.futures.ThreadPoolExecutor(
                args.dedupe_clients
            ) as executor:
                replies = list(executor.map(
                    lambda _: fire(), range(args.dedupe_clients)
                ))
            sources = [reply.source for reply in replies]
            computed.update((reply.digest, reply.text) for reply in replies
                            if reply.source == "computed")
            stats = client.stats()["service"]
            assert sources.count("computed") <= 1, sources
            assert stats["dedupe_hits"] > 0, stats
            assert stats["computed"] == len(requests) + 1, stats

            # Cross-endpoint dedupe: one batch of fresh requests (one
            # of them twice) posted while /v1/analyze calls for the
            # same requests are in flight.  Whichever endpoint reaches
            # a digest first computes it; everyone else coalesces onto
            # that one computation or reads its stored result.
            crossed = []
            for index, (request, _) in enumerate(requests):
                twin = session.request(request.core, seed=5000 + index)
                crossed.append((twin, session.analyze(twin).to_json()))
            batch = [twin for twin, _ in crossed] + [crossed[0][0]]
            expected_entries = [text for _, text in crossed] + \
                [crossed[0][1]]
            distinct = len({request_digest(twin) for twin, _ in crossed})
            before = client.stats()["service"]["computed"]
            start = threading.Barrier(len(crossed) + 1)

            def post_batch():
                with ServeClient(port=port, timeout=120) as one:
                    start.wait()
                    return one.batch(batch)

            def post_single(twin):
                with ServeClient(port=port, timeout=120) as one:
                    start.wait()
                    return one.analyze(twin)

            with concurrent.futures.ThreadPoolExecutor(
                len(crossed) + 1
            ) as executor:
                posted = executor.submit(post_batch)
                singles = list(executor.map(
                    post_single, [twin for twin, _ in crossed]
                ))
                envelope = posted.result()
            assert envelope["errors"] == 0, envelope
            for entry, expected in zip(envelope["results"],
                                       expected_entries):
                assert json.dumps(entry, indent=2, sort_keys=True) == \
                    expected, "batch entry parity mismatch"
            for reply, (_, expected) in zip(singles, crossed):
                assert reply.text == expected, (
                    "cross-endpoint parity mismatch"
                )
                computed[reply.digest] = reply.text
            grown = client.stats()["service"]["computed"] - before
            assert grown == distinct, (
                f"{grown} computations for {distinct} distinct digests"
            )

            # Chaos leg: SIGKILL one analysis worker mid-replay.  The
            # pool must respawn it and the replay must finish with zero
            # failed requests — a kill that lands while the worker is
            # idle is absorbed by the pool's dead-worker resend, one
            # that lands mid-task surfaces as a structured 500 that the
            # client's retry budget absorbs.  Bodies stay byte-exact.
            chaos = []
            for index, (request, _) in enumerate(requests):
                fresh_cold = session.request(
                    request.core, seed=4000 + index
                )
                chaos.append(
                    (fresh_cold, session.analyze(fresh_cold).to_json())
                )
            victims = _worker_pids(process.pid)
            killed = None
            with ServeClient(port=port, timeout=120, retries=3,
                             backoff_base=0.05, jitter_seed=1) as chaotic:
                for index, (request, expected) in enumerate(chaos):
                    if index == 1 and victims:
                        killed = victims[0]
                        os.kill(killed, signal.SIGKILL)
                    reply = chaotic.analyze(request)
                    assert reply.status == 200, reply.status
                    assert reply.text == expected, (
                        f"chaos parity mismatch on {request.name}"
                    )
                    if reply.source == "computed":
                        computed[reply.digest] = reply.text
            if victims:
                assert killed is not None
                pool_stats = client.stats()["pool"]
                assert pool_stats["restarts"] >= 1, pool_stats
            else:
                print("warning: no /proc worker scan; chaos kill "
                      "skipped", file=sys.stderr)
            # Every computed result reached the store before its 200,
            # the SIGKILLed worker's retried request included.
            on_disk = ShardedResultStore(store_dir)
            for digest, text in computed.items():
                assert on_disk.get_text(digest) == text, (
                    f"served result {digest} is not on disk as served"
                )
            client.close()
            # An idle keep-alive connection, parked between requests,
            # stays open across SIGTERM: the drain must close it
            # rather than wait on it.
            idle = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=60)
            idle.request("GET", "/v1/health")
            response = idle.getresponse()
            response.read()
            assert response.status == 200, response.status
            assert response.getheader("Connection") == "keep-alive"
        except BaseException:
            process.kill()
            process.wait()
            raise

        process.send_signal(signal.SIGTERM)
        try:
            rc = process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            print("FAIL: server did not exit within 60 s of SIGTERM "
                  "with an idle keep-alive connection open",
                  file=sys.stderr)
            return 1
        finally:
            idle.close()
        if rc != 0:
            print(f"FAIL: server exited {rc} on SIGTERM", file=sys.stderr)
            return 1

    chaos_note = (f"worker {killed} SIGKILLed, 0 failed requests"
                  if killed is not None else "chaos kill skipped")
    print(f"serve smoke ok: {len(requests)} benchmarks cold+warm, "
          f"dedupe_hits={stats['dedupe_hits']}, "
          f"computed={stats['computed']}, batch+analyze of "
          f"{distinct} fresh digests computed each once, "
          f"{len(computed)} computed "
          f"results on disk, {chaos_note}, "
          f"graceful SIGTERM exit with an idle keep-alive connection")
    return 0


if __name__ == "__main__":
    sys.exit(main())
