"""Server CPU per memory hit, with ``repro serve`` in its own process.

Starts ``python -m repro.cli serve`` (2 workers, no store, log level
warning) from this checkout's ``src``, sends each straight-line corpus
program once at the ``serve-mixed`` settings (8 points, 1000-bit
shadows, seed 1), then replays them ``--rounds`` times from one
keep-alive client.  Every replayed request must come back as a
``memory`` hit.  Over the replay it reads the server process's user +
system CPU time from ``/proc/<pid>/stat`` (Linux only, clock-tick
resolution; the workers are separate processes and idle) and the
client's own CPU time, and prints one JSON line:
``server_us_per_hit``, ``client_us_per_hit``, their ratio
``server_per_client`` and ``wall_us_per_hit``.

The ratio to the client's CPU cancels most of the host's speed: the
client's per-request work does not change with the server's code.

Usage:
    PYTHONPATH=src python benchmarks/bench_serve_hit_cpu.py [--rounds 60]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Optional, Sequence

from repro.api import AnalysisSession
from repro.core import AnalysisConfig
from repro.fpcore import load_corpus
from repro.serve import ServeClient

LISTENING = "repro-serve listening on http://"
SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (its threads, not children)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def launch() -> "tuple[subprocess.Popen, int]":
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "2", "--log-level", "warning"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    for line in process.stdout:
        if LISTENING in line:
            address = line.split(LISTENING, 1)[1].split()[0]
            return process, int(address.rsplit(":", 1)[1])
    process.wait()
    raise RuntimeError(f"server exited early (rc={process.returncode})")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=60,
                        help="replays of the program list")
    args = parser.parse_args(argv)

    session = AnalysisSession(config=AnalysisConfig(shadow_precision=1000),
                              num_points=8, result_cache_size=0)
    payloads = [session.request(core, seed=1).to_dict()
                for core in load_corpus()
                if core.properties.get("herbgrind-family") != "loops"]
    process, port = launch()
    try:
        with ServeClient(port=port, timeout=120) as client:
            for payload in payloads:
                client.analyze(payload)
            server0 = process_cpu_s(process.pid)
            client0, wall0 = time.process_time(), time.perf_counter()
            for _ in range(args.rounds):
                for payload in payloads:
                    source = client.analyze(payload).source
                    if source != "memory":
                        raise RuntimeError(f"replayed request was {source}")
            server_s = process_cpu_s(process.pid) - server0
            client_s = time.process_time() - client0
            wall_s = time.perf_counter() - wall0
    finally:
        process.terminate()
        process.wait(timeout=60)
    hits = args.rounds * len(payloads)
    print(json.dumps({
        "programs": len(payloads),
        "hits": hits,
        "server_us_per_hit": round(server_s / hits * 1e6, 1),
        "client_us_per_hit": round(client_s / hits * 1e6, 1),
        "server_per_client": round(server_s / client_s, 3),
        "wall_us_per_hit": round(wall_s / hits * 1e6, 1),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
