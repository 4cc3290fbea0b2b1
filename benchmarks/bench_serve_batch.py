"""Server cost of one cold ``/v1/batch``, with ``repro serve`` in its
own process.

Starts ``python -m repro.cli serve`` (2 workers, no store, log level
warning) from this checkout's ``src``, then sends ``--rounds`` batches,
each of the straight-line corpus programs at the ``serve-mixed``
settings (8 points, 1000-bit shadows) under a seed no earlier round
used, so every entry is computed.  Around each batch it reads the
server process's voluntary context switches, summed over its threads
(``/proc/<pid>/task/*/status``: what ``getrusage(RUSAGE_SELF)`` would
report in the server, for threads still alive), and its user + system
CPU time; the workers are separate processes and not counted.  It
prints one JSON line with the median and quartiles of each per-batch
figure (``wall_ms``, ``server_cpu_ms``, ``server_voluntary_switches``)
and every round's values.

Usage:
    PYTHONPATH=src python benchmarks/bench_serve_batch.py [--rounds 10]
"""

from __future__ import annotations

import argparse
import glob
import json
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

from bench_serve_hit_cpu import launch, process_cpu_s

from repro.api import AnalysisSession
from repro.core import AnalysisConfig
from repro.fpcore import load_corpus
from repro.serve import ServeClient


def voluntary_switches(pid: int) -> int:
    """Voluntary context switches of ``pid``'s live threads."""
    total = 0
    for path in glob.glob(f"/proc/{pid}/task/*/status"):
        try:
            with open(path, encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("voluntary_ctxt_switches:"):
                        total += int(line.split()[1])
        except OSError:  # the thread exited between glob and open
            continue
    return total


def summary(values: List[float]) -> Dict[str, object]:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3
    return {"median": round(statistics.median(values), 3),
            "quartiles": [round(quartiles[0], 3), round(quartiles[2], 3)],
            "runs": [round(value, 3) for value in values]}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=10,
                        help="cold batches to send")
    args = parser.parse_args(argv)

    session = AnalysisSession(config=AnalysisConfig(shadow_precision=1000),
                              num_points=8, result_cache_size=0)
    cores = [core for core in load_corpus()
             if core.properties.get("herbgrind-family") != "loops"]
    process, port = launch()
    figures: Dict[str, List[float]] = {
        "wall_ms": [], "server_cpu_ms": [], "server_voluntary_switches": [],
    }
    try:
        with ServeClient(port=port, timeout=300) as client:
            for round_index in range(args.rounds):
                batch = [session.request(core, seed=1000 + round_index)
                         .to_dict() for core in cores]
                switches0 = voluntary_switches(process.pid)
                cpu0 = process_cpu_s(process.pid)
                wall0 = time.perf_counter()
                envelope = client.batch(batch)
                wall = time.perf_counter() - wall0
                figures["server_cpu_ms"].append(
                    (process_cpu_s(process.pid) - cpu0) * 1e3)
                figures["server_voluntary_switches"].append(
                    voluntary_switches(process.pid) - switches0)
                figures["wall_ms"].append(wall * 1e3)
                if envelope["errors"] or envelope["count"] != len(cores):
                    raise RuntimeError(f"batch {round_index} failed: "
                                       f"{envelope['errors']} errors")
    finally:
        process.terminate()
        process.wait(timeout=60)
    report = {"programs": len(cores), "rounds": args.rounds}
    report.update((name, summary(values))
                  for name, values in figures.items())
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
