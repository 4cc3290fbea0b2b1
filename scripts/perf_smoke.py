"""CI smoke for the repository benchmark: golden bytes, whole corpus.

Runs ``perfbench/run.py`` (by default ``--workload adaptive --seconds
5``) and checks the JSON object it prints as its last stdout line.
Every result the benchmark produces is compared against the reference
engine's bytes in ``perfbench/golden.json``, so this is a whole-corpus
byte-identity check of the compiled, batched and hardware-tier layers.
The benchmark itself exits 0 even on a mismatch; this wrapper fails
unless that line reads ``"correct": true`` with ``"failed": 0``::

    python3 scripts/perf_smoke.py
    python3 scripts/perf_smoke.py --workload serve-mixed --seconds 10
    python3 scripts/perf_smoke.py --workload loops --seconds 5

Arguments are passed through to ``perfbench/run.py``.  Exit status: 0
when correct, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join(REPO_ROOT, "perfbench", "run.py")
DEFAULT_ARGS = ["--workload", "adaptive", "--seconds", "5"]


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or DEFAULT_ARGS
    completed = subprocess.run(
        [sys.executable, RUNNER, *args],
        stdout=subprocess.PIPE, text=True, cwd=REPO_ROOT,
    )
    sys.stdout.write(completed.stdout)
    if completed.returncode != 0:
        print(f"perf-smoke: benchmark exited {completed.returncode}",
              file=sys.stderr)
        return 1
    lines = completed.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perf-smoke: no JSON summary line", file=sys.stderr)
        return 1
    if summary.get("correct") is not True or summary.get("failed") != 0:
        print(f"perf-smoke: correct={summary.get('correct')!r} "
              f"failed={summary.get('failed')!r}", file=sys.stderr)
        return 1
    print(f"perf-smoke: correct, {summary.get('attempted')} attempted, "
          f"0 failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
