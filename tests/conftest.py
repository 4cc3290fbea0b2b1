"""Suite-wide guard: no test degrades silently.

The parity suites run their analyses behind the degradation ladder
(:mod:`repro.resilience.ladder`).  If a fast layer faulted on some
program, the ladder would retry it on a slower rung and the test would
still pass byte for byte.  So any test outside ``tests/resilience`` —
the chaos suite, which degrades on purpose — fails when it moved the
ladder's in-process counter.  Under an ambient fault plan
(``REPRO_FAULTS`` set when the run starts) degrading is the point, and
the guard stands aside.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.resilience import faults
from repro.resilience.ladder import degradations

_CHAOS_SUITE = pathlib.Path(__file__).resolve().parent / "resilience"

#: The fault plan the run started under (CI's flaky-fault leg sets one).
_AMBIENT_PLAN = os.environ.get(faults.ENV_VAR, "").strip()


@pytest.fixture(autouse=True)
def _no_silent_degradation(request):
    path = pathlib.Path(str(request.node.fspath)).resolve()
    if _AMBIENT_PLAN or _CHAOS_SUITE in path.parents:
        yield
        return
    before = degradations()
    yield
    after = degradations()
    moved = {
        rung: count - before.get(rung, 0)
        for rung, count in after.items() if count != before.get(rung, 0)
    }
    if moved:
        pytest.fail(
            f"the analysis degraded without a fault plan: {moved} "
            f"(retries per ladder rung)"
        )
