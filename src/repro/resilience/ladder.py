"""The graceful-degradation ladder over the accelerated analysis stack.

The standing parity invariant (PRs 2–7) — corpus reports byte-identical
across every execution plan (:data:`~repro.core.config.PLAN_FIELDS`:
engine × precision policy × substrate × batched) —
makes every fast layer an *untrusted accelerator with a verified
fallback*: a slower plan produces the same bytes.  The ladder turns
that invariant into availability.  On a classified failure
(:class:`~repro.resilience.errors.DegradableError`) it retries the
analysis down the stack, one rung at a time.  Each rung is one config
change, kept by every rung below it::

    initial            the request as given
    sequential         batched=False
    reference-engine   engine="reference"
    python-substrate   substrate="python"
    fixed-policy       precision_policy="fixed"

A rung whose change leaves the plan that actually runs unchanged is
skipped (a reference-engine, python-substrate, fixed-policy request
has no ladder below it, and on a host where ``native`` resolves to the
python kernels there is no python-substrate rung), and a
non-degradable exception propagates immediately from whatever rung
raised it.  Every rung keeps the
request's digest, which leaves the plan out.  The winning rung records
its path in ``result.extra["degradation"]`` — visible to in-process
callers and the serving stats, but **stripped from the serialized
JSON** (:meth:`AnalysisResult.to_dict`) so a degraded result stays
byte-identical to the clean run, which is the whole point.  Each
retry on a lower rung is also counted per process
(:func:`degradations`), so no degradation is silent even where the
result's ``extra`` is never read.

``REPRO_DEGRADE=0`` (read by :func:`repro.core.config.env_switch`), or
``AnalysisSession(degrade=False)`` / ``herbgrind-py analyze
--no-degrade``, disables the ladder: the first failure propagates,
which is what you want when *debugging* the fast path rather than
serving traffic over it.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bigfloat.backend import substrate_provider
from repro.core.config import (
    ENGINE_COMPILED,
    ENGINE_REFERENCE,
    env_switch,
)
from repro.resilience.errors import DegradableError

logger = logging.getLogger("repro.resilience")

#: Rung names, in ladder order.
RUNG_INITIAL = "initial"
RUNG_SEQUENTIAL = "sequential"
RUNG_REFERENCE = "reference-engine"
RUNG_PYTHON_SUBSTRATE = "python-substrate"
RUNG_FIXED_POLICY = "fixed-policy"

#: The ladder, top to bottom: each rung's config change.
LADDER = (
    (RUNG_SEQUENTIAL, {"batched": False}),
    (RUNG_REFERENCE, {"engine": ENGINE_REFERENCE}),
    (RUNG_PYTHON_SUBSTRATE, {"substrate": "python"}),
    (RUNG_FIXED_POLICY, {"precision_policy": "fixed"}),
)


#: Rung name -> retries onto that rung in this process; see
#: :func:`degradations`.
_degradations: Dict[str, int] = {}


def degradations() -> Dict[str, int]:
    """How often the ladder retried a request on a lower rung, per rung.

    Counts cover the whole process: an analysis run in a batch or serve
    worker is counted in that worker.  The test suite fails any test
    that degrades in-process without a fault plan.
    """
    return dict(_degradations)


def degradation_enabled(override: Optional[bool] = None) -> bool:
    """The effective ladder switch: explicit override, else the env."""
    if override is not None:
        return override
    return env_switch("REPRO_DEGRADE")


def classify(exc: BaseException) -> Optional[str]:
    """The degradable-failure kind of ``exc``, or None (not ours).

    A :class:`~repro.machine.interpreter.MachineError` or a spent
    resource budget is not ours: the program and its inputs, or the
    budget, fail every rung alike (see :mod:`repro.resilience.errors`).
    """
    if isinstance(exc, DegradableError):
        return type(exc).__name__
    return None


def _runs(config) -> Tuple:
    """The plan ``config`` actually runs: batching only on the compiled
    engine, and the substrate is the provider its name resolves to."""
    return (
        config.batched and config.engine == ENGINE_COMPILED,
        config.engine,
        substrate_provider(config.substrate),
        config.precision_policy,
    )


class DegradationLadder:
    """The rung planner + retry driver for one request shape."""

    def __init__(self, enabled: Optional[bool] = None) -> None:
        self.enabled = degradation_enabled(enabled)

    def plan(self, request) -> List[Tuple[str, Any]]:
        """The (rung name, degraded request) sequence below ``request``.

        Rungs are cumulative, so the bottom rung is the slowest, most
        trusted configuration (reference engine, python substrate,
        fixed policy) regardless of where the failure struck.
        """
        rungs: List[Tuple[str, Any]] = []
        config = request.config
        for rung, change in LADDER:
            degraded = config.with_(**change)
            if _runs(degraded) != _runs(config):
                config = degraded
                rungs.append((rung, dataclasses.replace(
                    request, config=config)))
        return rungs

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, request, execute: Callable[[Any], Any]):
        """``execute(request)``, retried down the ladder on failure.

        ``execute`` maps a request to an
        :class:`~repro.api.results.AnalysisResult`.  On success after
        one or more degradations, the winning result's
        ``extra["degradation"]`` records the path::

            {"degraded": True, "rung": "<winning rung>",
             "attempts": [{"rung": ..., "error":
                           {"type": ..., "message": ...}}, ...]}

        A non-degradable exception propagates from whatever rung it
        struck; a ladder that runs dry re-raises the *last* degradable
        failure (the bottom rung's).
        """
        if not self.enabled:
            return execute(request)
        attempts: List[Dict[str, Any]] = []
        try:
            return execute(request)
        except Exception as exc:  # noqa: BLE001 — classified below
            kind = classify(exc)
            if kind is None:
                raise
            attempts.append(self._attempt(RUNG_INITIAL, exc, kind))
            last_error = exc
        for rung, degraded in self.plan(request):
            _degradations[rung] = _degradations.get(rung, 0) + 1
            logger.warning(
                "degrading %s to rung %r after %s: %s",
                getattr(request, "name", "<request>"), rung,
                type(last_error).__name__, last_error,
            )
            try:
                result = execute(degraded)
            except Exception as exc:  # noqa: BLE001 — classified below
                kind = classify(exc)
                if kind is None:
                    raise
                attempts.append(self._attempt(rung, exc, kind))
                last_error = exc
                continue
            result.extra["degradation"] = {
                "degraded": True,
                "rung": rung,
                "attempts": attempts,
            }
            return result
        raise last_error

    @staticmethod
    def _attempt(rung: str, exc: BaseException, kind: str) -> Dict[str, Any]:
        error: Dict[str, Any] = {
            "type": type(exc).__name__, "kind": kind, "message": str(exc),
        }
        seam = getattr(exc, "seam", "")
        if seam:
            error["seam"] = seam
        return {"rung": rung, "error": error}


def run_with_ladder(request, execute: Callable[[Any], Any],
                    enabled: Optional[bool] = None):
    """Module-level convenience: one ladder, one request, one run."""
    return DegradationLadder(enabled).run(request, execute)
