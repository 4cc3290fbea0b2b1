"""The graceful-degradation ladder over the accelerated analysis stack.

The standing parity invariant (PRs 2–7) — corpus reports byte-identical
across engine × precision-policy × substrate × batched layers — makes
every fast layer an *untrusted accelerator with a verified fallback*: a
slower configuration produces the same bytes.  The ladder turns that
invariant into availability.  On a classified failure
(:class:`~repro.resilience.errors.DegradableError` or
:class:`~repro.machine.interpreter.MachineError`) it retries the
analysis down the stack, one rung at a time, cumulatively::

    initial        the request as given
    working-tier   hardware double-double shadow tier off
    sequential     batched lockstep off (compiled engine kept)
    reference      compiled engine -> reference interpreter
    python-substrate   native kernels -> the pure-python reference
    fixed-policy   adaptive precision tiers -> fixed full precision

Rungs a request already sits on are skipped (a reference-engine,
python-substrate, fixed-policy request has no ladder below it), and a
non-degradable exception propagates immediately from whatever rung
raised it.  The winning rung records its path in
``result.extra["degradation"]`` — visible to in-process callers and
the serving stats, but **stripped from the serialized JSON**
(:meth:`AnalysisResult.to_dict`) so a degraded result stays
byte-identical to the clean run, which is the whole point.

``REPRO_DEGRADE=0`` (or ``AnalysisSession(degrade=False)`` /
``herbgrind-py analyze --no-degrade``) disables the ladder: the first
failure propagates, which is what you want when *debugging* the fast
path rather than serving traffic over it.
"""

from __future__ import annotations

import dataclasses
import logging
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import (
    ENGINE_COMPILED,
    ENGINE_REFERENCE,
    resolve_hw_tier,
)
from repro.machine.interpreter import MachineError
from repro.resilience.errors import DegradableError

logger = logging.getLogger("repro.resilience")

#: Environment kill-switch for the ladder (on unless "0"/"false"/"off").
ENV_VAR = "REPRO_DEGRADE"

#: Rung names, in ladder order.
RUNG_INITIAL = "initial"
RUNG_WORKING_TIER = "working-tier"
RUNG_SEQUENTIAL = "sequential"
RUNG_REFERENCE = "reference-engine"
RUNG_PYTHON_SUBSTRATE = "python-substrate"
RUNG_FIXED_POLICY = "fixed-policy"

LADDER_ORDER = (
    RUNG_WORKING_TIER,
    RUNG_SEQUENTIAL,
    RUNG_REFERENCE,
    RUNG_PYTHON_SUBSTRATE,
    RUNG_FIXED_POLICY,
)


def degradation_enabled(override: Optional[bool] = None) -> bool:
    """The effective ladder switch: explicit override, else the env."""
    if override is not None:
        return override
    return os.environ.get(ENV_VAR, "1").strip().lower() not in (
        "0", "false", "off"
    )


def classify(exc: BaseException) -> Optional[str]:
    """The degradable-failure kind of ``exc``, or None (not ours)."""
    if isinstance(exc, DegradableError):
        return type(exc).__name__
    if isinstance(exc, MachineError):
        return "MachineError"
    return None


def _batched_possible(request) -> bool:
    """Whether the request's compiled engine batches at all."""
    if request.batched is not None:
        return request.batched
    from repro.core.analysis import _batched_default

    return _batched_default()


class DegradationLadder:
    """The rung planner + retry driver for one request shape."""

    def __init__(self, enabled: Optional[bool] = None) -> None:
        self.enabled = degradation_enabled(enabled)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self, request) -> List[Tuple[str, Any]]:
        """The (rung name, degraded request) sequence below ``request``.

        Rungs are cumulative: each keeps every downgrade of the rungs
        above it, so the bottom rung is the slowest, most trusted
        configuration (reference engine, python substrate, fixed
        policy) regardless of where the failure struck.
        """
        rungs: List[Tuple[str, Any]] = []
        config = request.config
        changes: Dict[str, Any] = {}
        base = request
        if resolve_hw_tier(config):
            # The hardware shadow tier sits below the working tier; a
            # fault there degrades to BigFloat working-tier shadows
            # first, keeping every layer above intact.
            changes["hw_tier"] = False
            base = self._working_tier_request(request)
            rungs.append((RUNG_WORKING_TIER, base))
        if config.engine == ENGINE_COMPILED:
            if _batched_possible(request):
                rungs.append((RUNG_SEQUENTIAL,
                              self._sequential_request(base)))
            changes["engine"] = ENGINE_REFERENCE
            rungs.append((RUNG_REFERENCE,
                          self._derived(request, dict(changes))))
        if config.substrate != "python":
            changes["substrate"] = "python"
            rungs.append((RUNG_PYTHON_SUBSTRATE,
                          self._derived(request, dict(changes))))
        if config.precision_policy != "fixed":
            changes["precision_policy"] = "fixed"
            rungs.append((RUNG_FIXED_POLICY,
                          self._derived(request, dict(changes))))
        return rungs

    @staticmethod
    def _derived(request, changes: Dict[str, Any]):
        derived = dataclasses.replace(
            request, config=request.config.with_(**changes)
        )
        # An explicit batched override belongs to the configuration it
        # was built for; a degraded rung re-derives the engine default.
        derived.batched = None
        return derived

    @staticmethod
    def _working_tier_request(request):
        """The same request with only the hardware tier turned off.

        Unlike :meth:`_derived` this keeps an explicit batched override:
        the hardware tier is pure shadow policy, orthogonal to the
        engine's execution.
        """
        return dataclasses.replace(
            request, config=request.config.with_(hw_tier=False)
        )

    @staticmethod
    def _sequential_request(request):
        """The same request with only the batched layer turned off."""
        return dataclasses.replace(request, batched=False)

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
