"""The failure taxonomy of the degradation ladder.

:class:`DegradableError` and its subclasses mark a failure that a less
accelerated configuration can plausibly avoid — a crashed substrate
kernel, a fast-path engine fault, an exhausted per-analysis resource
budget.  The ladder (:mod:`repro.resilience.ladder`) catches exactly
this family (plus :class:`repro.machine.interpreter.MachineError`) and
retries the analysis down the stack; anything else is a caller bug and
propagates untouched.

:class:`InvalidInputError` is the opposite case: the request itself is
wrong, so every rung would fail the same way.  It is raised before the
ladder runs and the serving layer answers it with HTTP 400.

Everything is stdlib-only and import-light: the analysis hot path
imports this module at startup.
"""

from __future__ import annotations


class DegradableError(Exception):
    """A failure a less-accelerated configuration may avoid.

    ``seam`` optionally names the fault-injection seam that raised it
    (:mod:`repro.resilience.faults`), so chaos tests can assert *which*
    injected fault a degradation attempt absorbed.
    """

    seam: str = ""


class InvalidInputError(ValueError):
    """The program or its inputs cannot be analysed as given (an
    unknown function, an empty :pre range, ...).  Never degradable."""


class KernelFault(DegradableError):
    """A BigFloat substrate kernel failed (native library crash or an
    injected ``kernel.*`` fault).  Degrades native → python substrate."""


class EngineFault(DegradableError):
    """A fast-path engine layer failed (compiled/batched execution or
    an injected ``engine.*`` fault).  Degrades toward the reference
    interpreter."""


class FaultInjected(DegradableError):
    """The generic exception of a fired fault seam with no more
    specific class (see :func:`repro.resilience.faults.trip`)."""


class ResourceExhausted(DegradableError):
    """A per-analysis resource guard fired (:class:`ResourceGuard` in
    :mod:`repro.core.analysis`)."""


class AnalysisDeadlineExceeded(ResourceExhausted):
    """``AnalysisConfig.deadline_seconds`` elapsed mid-analysis."""


class OpBudgetExceeded(ResourceExhausted):
    """``AnalysisConfig.op_budget`` analysed operations were spent."""
