"""The failure taxonomy of the degradation ladder.

:class:`DegradableError` and its subclasses mark a failure that a less
accelerated configuration can plausibly avoid — a crashed substrate
kernel, a fast-path engine fault, a spent wall-clock deadline.  The
ladder (:mod:`repro.resilience.ladder`) catches exactly this family
(plus :class:`repro.machine.interpreter.MachineError`) and retries the
analysis down the stack; anything else is a caller bug and propagates
untouched.

:class:`InvalidInputError` is the opposite case: the request itself is
wrong, so every rung would fail the same way.  It is raised before the
ladder runs and the serving layer answers it with HTTP 400.
:class:`OpBudgetExceeded` is not degradable either: every rung
analyses the same operations, so a spent op budget would be spent
again on each.

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


class ResourceExhausted(Exception):
    """A per-analysis resource guard fired (:class:`ResourceGuard` in
    :mod:`repro.core.analysis`)."""


class AnalysisDeadlineExceeded(ResourceExhausted, DegradableError):
    """``AnalysisConfig.deadline_seconds`` elapsed mid-analysis.
    Degradable: it depends on wall-clock time, which a retry may
    spend differently."""


class OpBudgetExceeded(ResourceExhausted):
    """``AnalysisConfig.op_budget`` analysed operations were spent.
    Not degradable: every ladder rung analyses the same operations
    (the parity invariant), so each would exhaust the budget again."""
