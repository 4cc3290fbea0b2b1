"""The programmatic façade of the reproduction: ``repro.api``.

One stable entry point for every analysis in the repo::

    from repro.api import AnalysisSession

    session = AnalysisSession()
    result = session.analyze("(FPCore (x) :pre (<= 1e15 x 1e16) (- (+ x 1) x))")
    print(result.to_json())

    results = session.analyze_batch(load_corpus(), workers=4)

Subsystems:

* :mod:`repro.api.session`  — the configure-once façade with program
  and input-set caches and multiprocessing batch execution,
* :mod:`repro.api.requests` — typed, JSON-serializable requests,
* :mod:`repro.api.results`  — typed, JSON-serializable results,
* :mod:`repro.api.backends` — the pluggable backend registry
  (herbgrind, fpdebug, verrou, bz),
* :mod:`repro.api.sampling` — the shared precondition-box sampler.

Every analysis goes through the session: ``session.analyze(core)``
returns a serializable :class:`AnalysisResult` whose ``raw`` attribute
is the backend's native analysis object (a ``HerbgrindAnalysis`` for
the default backend).  Sampling lives in :mod:`repro.api.sampling`.
"""

from repro.api.backends import (
    AnalysisBackend,
    BZBackend,
    FpDebugBackend,
    HerbgrindBackend,
    VerrouBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.api.requests import AnalysisRequest
from repro.api.results import (
    RESULT_SCHEMA_VERSION,
    AnalysisResult,
    ErrorStats,
    RootCauseResult,
    SpotResult,
    results_from_json,
    results_to_json,
)
from repro.api.sampling import (
    DEFAULT_RANGE,
    LOG_SPAN_RATIO,
    EmptyRangeError,
    precondition_box,
    sample_box,
    sample_inputs,
    sample_range,
    sampler_precondition_errors,
)
from repro.api.session import AnalysisSession, ResultCache, request_digest
from repro.api.store import ShardedResultStore

__all__ = [
    "AnalysisBackend",
    "AnalysisRequest",
    "AnalysisResult",
    "AnalysisSession",
    "BZBackend",
    "DEFAULT_RANGE",
    "EmptyRangeError",
    "ErrorStats",
    "FpDebugBackend",
    "HerbgrindBackend",
    "LOG_SPAN_RATIO",
    "RESULT_SCHEMA_VERSION",
    "ResultCache",
    "RootCauseResult",
    "ShardedResultStore",
    "SpotResult",
    "VerrouBackend",
    "available_backends",
    "get_backend",
    "precondition_box",
    "register_backend",
    "request_digest",
    "results_from_json",
    "results_to_json",
    "sample_box",
    "sample_inputs",
    "sample_range",
    "sampler_precondition_errors",
]
