"""Typed analysis results with full JSON (de)serialization.

Every backend (Herbgrind, FpDebug, Verrou, BZ) reports through the
same shapes so callers can batch heterogeneous analyses and persist or
ship the outcomes:

* :class:`ErrorStats` — bits-of-error statistics for one site,
* :class:`RootCauseResult` — one candidate root cause (symbolic
  expression, observed input ranges, example problematic input),
* :class:`SpotResult` — one output/branch/conversion spot and the
  site-ids of the root causes that influenced it,
* :class:`AnalysisResult` — the full outcome of one request.

Serialization is deterministic: dictionaries are emitted with sorted
keys and every list is ordered by a stable site key, so the same
request produces byte-identical JSON whether it ran in-process or in a
worker pool (the ``analyze_batch`` parity guarantee).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Bump when the serialized shape changes incompatibly.
RESULT_SCHEMA_VERSION = 1


@dataclass
class ErrorStats:
    """Bits-of-error statistics for one site (op or spot)."""

    executions: int = 0
    erroneous: int = 0
    max_bits: float = 0.0
    average_bits: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "executions": self.executions,
            "erroneous": self.erroneous,
            "max_bits": self.max_bits,
            "average_bits": self.average_bits,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ErrorStats":
        return cls(**data)


@dataclass
class RootCauseResult:
    """One candidate root cause, in report-ready form."""

    site_id: int
    op: str
    loc: Optional[str]
    expression: Optional[str]
    variables: List[str] = field(default_factory=list)
    precondition_clauses: List[str] = field(default_factory=list)
    problematic_clauses: List[str] = field(default_factory=list)
    example_problematic: Optional[Dict[str, float]] = None
    compensations_detected: int = 0
    local_error: ErrorStats = field(default_factory=ErrorStats)

    def fpcore_text(self) -> str:
        """The (FPCore ...) form with the observed-input :pre."""
        if self.expression is None:
            return f"({self.op} <no expression>)"
        arguments = " ".join(self.variables)
        clauses = self.precondition_clauses
        if not clauses:
            pre = ""
        elif len(clauses) == 1:
            pre = f"\n  :pre {clauses[0]}"
        else:
            joined = "\n            ".join(clauses)
            pre = f"\n  :pre (and {joined})"
        return f"(FPCore ({arguments}){pre}\n  {self.expression})"

    def to_dict(self) -> Dict[str, Any]:
        example = self.example_problematic
        return {
            "site_id": self.site_id,
            "op": self.op,
            "loc": self.loc,
            "expression": self.expression,
            "variables": list(self.variables),
            "precondition_clauses": list(self.precondition_clauses),
            "problematic_clauses": list(self.problematic_clauses),
            "example_problematic": None if example is None else dict(example),
            "compensations_detected": self.compensations_detected,
            "local_error": self.local_error.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RootCauseResult":
        data = dict(data)
        data["local_error"] = ErrorStats.from_dict(data["local_error"])
        return cls(**data)


@dataclass
class SpotResult:
    """One spot (output, branch, or conversion) and its influences."""

    site_id: int
    kind: str
    loc: Optional[str]
    error: ErrorStats = field(default_factory=ErrorStats)
    #: site_ids of the root causes whose influence reached this spot.
    root_cause_sites: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site_id": self.site_id,
            "kind": self.kind,
            "loc": self.loc,
            "error": self.error.to_dict(),
            "root_cause_sites": list(self.root_cause_sites),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpotResult":
        data = dict(data)
        data["error"] = ErrorStats.from_dict(data["error"])
        return cls(**data)


#: ``extra`` keys that never leave the process: the degradation trail
#: (repro.resilience.ladder) and the precision-tier residency counters
#: (hardware/working/full tier attribution).  Stripping them from
#: serialization keeps corpus JSON *byte-identical* across feature
#: stacks — a degraded run matches the clean run, and an adaptive run
#: matches a fixed one.  Both stay on the object for in-process callers.
_LOCAL_EXTRA_KEYS = ("degradation", "tier_residency")


def _portable_extra(extra: Dict[str, Any]) -> Dict[str, Any]:
    if any(key in extra for key in _LOCAL_EXTRA_KEYS):
        return {
            k: v for k, v in extra.items() if k not in _LOCAL_EXTRA_KEYS
        }
    return extra


@dataclass
class AnalysisResult:
    """The outcome of one :class:`~repro.api.requests.AnalysisRequest`.

    ``raw`` optionally carries the backend's native analysis object
    (e.g. a ``HerbgrindAnalysis``) when the analysis ran in-process; it
    is never serialized and is ``None`` for results that crossed a
    process boundary.

    ``stored_json`` is the canonical ``to_json()`` text of a result
    read from or written to a result store
    (:class:`repro.api.session.ResultCache` binds it), so a warm hit
    serializes as the stored bytes instead of re-serializing.  Like
    ``raw`` it is invisible to equality; it is never an ``__init__``
    argument, so ``dataclasses.replace`` does not carry it to a
    different result.  A bound result is a snapshot: a caller that
    mutates one must reset ``stored_json`` to None.
    """

    benchmark: str
    backend: str
    seed: int
    num_points: int
    max_output_error: float = 0.0
    root_causes: List[RootCauseResult] = field(default_factory=list)
    spots: List[SpotResult] = field(default_factory=list)
    #: Backend-specific details (e.g. Verrou stability spreads).
    extra: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = RESULT_SCHEMA_VERSION
    raw: Any = field(default=None, compare=False, repr=False)
    stored_json: Optional[str] = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def detected(self) -> bool:
        """Whether the backend registered any erroneous spot."""
        return any(spot.error.erroneous > 0 for spot in self.spots)

    def reported_root_causes(self) -> List[RootCauseResult]:
        """Root causes whose influence reached at least one spot."""
        reached = set()
        for spot in self.spots:
            reached.update(spot.root_cause_sites)
        return [c for c in self.root_causes if c.site_id in reached]

    def __eq__(self, other: Any) -> bool:
        # Process-local extras are invisible to equality for the same
        # reason ``raw`` is compare-excluded: a result that crossed a
        # process boundary must compare equal to its in-process twin.
        if not isinstance(other, AnalysisResult):
            return NotImplemented
        return (
            self.benchmark == other.benchmark
            and self.backend == other.backend
            and self.seed == other.seed
            and self.num_points == other.num_points
            and self.max_output_error == other.max_output_error
            and self.root_causes == other.root_causes
            and self.spots == other.spots
            and self.schema_version == other.schema_version
            and _portable_extra(self.extra) == _portable_extra(other.extra)
        )

    def to_dict(self) -> Dict[str, Any]:
        extra = _portable_extra(self.extra)
        return {
            "schema_version": self.schema_version,
            "benchmark": self.benchmark,
            "backend": self.backend,
            "seed": self.seed,
            "num_points": self.num_points,
            "max_output_error": self.max_output_error,
            "root_causes": [c.to_dict() for c in self.root_causes],
            "spots": [s.to_dict() for s in self.spots],
            "extra": extra,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        if indent == 2 and self.stored_json is not None:
            return self.stored_json
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalysisResult":
        return cls(
            benchmark=data["benchmark"],
            backend=data["backend"],
            seed=data["seed"],
            num_points=data["num_points"],
            max_output_error=data["max_output_error"],
            root_causes=[
                RootCauseResult.from_dict(c) for c in data["root_causes"]
            ],
            spots=[SpotResult.from_dict(s) for s in data["spots"]],
            extra=data.get("extra", {}),
            schema_version=data.get("schema_version", RESULT_SCHEMA_VERSION),
        )

    @classmethod
    def from_json(cls, text: str) -> "AnalysisResult":
        return cls.from_dict(json.loads(text))


def results_to_json(results: List[AnalysisResult], indent: Optional[int] = 2) -> str:
    """Serialize a batch of results as one JSON array."""
    return json.dumps(
        [r.to_dict() for r in results], indent=indent, sort_keys=True
    )


def results_from_json(text: str) -> List[AnalysisResult]:
    """Deserialize a batch serialized by :func:`results_to_json`."""
    return [AnalysisResult.from_dict(d) for d in json.loads(text)]
