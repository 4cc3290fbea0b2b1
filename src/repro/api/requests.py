"""The typed request half of the :mod:`repro.api` façade.

An :class:`AnalysisRequest` pins down everything needed to reproduce
one analysis — benchmark source, backend, sampling parameters, and the
analysis configuration — and serializes to JSON so requests can be
queued, shipped to worker processes, and replayed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.config import AnalysisConfig
from repro.fpcore.ast import FPCore
from repro.fpcore.parser import parse_fpcore

#: Accepted benchmark spellings for convenience constructors.
CoreLike = Union[FPCore, str]

#: Bound on :data:`PARSED_CORES`: a long-lived server sees an unbounded
#: stream of distinct programs, so the table resets (interning is an
#: optimization, not a semantic) rather than growing monotonically.
PARSED_CORE_LIMIT = 1024


class _CoreTable:
    """Parsed cores by source text, shared by every request of a process.

    A served hit re-sends a program the process has already parsed; the
    table turns its parse into a dict lookup.  Cores are immutable, so
    one instance can serve every request that names the same text.  A
    source that fails to parse raises and is never cached.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self._cores: Dict[str, FPCore] = {}

    def parse(self, text: str) -> FPCore:
        if not isinstance(text, str):
            return parse_fpcore(text)  # the parser's own error
        core = self._cores.get(text)
        if core is not None:
            self.hits += 1
            return core
        self.misses += 1
        core = parse_fpcore(text)
        if len(self._cores) >= self.limit:
            self._cores.clear()
        self._cores[text] = core
        return core

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._cores),
            "capacity": self.limit,
            "hits": self.hits,
            "misses": self.misses,
        }


#: The process-wide parse table :func:`coerce_core` and
#: :meth:`AnalysisRequest.from_dict` read.
PARSED_CORES = _CoreTable(PARSED_CORE_LIMIT)


def coerce_core(core: CoreLike) -> FPCore:
    """Accept an :class:`FPCore` or FPCore source text."""
    if isinstance(core, FPCore):
        return core
    return PARSED_CORES.parse(core)


def config_to_dict(config: AnalysisConfig) -> Dict[str, Any]:
    """A plain-dict form of an :class:`AnalysisConfig`.

    Resource-guard fields are emitted only when set (the same rule
    ``profile`` follows on the request itself).  The execution plan
    (:data:`~repro.core.config.PLAN_FIELDS`) is always emitted, so a
    worker runs the plan it was asked for; the digest leaves it out.
    """
    data = {
        "shadow_precision": config.shadow_precision,
        "engine": config.engine,
        "precision_policy": config.precision_policy,
        "substrate": config.substrate,
        "working_precision": config.working_precision,
        "escalation_guard_bits": config.escalation_guard_bits,
        "local_error_threshold": config.local_error_threshold,
        "output_error_threshold": config.output_error_threshold,
        "max_expression_depth": config.max_expression_depth,
        "equivalence_depth": config.equivalence_depth,
        "input_characteristics": config.input_characteristics,
        "detect_compensation": config.detect_compensation,
        "track_influences": config.track_influences,
        "hw_tier": config.hw_tier,
        "batched": config.batched,
    }
    if config.deadline_seconds is not None:
        data["deadline_seconds"] = config.deadline_seconds
    if config.op_budget is not None:
        data["op_budget"] = config.op_budget
    return data


def config_from_dict(data: Dict[str, Any]) -> AnalysisConfig:
    return AnalysisConfig(**data)


@dataclass
class AnalysisRequest:
    """One benchmark analysis, fully specified.

    ``points`` overrides sampling when given; otherwise ``num_points``
    inputs are drawn from the benchmark's :pre box with ``seed``.
    How the analysis runs is ``config``'s execution plan
    (:data:`~repro.core.config.PLAN_FIELDS`); ``profile`` is the only
    other engine switch, and none of them changes the report.
    """

    core: FPCore
    backend: str = "herbgrind"
    num_points: int = 16
    seed: int = 0
    points: Optional[List[List[float]]] = None
    config: AnalysisConfig = field(default_factory=AnalysisConfig)
    wrap_libraries: bool = True
    #: Emit per-stage pipeline attribution counters into the result's
    #: ``extra["pipeline_profile"]`` (Herbgrind backend only).  The
    #: counters cost time on the hot path, so this is opt-in; it is
    #: serialized (and participates in the request digest) only when
    #: set, keeping default digests and result JSON unchanged.
    profile: bool = False
    #: Optional libm override (a dict of IR functions).  In-process
    #: only: it is not serialized and cannot cross a worker boundary.
    libm: Any = field(default=None, compare=False, repr=False)

    @classmethod
    def build(
        cls,
        core: CoreLike,
        backend: str = "herbgrind",
        num_points: int = 16,
        seed: int = 0,
        points: Optional[Sequence[Sequence[float]]] = None,
        config: Optional[AnalysisConfig] = None,
        wrap_libraries: bool = True,
        profile: bool = False,
        libm: Any = None,
    ) -> "AnalysisRequest":
        return cls(
            core=coerce_core(core),
            backend=backend,
            num_points=num_points,
            seed=seed,
            points=[list(p) for p in points] if points is not None else None,
            config=config if config is not None else AnalysisConfig(),
            wrap_libraries=wrap_libraries,
            profile=profile,
            libm=libm,
        )

    @property
    def name(self) -> str:
        return self.core.name or "<anonymous>"

    def to_dict(self) -> Dict[str, Any]:
        if self.libm is not None:
            raise ValueError(
                "a libm override cannot cross a process boundary; "
                "run this request in-process (workers=1)"
            )
        data = {
            "core": self.core.canonical_text,
            "backend": self.backend,
            "num_points": self.num_points,
            "seed": self.seed,
            "points": self.points,
            "config": config_to_dict(self.config),
            "wrap_libraries": self.wrap_libraries,
        }
        if self.profile:
            # Serialized only when set: default requests keep their
            # historical digests and worker payload shape.
            data["profile"] = True
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalysisRequest":
        return cls(
            core=PARSED_CORES.parse(data["core"]),
            backend=data.get("backend", "herbgrind"),
            num_points=data.get("num_points", 16),
            seed=data.get("seed", 0),
            points=data.get("points"),
            config=config_from_dict(data.get("config", {})),
            wrap_libraries=data.get("wrap_libraries", True),
            profile=data.get("profile", False),
        )

    @classmethod
    def from_json(cls, text: str) -> "AnalysisRequest":
        return cls.from_dict(json.loads(text))
