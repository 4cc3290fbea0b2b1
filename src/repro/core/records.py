"""Per-site analysis state: operation entries and spot entries.

The paper's Figure 3 keeps two tables: ``ops[pc]`` for every
floating-point computation site (symbolic expression + input
summaries) and ``spots[pc]`` for every output / branch / conversion
site (error statistics + influencing operations).  These classes are
those table rows, aggregated incrementally (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.core.antiunify import Generalization
from repro.core.config import AnalysisConfig
from repro.core.inputs import CharacteristicsTable
from repro.fpcore.ast import Expr

SPOT_OUTPUT = "output"
SPOT_BRANCH = "branch"
SPOT_CONVERSION = "conversion"


@dataclass(slots=True)
class OpRecord:
    """State for one floating-point operation site.

    This is the fused pipeline's flat per-site state record: slotted,
    with the aggregate fields updated by direct attribute writes from
    the site-compiled callbacks (several per executed operation).
    """

    site_id: int
    op: str
    loc: Optional[str]
    config: AnalysisConfig
    executions: int = 0
    candidate_executions: int = 0  # executions with local error > Tℓ
    max_local_error: float = 0.0
    sum_local_error: float = 0.0
    compensations_detected: int = 0
    generalization: Generalization = None
    total_inputs: CharacteristicsTable = None
    problematic_inputs: CharacteristicsTable = None
    example_problematic: Optional[Dict[str, float]] = None
    #: The most recent concrete trace (for per-node source locations).
    #: Under the ident-first pool this is materialized at the end of
    #: each run (capped at the expression depth bound) from
    #: :attr:`pending_trace`; the reference path assigns it per op.
    last_trace: object = None
    #: The pool ident of the most recent trace, awaiting end-of-run
    #: materialization (compiled engine only; None otherwise).
    pending_trace: Optional[int] = None

    def __post_init__(self) -> None:
        self.generalization = Generalization(
            equivalence_depth=self.config.equivalence_depth,
            max_depth=self.config.max_expression_depth,
        )
        self.total_inputs = CharacteristicsTable(self.config)
        self.problematic_inputs = CharacteristicsTable(self.config)

    # ------------------------------------------------------------------

    @property
    def symbolic_expression(self) -> Optional[Expr]:
        return self.generalization.expression

    @property
    def average_local_error(self) -> float:
        if self.executions == 0:
            return 0.0
        return self.sum_local_error / self.executions

    def record_execution(self, local_error_bits: float) -> None:
        self.executions += 1
        self.sum_local_error += local_error_bits
        if local_error_bits > self.max_local_error:
            self.max_local_error = local_error_bits

    def node_locations(self):
        """Source location per operator node of the symbolic expression
        (the paper's footnote 5 capability)."""
        from repro.core.locations import map_node_locations

        if self.symbolic_expression is None or self.last_trace is None:
            return {}
        return map_node_locations(self.symbolic_expression, self.last_trace)

    def located_expression(self) -> str:
        """The symbolic expression rendered one operator per line with
        its source location."""
        from repro.core.locations import format_located_expression

        if self.symbolic_expression is None:
            return "<no expression>"
        return format_located_expression(
            self.symbolic_expression, self.node_locations()
        )

    def __hash__(self) -> int:
        return self.site_id

    def __eq__(self, other) -> bool:
        return self is other


@dataclass
class SpotRecord:
    """State for one spot: an output, branch, or conversion site."""

    site_id: int
    kind: str
    loc: Optional[str]
    executions: int = 0
    erroneous: int = 0  # executions whose error/divergence registered
    max_error: float = 0.0
    sum_error: float = 0.0
    influences: Set[OpRecord] = field(default_factory=set)

    @property
    def average_error(self) -> float:
        if self.executions == 0:
            return 0.0
        return self.sum_error / self.executions

    def record(self, error_bits: float, erroneous: bool) -> None:
        self.executions += 1
        self.sum_error += error_bits
        if error_bits > self.max_error:
            self.max_error = error_bits
        if erroneous:
            self.erroneous += 1

    def __hash__(self) -> int:
        return self.site_id

    def __eq__(self, other) -> bool:
        return self is other
