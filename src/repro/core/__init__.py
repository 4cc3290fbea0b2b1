"""The Herbgrind analysis — the paper's primary contribution.

Subsystems, mirroring Section 4:

* spots-and-influences (``analysis``, ``records``, ``localerror``) —
  which operations influence which outputs/branches/conversions,
* symbolic expressions (``trace``, ``antiunify``) — abstracting the
  erroneous computation across function and heap boundaries,
* input characteristics (``inputs``) — on which inputs the computation
  is erroneous,
plus compensation detection and library wrapping (Section 5.3), and
the configuration knobs every Section 8 experiment sweeps (``config``).
"""

from repro.core.analysis import (
    HerbgrindAnalysis,
    analyze_program,
)
from repro.core.config import (
    ALL_CHARACTERISTICS,
    ALL_ENGINES,
    AnalysisConfig,
    CHARACTERISTICS_NONE,
    CHARACTERISTICS_RANGE,
    CHARACTERISTICS_REPRESENTATIVE,
    CHARACTERISTICS_SIGN_SPLIT,
    ENGINE_COMPILED,
    ENGINE_REFERENCE,
)
from repro.core.records import (
    OpRecord,
    SpotRecord,
    SPOT_BRANCH,
    SPOT_CONVERSION,
    SPOT_OUTPUT,
)
from repro.core.report import (
    AnalysisReport,
    RootCauseReport,
    SpotReport,
    generate_report,
    root_cause_report,
)
from repro.core.shadow import ShadowValue

__all__ = [
    "ALL_CHARACTERISTICS",
    "ALL_ENGINES",
    "AnalysisConfig",
    "AnalysisReport",
    "ENGINE_COMPILED",
    "ENGINE_REFERENCE",
    "CHARACTERISTICS_NONE",
    "CHARACTERISTICS_RANGE",
    "CHARACTERISTICS_REPRESENTATIVE",
    "CHARACTERISTICS_SIGN_SPLIT",
    "HerbgrindAnalysis",
    "OpRecord",
    "RootCauseReport",
    "SPOT_BRANCH",
    "SPOT_CONVERSION",
    "SPOT_OUTPUT",
    "ShadowValue",
    "SpotRecord",
    "SpotReport",
    "analyze_program",
    "generate_report",
    "root_cause_report",
]
