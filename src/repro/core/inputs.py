"""Input characteristics (paper Section 4.4).

For every symbolic-expression variable, the analysis summarizes the
values that variable took — once over *all* executions and once over
the executions with high local error.  The summary function is modular
(the paper ships three); all implementations here are incremental, as
Section 6's incrementalization requires.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core.config import (
    AnalysisConfig,
    CHARACTERISTICS_NONE,
    CHARACTERISTICS_RANGE,
    CHARACTERISTICS_REPRESENTATIVE,
    CHARACTERISTICS_SIGN_SPLIT,
)


class InputSummary:
    """Incremental summary of the set of values one variable has taken."""

    def add(self, value: float) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable rendering for reports."""
        raise NotImplementedError

    def clauses(self, variable: str) -> List[str]:
        """FPCore :pre clauses constraining ``variable``."""
        raise NotImplementedError

    def is_empty(self) -> bool:
        raise NotImplementedError


class NoSummary(InputSummary):
    """The 'ranges off' configuration of Figure 5b."""

    def add(self, value: float) -> None:
        pass

    def describe(self) -> str:
        return "(not tracked)"

    def clauses(self, variable: str) -> List[str]:
        return []

    def is_empty(self) -> bool:
        return True


class RepresentativeInput(InputSummary):
    """Keeps one representative value (the first seen)."""

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def add(self, value: float) -> None:
        if self.value is None and not math.isnan(value):
            self.value = value

    def describe(self) -> str:
        return "(no values)" if self.value is None else f"example {self.value!r}"

    def clauses(self, variable: str) -> List[str]:
        if self.value is None:
            return []
        return [f"(== {variable} {self.value!r})"]

    def is_empty(self) -> bool:
        return self.value is None


class RangeSummary(InputSummary):
    """A single [min, max] interval over all values (NaNs counted apart)."""

    def __init__(self) -> None:
        self.low = math.inf
        self.high = -math.inf
        #: NaN values recorded, rendered by :meth:`describe`; the
        #: compiled engine never skips recording a NaN binding.
        self.nan_count = 0
        #: Non-NaN values recorded.  Not an execution count: a memo
        #: hit that replays its tail (see
        #: ``HerbgrindAnalysis.tail_replays``) does not record its
        #: bindings again, so readers only test it against zero
        #: (this module's renderings, ``repro.eval.pipeline``).
        self.count = 0

    def add(self, value: float) -> None:
        if math.isnan(value):
            self.nan_count += 1
            return
        self.count += 1
        if value < self.low:
            self.low = value
        if value > self.high:
            self.high = value

    def describe(self) -> str:
        if self.count == 0:
            return "(no values)" if not self.nan_count else "(only NaN)"
        text = f"[{self.low!r}, {self.high!r}]"
        if self.nan_count:
            text += f" plus {self.nan_count} NaN"
        return text

    def clauses(self, variable: str) -> List[str]:
        if self.count == 0:
            return []
        return [f"(<= {self.low!r} {variable} {self.high!r})"]

    def is_empty(self) -> bool:
        return self.count == 0 and self.nan_count == 0


class SignSplitRangeSummary(InputSummary):
    """Separate ranges for negative and non-negative values.

    The third implementation of Section 4.4: magnitude ranges are far
    more informative when a variable straddles zero (a single range
    [-1e9, 1e9] says nothing about how close to zero values get).
    """

    def __init__(self) -> None:
        self.negative = RangeSummary()
        self.nonnegative = RangeSummary()

    def add(self, value: float) -> None:
        # One frame, not two: this runs once per variable binding of
        # every executed operation under the default configuration.
        if math.isnan(value):
            self.nonnegative.nan_count += 1
            return
        target = self.negative if value < 0 else self.nonnegative
        target.count += 1
        if value < target.low:
            target.low = value
        if value > target.high:
            target.high = value

    def describe(self) -> str:
        parts = []
        if not self.negative.is_empty():
            parts.append(f"neg {self.negative.describe()}")
        if not self.nonnegative.is_empty():
            parts.append(f"pos {self.nonnegative.describe()}")
        return "; ".join(parts) if parts else "(no values)"

    def clauses(self, variable: str) -> List[str]:
        have_negative = self.negative.count > 0
        have_nonnegative = self.nonnegative.count > 0
        if have_negative and have_nonnegative:
            return [f"(<= {self.negative.low!r} {variable} {self.nonnegative.high!r})"]
        if have_negative:
            return self.negative.clauses(variable)
        if have_nonnegative:
            return self.nonnegative.clauses(variable)
        return []

    def is_empty(self) -> bool:
        return self.negative.is_empty() and self.nonnegative.is_empty()


_FACTORIES = {
    CHARACTERISTICS_NONE: NoSummary,
    CHARACTERISTICS_REPRESENTATIVE: RepresentativeInput,
    CHARACTERISTICS_RANGE: RangeSummary,
    CHARACTERISTICS_SIGN_SPLIT: SignSplitRangeSummary,
}


class CharacteristicsTable:
    """Per-variable summaries for one operation site."""

    def __init__(self, config: AnalysisConfig) -> None:
        self._config = config
        #: The summary constructor, resolved once — the recording hot
        #: path must not re-consult the config per fresh variable.
        self._factory = _FACTORIES[config.input_characteristics]
        self.by_variable: Dict[str, InputSummary] = {}

    def record(self, variable: str, value: float) -> None:
        summary = self.by_variable.get(variable)
        if summary is None:
            summary = self.by_variable[variable] = self._factory()
        summary.add(value)

    def record_many(self, bindings: Dict[str, float]) -> None:
        """Record one value per variable (the fused pipeline's bulk
        entry point; identical to calling :meth:`record` per item in
        iteration order)."""
        table = self.by_variable
        factory = self._factory
        for variable, value in bindings.items():
            summary = table.get(variable)
            if summary is None:
                summary = table[variable] = factory()
            summary.add(value)

    def clauses(self) -> List[str]:
        result = []
        for variable in sorted(self.by_variable):
            result.extend(self.by_variable[variable].clauses(variable))
        return result

    def describe(self) -> Dict[str, str]:
        return {
            variable: summary.describe()
            for variable, summary in sorted(self.by_variable.items())
        }
