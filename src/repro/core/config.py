"""Configuration of the Herbgrind analysis.

Every tunable the paper discusses is explicit here so the Section 8
experiments can sweep them:

* ``local_error_threshold`` — Tℓ, Figure 5a's sweep axis,
* ``max_expression_depth`` — Figures 5c/5d's sweep axis,
* ``input_characteristics`` — Figure 5b's three configurations,
* ``equivalence_depth`` — the Section 6.1 anti-unification bound,
* ``detect_compensation`` — the Section 8.3 subsystem,
* ``track_influences`` — disabling yields an FpDebug-like analysis,
* ``shadow_precision`` — Section 5.1's MPFR precision (1000 default),
* ``precision_policy`` / ``working_precision`` /
  ``escalation_guard_bits`` — the adaptive shadow-precision tiers
  (:mod:`repro.bigfloat.policy`); "fixed" reproduces the paper,
* ``substrate`` — which BigFloat kernel substrate evaluates the
  shadow reals (:mod:`repro.bigfloat.backend`); "native" (the default)
  uses gmpy2/mpmath when present, as the paper's MPFR shadows do,
  "python" is the dependency-free reference.

``engine``, the precision-policy fields, ``substrate``, ``hw_tier`` and
``batched`` form the execution plan (:data:`PLAN_FIELDS`): they decide
how the shadows are computed, never what the report says.  The parity
suites hold every plan to the same bytes, so the result digest leaves
the plan out.  :func:`env_switch` is the one reader of the environment
switches that pick a plan's defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

#: Input-characteristic configurations (paper Section 4.4: the system is
#: modular and ships three implementations).
CHARACTERISTICS_NONE = "none"
CHARACTERISTICS_REPRESENTATIVE = "representative"
CHARACTERISTICS_RANGE = "range"
CHARACTERISTICS_SIGN_SPLIT = "sign_split"

ALL_CHARACTERISTICS = (
    CHARACTERISTICS_NONE,
    CHARACTERISTICS_REPRESENTATIVE,
    CHARACTERISTICS_RANGE,
    CHARACTERISTICS_SIGN_SPLIT,
)


#: Execution engines (see :mod:`repro.machine.compiled`).
ENGINE_COMPILED = "compiled"
ENGINE_REFERENCE = "reference"
ALL_ENGINES = (ENGINE_COMPILED, ENGINE_REFERENCE)

#: The execution plan: the fields that choose how an analysis runs
#: (engine, precision tiers, kernel substrate, batching) but not what
#: it reports.  Requests that differ only here share a result digest.
PLAN_FIELDS = (
    "engine",
    "precision_policy",
    "substrate",
    "working_precision",
    "escalation_guard_bits",
    "hw_tier",
    "batched",
)


def env_switch(name: str) -> bool:
    """The environment switch ``name``: on unless set to "0"/"false"/"off".

    The only reader of ``REPRO_BATCHED`` and ``REPRO_HWTIER`` (the
    defaults of :attr:`AnalysisConfig.batched` and
    :attr:`AnalysisConfig.hw_tier`) and ``REPRO_DEGRADE`` (the
    degradation ladder's default, :mod:`repro.resilience.ladder`).
    """
    return os.environ.get(name, "1").strip().lower() not in (
        "0", "false", "off"
    )


@dataclass(frozen=True)
class AnalysisConfig:
    """All knobs of the analysis, with the paper's defaults."""

    #: Shadow-real precision in bits (paper Section 5.1, footnote 10).
    shadow_precision: int = 1000

    #: Execution engine: "compiled" runs the threaded-code interpreter
    #: with hash-consed traces and the steady-state anti-unification
    #: fast path; "reference" runs the original interpreter and the
    #: unoptimized analysis walks.  Results are byte-identical (the
    #: engine-parity suite enforces it); "reference" exists as the
    #: oracle and as a fallback when debugging the fast path itself.
    engine: str = ENGINE_COMPILED

    #: Precision tiering of the shadow execution: "fixed" runs every
    #: operation at ``shadow_precision`` (the paper's behaviour);
    #: "adaptive" runs at ``working_precision`` and escalates
    #: precision-sensitive decisions to ``shadow_precision`` (see
    #: :mod:`repro.bigfloat.policy`).
    precision_policy: str = "fixed"

    #: BigFloat kernel substrate for the shadow-real execution
    #: (:mod:`repro.bigfloat.backend`): "native" runs gmpy2 (MPFR) or
    #: mpmath kernels when importable, falling back to "python" when
    #: neither is; "python" runs the package's own integer-limb kernels
    #: (the reference).  Corpus reports are byte-identical across
    #: substrates (the substrate-parity suite enforces it).
    substrate: str = "native"

    #: Working-tier precision of the adaptive policy.
    working_precision: int = 144

    #: Guard band, in bits, around every adaptive-tier decision: the
    #: decision escalates when its margin is within the accumulated
    #: drift bound plus this many bits.
    escalation_guard_bits: int = 16

    #: Tℓ: bits of *local* error above which an operation becomes a
    #: candidate root cause (Figure 5a sweeps this).
    local_error_threshold: float = 5.0

    #: Tm: bits of output error above which an output spot records its
    #: influences (Section 8.1 uses 5 bits of significance).
    output_error_threshold: float = 5.0

    #: Maximum depth of concrete trace expressions; deeper sub-trees are
    #: truncated to opaque leaves (Figures 5c/5d sweep this; depth 1
    #: effectively disables symbolic expressions, like FpDebug).
    max_expression_depth: int = 20

    #: Depth to which anti-unification compares sub-trees for
    #: equivalence (Section 6.1; 5 by default).
    equivalence_depth: int = 5

    #: Which input-characteristics implementation to run (Figure 5b).
    input_characteristics: str = CHARACTERISTICS_SIGN_SPLIT

    #: Detect compensating terms and stop their influence propagation
    #: (Section 5.3 / 8.3).
    detect_compensation: bool = True

    #: Track influence taint from candidate root causes to spots.
    #: Turning this off reduces Herbgrind to per-op error detection.
    track_influences: bool = True

    #: Hardware shadow tier of the adaptive policy: run shadow
    #: arithmetic as compensated double-double pairs
    #: (:mod:`repro.bigfloat.doubledouble`) and escalate to the
    #: BigFloat working tier on any decision the hardware pair cannot
    #: certify.  Defaults to on unless ``REPRO_HWTIER`` switches it
    #: off.  Ignored by the "fixed" policy and by non-round-to-nearest
    #: roundings, and reports are byte-identical either way (the
    #: hw-tier parity suite enforces it).
    hw_tier: bool = field(
        default_factory=lambda: env_switch("REPRO_HWTIER")
    )

    #: Batched lockstep execution of the compiled engine: every sampled
    #: point runs through the program together.  Defaults to on unless
    #: ``REPRO_BATCHED`` switches it off; a resource guard forces it
    #: off, and the reference engine never batches.  Reports are
    #: byte-identical either way (the engine-parity suite enforces it).
    batched: bool = field(
        default_factory=lambda: env_switch("REPRO_BATCHED")
    )

    #: Wall-clock budget of one analysis, in seconds; ``None`` (the
    #: default) is unlimited.  When set, a :class:`ResourceGuard`
    #: (:mod:`repro.core.analysis`) raises
    #: :class:`~repro.resilience.errors.AnalysisDeadlineExceeded`
    #: mid-analysis, which the degradation ladder classifies like any
    #: other degradable failure.  Guard fields are serialized only when
    #: set, so default request digests are unchanged.
    deadline_seconds: Optional[float] = None

    #: Budget of analysed floating-point operations for one analysis;
    #: ``None`` (the default) is unlimited.  When spent, the guard
    #: raises :class:`~repro.resilience.errors.OpBudgetExceeded`,
    #: which the degradation ladder does not retry: every rung
    #: analyses the same operations.
    op_budget: Optional[int] = None

    def __post_init__(self) -> None:
        from repro.bigfloat.policy import available_policies

        if self.shadow_precision < 24:
            raise ValueError("shadow precision below single precision")
        if self.engine not in ALL_ENGINES:
            raise ValueError(
                f"unknown engine: {self.engine!r} "
                f"(known: {', '.join(ALL_ENGINES)})"
            )
        if self.precision_policy not in available_policies():
            raise ValueError(
                f"unknown precision policy: {self.precision_policy!r} "
                f"(known: {', '.join(available_policies())})"
            )
        from repro.bigfloat.backend import ALL_SUBSTRATES

        if self.substrate not in ALL_SUBSTRATES:
            raise ValueError(
                f"unknown substrate: {self.substrate!r} "
                f"(known: {', '.join(ALL_SUBSTRATES)})"
            )
        for switch in ("hw_tier", "batched"):
            if not isinstance(getattr(self, switch), bool):
                raise ValueError(f"{switch} must be true or false")
        if self.working_precision < 64:
            raise ValueError("working precision must be >= 64 bits")
        if self.escalation_guard_bits < 8:
            raise ValueError("escalation guard band must be >= 8 bits")
        if self.precision_policy == "adaptive" and \
                self.working_precision < 53 + self.escalation_guard_bits + 8:
            # Mirror AdaptivePrecisionPolicy's constructor check so a
            # bad combination fails at config time, not mid-analysis
            # inside a worker process.
            raise ValueError(
                f"working precision {self.working_precision} too small "
                f"for {self.escalation_guard_bits} guard bits over a "
                "53-bit target"
            )
        if self.max_expression_depth < 1:
            raise ValueError("max expression depth must be >= 1")
        if self.equivalence_depth < 1:
            raise ValueError("equivalence depth must be >= 1")
        if self.input_characteristics not in ALL_CHARACTERISTICS:
            raise ValueError(
                f"unknown characteristics kind: {self.input_characteristics!r}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("analysis deadline must be positive seconds")
        if self.op_budget is not None and self.op_budget < 1:
            raise ValueError("op budget must be >= 1 operation")

    def with_(self, **changes) -> "AnalysisConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


def resolve_hw_tier(config: AnalysisConfig) -> bool:
    """Effective hardware-tier switch: the tier exists only under the
    adaptive policy."""
    return config.precision_policy == "adaptive" and config.hw_tier
