"""Arbitrary-precision binary floating point — the MPFR substitute.

Herbgrind shadows every client double with a high-precision value
(Section 5.1 of the paper; 1000-bit significand by default).  This
package provides that capability from scratch:

* :class:`BigFloat` — immutable arbitrary-precision values with IEEE
  special-value semantics (signed zeros, infinities, NaN).
* :class:`Context` — precision + rounding mode, with a module default.
* :mod:`repro.bigfloat.arith` — correctly rounded +, -, *, /, sqrt, fma…
* :mod:`repro.bigfloat.transcendental` — faithful exp/log/trig/… kernels
  built on integer fixed-point series with Ziv-style reduction retries.
* :func:`apply` / :func:`apply_double` — name-based dispatch used by the
  shadow executor for the ⟦f⟧_R and ⟦f⟧_F semantics of Figure 4.
* :mod:`repro.bigfloat.doubledouble` — the compensated two-double
  hardware tier (:class:`DoubleDouble`) the adaptive policy runs below
  the working tier, with escalation-certified error bounds.
"""

from repro.bigfloat.bigfloat import BigFloat, HALF, ONE, TWO
from repro.bigfloat.context import (
    Context,
    DEFAULT_PRECISION,
    DOUBLE_CONTEXT,
    SINGLE_CONTEXT,
    getcontext,
    local_context,
    setcontext,
)
from repro.bigfloat.functions import (
    ALL_OPERATIONS,
    LIBRARY_OPERATIONS,
    apply,
    apply_double,
    arity,
)
from repro.bigfloat.rounding import (
    ROUND_DOWN,
    ROUND_NEAREST_AWAY,
    ROUND_NEAREST_EVEN,
    ROUND_TOWARD_ZERO,
    ROUND_UP,
)
from repro.bigfloat import arith, constants, transcendental
from repro.bigfloat.doubledouble import DD_KERNELS, DoubleDouble
from repro.bigfloat.backend import (
    ALL_SUBSTRATES,
    KernelBackend,
    available_substrates,
    get_backend,
    substrate_fallbacks,
    substrate_provider,
    substrate_status,
)
from repro.bigfloat.policy import (
    AdaptivePrecisionPolicy,
    EXACT,
    PrecisionPolicy,
    UNTRUSTED,
    available_policies,
    make_policy,
)

__all__ = [
    "ALL_OPERATIONS",
    "ALL_SUBSTRATES",
    "KernelBackend",
    "available_substrates",
    "get_backend",
    "substrate_fallbacks",
    "substrate_provider",
    "substrate_status",
    "AdaptivePrecisionPolicy",
    "BigFloat",
    "Context",
    "DD_KERNELS",
    "DoubleDouble",
    "EXACT",
    "PrecisionPolicy",
    "UNTRUSTED",
    "available_policies",
    "make_policy",
    "DEFAULT_PRECISION",
    "DOUBLE_CONTEXT",
    "HALF",
    "LIBRARY_OPERATIONS",
    "ONE",
    "ROUND_DOWN",
    "ROUND_NEAREST_AWAY",
    "ROUND_NEAREST_EVEN",
    "ROUND_TOWARD_ZERO",
    "ROUND_UP",
    "SINGLE_CONTEXT",
    "TWO",
    "apply",
    "apply_double",
    "arith",
    "arity",
    "constants",
    "getcontext",
    "local_context",
    "setcontext",
    "transcendental",
]
