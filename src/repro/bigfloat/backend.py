"""Pluggable BigFloat kernel substrates (``AnalysisConfig.substrate``).

The shadow-real semantics ⟦f⟧_R can be evaluated by more than one
arbitrary-precision engine:

* ``python`` — the package's own integer-limb kernels
  (:mod:`repro.bigfloat.arith` / :mod:`repro.bigfloat.transcendental`),
  the reference substrate with zero dependencies.
* ``native`` (the default of ``AnalysisConfig.substrate``) — a faster
  engine when one is importable: gmpy2 (MPFR) first, then mpmath's
  ``libmp`` fixed-point kernels, falling back to the python kernels
  when neither is present.  Selection happens once per process; a
  provider that fails its startup self-check (see
  :func:`_run_self_check`) is discarded rather than trusted, and
  :func:`substrate_fallbacks` says why each skipped provider was
  passed over.  ``libmp`` is loaded on its own (:func:`_import_libmp`),
  without the rest of mpmath.

A substrate replaces only the *general-path numerics*.  Every IEEE
special value, domain error, signed-zero rule, overflow clamp and
cheap shortcut routes through the shared ``_*_special`` helpers of the
python modules, so all substrates agree bit-for-bit on special-value
semantics; general-path results are faithful at the context precision
under every substrate.  Whole-corpus reports are enforced
byte-identical across substrates by ``tests/core/test_substrate_parity``.

Basic arithmetic (+, -, *, /, fma) is *correctly rounded* under both
substrates, so those results are bit-identical everywhere; the
transcendental kernels are faithful, so two substrates may differ in
the last unit of the shadow precision — about 2**-947 relative for the
paper's 1000-bit shadows measuring 53-bit doubles, which no report
metric can observe.

Operations whose python kernels are already exact integer algorithms
(sqrt, fmod, remainder, the integer roundings, fmin/fmax/fdim/copysign)
are served by the python implementations under every substrate.

The hardware double-double tier (:mod:`repro.bigfloat.doubledouble`)
sits *below* every substrate: its kernels are plain IEEE-754 hardware
operations and never route through a :class:`KernelBackend`, so the
substrate choice is irrelevant while a shadow stays on the hardware
tier and takes effect only after promotion to BigFloat.
"""

from __future__ import annotations

import importlib.util
import logging
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bigfloat import arith, functions, transcendental
from repro.bigfloat.bigfloat import BigFloat, K_FINITE, ONE
from repro.bigfloat.context import Context, getcontext
from repro.bigfloat.rounding import (
    ROUND_DOWN,
    ROUND_NEAREST_EVEN,
    ROUND_TOWARD_ZERO,
    ROUND_UP,
)
from repro.resilience import faults as _faults
from repro.resilience.errors import KernelFault

logger = logging.getLogger("repro.bigfloat")

SUBSTRATE_PYTHON = "python"
SUBSTRATE_NATIVE = "native"
ALL_SUBSTRATES = (SUBSTRATE_PYTHON, SUBSTRATE_NATIVE)


class KernelBackend:
    """One substrate: a full ⟦f⟧_R dispatch plus the ⟦f⟧_F handlers.

    ``apply`` has exactly the contract of
    :func:`repro.bigfloat.functions.apply`;  ``double_handlers`` has
    the contract of :data:`~repro.bigfloat.functions.DOUBLE_HANDLERS`
    (the compiled engine pre-binds from it at compile time).
    """

    #: Substrate name ("python" / "native").
    name: str = SUBSTRATE_PYTHON
    #: The engine actually serving the kernels ("python", "mpmath",
    #: "gmpy2"); for the python substrate this is always "python".
    provider: str = "python"

    def __init__(self) -> None:
        self._dispatch: Dict[str, Callable] = dict(functions._REAL_DISPATCH)
        self.double_handlers: Dict[str, Callable[..., float]] = (
            functions.DOUBLE_HANDLERS
        )
        #: Native providers passed over while resolving this substrate:
        #: provider name (or ``libmp``) -> why (see
        #: :func:`substrate_fallbacks`).
        self.skipped: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Fault seams (repro.resilience.faults)
    # ------------------------------------------------------------------
    #
    # Two seams per substrate: ``kernel.raise`` fires on any substrate,
    # ``kernel.<name>.raise`` (e.g. ``kernel.native.raise``) only on
    # the substrate whose kernels run — so a chaos test can fail
    # exactly the accelerated kernels and watch the ladder land on the
    # python substrate.  A ``native`` substrate without a provider runs
    # the python kernels, so ``kernel.python.raise`` is its seam.  The
    # generic ``apply`` path checks inline; the pre-resolved handlers
    # the fused pipeline binds at compile time are wrapped at
    # *resolution* time, so an unarmed process keeps the raw kernels.

    #: The seam that fails only the kernels this substrate runs.
    kernel_seam: str = f"kernel.{SUBSTRATE_PYTHON}.raise"

    def _trip_kernel(self) -> None:
        _faults.trip("kernel.raise", KernelFault)
        _faults.trip(self.kernel_seam, KernelFault)

    def _kernel_seams_armed(self) -> bool:
        return _faults.armed("kernel.raise") or \
            _faults.armed(self.kernel_seam)

    def _guarded(self, fn: Optional[Callable]) -> Optional[Callable]:
        if fn is None or not _faults.active() or \
                not self._kernel_seams_armed():
            return fn
        trip = self._trip_kernel

        def kernel(*args):
            trip()
            return fn(*args)
        return kernel

    def apply(
        self,
        operation: str,
        args: Sequence[BigFloat],
        context: Optional[Context] = None,
    ) -> BigFloat:
        """Apply a named operation under this substrate's kernels."""
        if _faults.active():
            self._trip_kernel()
        handler = self._dispatch.get(operation)
        if handler is None:
            raise KeyError(f"unknown operation: {operation!r}")
        return handler(args, context if context is not None else getcontext())

    def handler(self, operation: str) -> Callable:
        """The pre-resolved ``(args, context) -> BigFloat`` callable."""
        handler = self._dispatch.get(operation)
        if handler is None:
            raise KeyError(f"unknown operation: {operation!r}")
        return self._guarded(handler)

    def positional_handler(
        self, operation: str, arity: int
    ) -> Optional[Callable]:
        """The raw positional kernel ``(x[, y[, z]], context) -> BigFloat``,
        or None when this substrate serves ``operation`` through its own
        wrapped dispatch (callers then use :meth:`handler`).

        Only operations whose dispatch entry is still the stock python
        wrapper are resolvable — a substrate override must keep routing
        through the override.  Site-compiled pipelines use this to skip
        one call frame and one argument tuple per executed operation.
        """
        if self._dispatch.get(operation) is not \
                functions._REAL_DISPATCH.get(operation):
            return None
        table = {
            1: functions._UNARY, 2: functions._BINARY, 3: functions._TERNARY,
        }.get(arity)
        if table is None:
            return None
        return self._guarded(table.get(operation))


class PythonBackend(KernelBackend):
    """The reference substrate — the package's own kernels, unchanged."""


# ----------------------------------------------------------------------
# The mpmath provider (libmp fixed-point kernels)
# ----------------------------------------------------------------------

#: Our rounding-mode constants → mpmath's rnd characters.  Nearest-away
#: has no libmp equivalent, so native wrappers fall back to the python
#: kernels for it.
_MPF_RND = {
    ROUND_NEAREST_EVEN: "n",
    ROUND_TOWARD_ZERO: "d",
    ROUND_UP: "c",      # toward +inf
    ROUND_DOWN: "f",    # toward -inf
}

_FLIP_RND = {"c": "f", "f": "c"}

#: The name the standalone ``libmp`` load runs under.  It is not
#: ``mpmath.libmp``, so a later ``import mpmath`` still builds its own,
#: complete package.
_LIBMP_MODULE = "_repro_mpmath_libmp"


def _import_libmp():
    """mpmath's ``libmp`` kernels, without running ``mpmath/__init__``.

    ``libmp`` only imports itself and the standard library, while the
    package import also loads calculus, matrices and docs: about 2.6 MB
    per process against 0.34 MB, and about 30 ms against 6.  A process
    that already imported mpmath reuses its ``libmp``.  If the
    standalone load fails, the plain import serves, and
    :func:`substrate_fallbacks` records why.
    """
    for name in ("mpmath.libmp", _LIBMP_MODULE):
        if name in sys.modules:
            return sys.modules[name]
    spec = importlib.util.find_spec("mpmath")
    if spec is None or not spec.submodule_search_locations:
        raise ModuleNotFoundError("No module named 'mpmath'", name="mpmath")
    directory = os.path.join(spec.submodule_search_locations[0], "libmp")
    try:
        libspec = importlib.util.spec_from_file_location(
            _LIBMP_MODULE, os.path.join(directory, "__init__.py"),
            submodule_search_locations=[directory],
        )
        module = importlib.util.module_from_spec(libspec)
        # Registered before it runs: libmp's relative imports resolve
        # through sys.modules.
        sys.modules[_LIBMP_MODULE] = module
        libspec.loader.exec_module(module)
        return module
    except Exception as error:
        for name in [n for n in sys.modules
                     if n.partition(".")[0] == _LIBMP_MODULE]:
            del sys.modules[name]
        reason = (f"standalone load failed: {type(error).__name__}: "
                  f"{error}; imported all of mpmath")
        _skipped["libmp"] = reason
        logger.info("native substrate: %s", reason)
    import mpmath.libmp

    return mpmath.libmp


class _MpmathProvider:
    """General-path kernels on mpmath's raw ``(sign, man, exp, bc)`` mpfs.

    Our canonical finite BigFloats (odd mantissa) are exactly libmp's
    normalized form, so conversions are tuple packing, not arithmetic.
    All kernels assume domain-checked finite operands (the shared
    special helpers ran first) and handle exact-cancellation zeros
    themselves.
    """

    name = "mpmath"
    roundings = frozenset(_MPF_RND)

    def __init__(self) -> None:
        L = self._L = _import_libmp()
        overflow_bits = transcendental._EXP_OVERFLOW_BITS

        def to_mp(b: BigFloat) -> tuple:
            if b.man == 0:
                return L.fzero
            return (b.sign, b.man, b.exp, b.man.bit_length())

        def from_mp(t: tuple) -> BigFloat:
            sign, man, exp, _bc = t
            if man == 0:
                return BigFloat.zero(sign)
            return BigFloat(sign, man, exp)

        def rnd_of(context: Context) -> str:
            return _MPF_RND[context.rounding]

        def k_cbrt(a, context):
            rnd = rnd_of(context)
            if a.sign:
                flipped = _FLIP_RND.get(rnd, rnd)
                root = L.mpf_cbrt(to_mp(a.abs()), context.precision, flipped)
                return from_mp(root).neg()
            return from_mp(L.mpf_cbrt(to_mp(a), context.precision, rnd))

        # -- exponentials / logarithms -------------------------------

        def k_exp(x, context):
            return from_mp(
                L.mpf_exp(to_mp(x), context.precision, rnd_of(context))
            )

        def k_exp2(x, context):
            # 2**x = e**(x ln 2); |x| <= 2**overflow_bits after specials,
            # so prec + overflow_bits + 24 working bits keep the product
            # accurate enough for a faithful exp.
            wp = context.precision + overflow_bits + 24
            product = L.mpf_mul(to_mp(x), L.mpf_ln2(wp), wp, "n")
            return from_mp(
                L.mpf_exp(product, context.precision, rnd_of(context))
            )

        def k_expm1(x, context):
            # e**x computed wide enough to survive the cancellation
            # against 1 (|msb| extra bits), then one rounded subtract.
            msb = x.msb_exponent
            wp = context.precision + max(0, -msb) + 16
            grown = L.mpf_exp(to_mp(x), wp, "n")
            t = L.mpf_sub(grown, L.fone, context.precision, rnd_of(context))
            if t[1] == 0:
                return arith._cancellation_zero(context)
            return from_mp(t)

        def k_log(x, context):
            return from_mp(
                L.mpf_log(to_mp(x), context.precision, rnd_of(context))
            )

        def k_log1p(x, context):
            # 1 + x is exact (x's magnitude is bounded below by the
            # special helper, so the aligned mantissa stays ~2*prec bits).
            t = L.mpf_add(L.fone, to_mp(x), 0, "f")
            return from_mp(L.mpf_log(t, context.precision, rnd_of(context)))

        def k_log2(x, context):
            wp = context.precision + 16
            numerator = L.mpf_log(to_mp(x), wp, "n")
            return from_mp(
                L.mpf_div(numerator, L.mpf_ln2(wp), context.precision,
                          rnd_of(context))
            )

        def k_log10(x, context):
            wp = context.precision + 16
            numerator = L.mpf_log(to_mp(x), wp, "n")
            return from_mp(
                L.mpf_div(numerator, L.mpf_ln10(wp), context.precision,
                          rnd_of(context))
            )

        def k_pow(x, y, context):
            result_sign = (
                1 if (x.sign == 1 and transcendental._pow_is_odd_integer(y))
                else 0
            )
            magnitude = to_mp(x.abs())
            prec = context.precision
            rnd = rnd_of(context)
            if y.is_integer() and y.abs() <= transcendental._POW_INT_LIMIT_BIG:
                result = from_mp(
                    L.mpf_pow_int(magnitude, int(y.to_fraction()), prec, rnd)
                )
            else:
                # exp(y ln x), mirroring the python kernel's overflow
                # clamp so both substrates saturate identically.
                wp = prec + 64
                product = L.mpf_mul(to_mp(y), L.mpf_log(magnitude, wp, "n"),
                                    wp, "n")
                p_sign, p_man, p_exp, p_bc = product
                if p_man == 0:
                    result = ONE
                elif p_exp + p_bc - 1 > overflow_bits:
                    result = (
                        BigFloat.zero(0) if p_sign else BigFloat.inf(0)
                    )
                else:
                    result = from_mp(L.mpf_exp(product, prec, rnd))
            return result.neg() if result_sign else result

        # -- trigonometry --------------------------------------------

        def unary(fn):
            def kernel(x, context):
                return from_mp(
                    fn(to_mp(x), context.precision, rnd_of(context))
                )
            return kernel

        def k_atan2(y, x, context):
            return from_mp(
                L.mpf_atan2(to_mp(y), to_mp(x), context.precision,
                            rnd_of(context))
            )

        def _one_minus_squared(x, wp):
            """sqrt((1-|x|)(1+|x|)) for |x| < 1: factors are exact, so
            there is no cancellation (same trick as the python kernel)."""
            magnitude = to_mp(x.abs())
            one_minus = L.mpf_sub(L.fone, magnitude)   # exact
            one_plus = L.mpf_add(L.fone, magnitude)    # exact
            return L.mpf_sqrt(L.mpf_mul(one_minus, one_plus, wp, "n"),
                              wp, "n")

        def k_asin(x, context):
            # atan(x / sqrt(1 - x^2)); mpf_asin itself loses a large
            # constant factor near |x| = 1, this formulation does not.
            wp = context.precision + 16
            denominator = _one_minus_squared(x, wp)
            ratio = L.mpf_div(to_mp(x), denominator, wp, "n")
            return from_mp(
                L.mpf_atan(ratio, context.precision, rnd_of(context))
            )

        def k_acos(x, context):
            wp = context.precision + 16
            numerator = _one_minus_squared(x, wp)
            return from_mp(
                L.mpf_atan2(numerator, to_mp(x), context.precision,
                            rnd_of(context))
            )

        # The basic arithmetic ops (+, -, *, /, fma) and hypot are
        # deliberately absent: both substrates round them correctly
        # (identical results), and on real shadow operands — mantissas
        # far short of the shadow precision — the python exact-integer
        # kernels win once the wrapper/conversion cost is paid.
        self.kernels: Dict[str, Callable] = {
            "cbrt": k_cbrt,
            "exp": k_exp,
            "exp2": k_exp2,
            "expm1": k_expm1,
            "log": k_log,
            "log1p": k_log1p,
            "log2": k_log2,
            "log10": k_log10,
            "pow": k_pow,
            "sin": unary(L.mpf_sin),
            "cos": unary(L.mpf_cos),
            "tan": unary(L.mpf_tan),
            "asin": k_asin,
            "acos": k_acos,
            "atan": unary(L.mpf_atan),
            "atan2": k_atan2,
            "sinh": unary(L.mpf_sinh),
            "cosh": unary(L.mpf_cosh),
            "tanh": unary(L.mpf_tanh),
            "asinh": unary(L.mpf_asinh),
            "acosh": unary(L.mpf_acosh),
            "atanh": unary(L.mpf_atanh),
        }

    def double_fma(self, a: float, b: float, c: float) -> float:
        """Correctly rounded double fma (same two-step rounding shape
        as the python emulation: exact product+add to 53 bits, then the
        53-bit value converts to a double)."""
        L = self._L
        product = L.mpf_mul(L.from_float(a), L.from_float(b))  # exact
        total = L.mpf_add(product, L.from_float(c), 53, "n")
        return L.to_float(total)


# ----------------------------------------------------------------------
# The gmpy2 provider (MPFR kernels)
# ----------------------------------------------------------------------

class _Gmpy2Provider:
    """General-path kernels on gmpy2's MPFR type.

    This container may not ship gmpy2; the implementation is exercised
    only where it is importable, and :func:`_run_self_check` validates
    it against the python kernels before it is ever trusted (any
    failure falls back to the next provider, with the reason recorded).
    """

    name = "gmpy2"

    def __init__(self) -> None:  # pragma: no cover - gmpy2 optional
        import gmpy2

        self._g = gmpy2
        self.roundings = frozenset(
            {ROUND_NEAREST_EVEN, ROUND_TOWARD_ZERO, ROUND_UP, ROUND_DOWN}
        )
        self._rnd = {
            ROUND_NEAREST_EVEN: gmpy2.RoundToNearest,
            ROUND_TOWARD_ZERO: gmpy2.RoundToZero,
            ROUND_UP: gmpy2.RoundUp,
            ROUND_DOWN: gmpy2.RoundDown,
        }
        overflow_bits = transcendental._EXP_OVERFLOW_BITS

        def to_g(b: BigFloat):
            if b.man == 0:
                return gmpy2.mpfr(0)
            # The widened emin/emax matter: shadow exponents legally
            # reach ~2^41 (the exp/pow overflow clamp), far past
            # gmpy2's default exponent range — without this the
            # conversion silently saturates to inf/0.
            with gmpy2.context(
                precision=max(2, b.man.bit_length()),
                emin=gmpy2.get_emin_min(),
                emax=gmpy2.get_emax_max(),
            ):
                value = gmpy2.mpfr(b.man if not b.sign else -b.man)
                if b.exp >= 0:
                    return gmpy2.mul_2exp(value, b.exp)
                return gmpy2.div_2exp(value, -b.exp)

        def from_g(v) -> BigFloat:
            if not gmpy2.is_finite(v):
                # A kernel overflowed despite the widened exponent
                # range; surfacing it beats returning a wrong finite
                # value (the self-check and parity suite would only
                # see the symptom).
                raise OverflowError(f"gmpy2 kernel returned {v!r}")
            if v == 0:
                return BigFloat.zero(1 if gmpy2.is_signed(v) else 0)
            man, exp = v.as_mantissa_exp()
            man = int(man)
            sign = 1 if man < 0 else 0
            return BigFloat(sign, abs(man), int(exp))

        def ctx_of(context: Context):
            return gmpy2.context(
                precision=context.precision,
                round=self._rnd[context.rounding],
                emin=gmpy2.get_emin_min(),
                emax=gmpy2.get_emax_max(),
            )

        def wrap1(fn):
            def kernel(x, context):
                with ctx_of(context):
                    return from_g(fn(to_g(x)))
            return kernel

        def wrap2(fn):
            def kernel(a, b, context):
                with ctx_of(context):
                    return from_g(fn(to_g(a), to_g(b)))
            return kernel

        def k_pow(x, y, context):
            result_sign = (
                1 if (x.sign == 1 and transcendental._pow_is_odd_integer(y))
                else 0
            )
            magnitude = x.abs()
            if y.is_integer() and y.abs() <= transcendental._POW_INT_LIMIT_BIG:
                with ctx_of(context):
                    result = from_g(to_g(magnitude) ** int(y.to_fraction()))
            else:
                wide = context.with_precision(context.precision + 64)
                with ctx_of(wide):
                    product = to_g(y) * gmpy2.log(to_g(magnitude))
                exponent = from_g(product)
                if exponent.is_zero():
                    result = ONE
                elif exponent.msb_exponent > overflow_bits:
                    result = (
                        BigFloat.zero(0) if exponent.sign else BigFloat.inf(0)
                    )
                else:
                    with ctx_of(context):
                        result = from_g(gmpy2.exp(product))
            return result.neg() if result_sign else result

        def k_expm1(x, context):
            with ctx_of(context):
                return from_g(gmpy2.expm1(to_g(x)))

        def k_log1p(x, context):
            with ctx_of(context):
                return from_g(gmpy2.log1p(to_g(x)))

        def k_hypot(a, b, context):
            # The squares and their sum carry 8 guard bits (the python
            # kernel computes them exactly) so the final sqrt rounding
            # dominates.
            wide = context.with_precision(context.precision + 8)
            with ctx_of(wide):
                total = gmpy2.fma(to_g(a), to_g(a), to_g(b) * to_g(b))
            with ctx_of(context):
                return from_g(gmpy2.sqrt(total))

        # BigFloat-level basics (+, -, *, /, fma) stay python under
        # every provider (see the mpmath provider's note); gmpy2 still
        # serves the *double-level* fma through double_fma below.
        self.kernels: Dict[str, Callable] = {
            "hypot": k_hypot,
            "cbrt": wrap1(gmpy2.cbrt),
            "exp": wrap1(gmpy2.exp),
            "exp2": wrap1(gmpy2.exp2),
            "expm1": k_expm1,
            "log": wrap1(gmpy2.log),
            "log1p": k_log1p,
            "log2": wrap1(gmpy2.log2),
            "log10": wrap1(gmpy2.log10),
            "pow": k_pow,
            "sin": wrap1(gmpy2.sin),
            "cos": wrap1(gmpy2.cos),
            "tan": wrap1(gmpy2.tan),
            "asin": wrap1(gmpy2.asin),
            "acos": wrap1(gmpy2.acos),
            "atan": wrap1(gmpy2.atan),
            "atan2": wrap2(gmpy2.atan2),
            "sinh": wrap1(gmpy2.sinh),
            "cosh": wrap1(gmpy2.cosh),
            "tanh": wrap1(gmpy2.tanh),
            "asinh": wrap1(gmpy2.asinh),
            "acosh": wrap1(gmpy2.acosh),
            "atanh": wrap1(gmpy2.atanh),
        }

    def double_fma(self, a: float, b: float, c: float
                   ) -> float:  # pragma: no cover - gmpy2 optional
        g = self._g
        with g.context(precision=53):
            return float(g.fma(g.mpfr(a), g.mpfr(b), g.mpfr(c)))


# ----------------------------------------------------------------------
# Special-case routing shared by every native provider
# ----------------------------------------------------------------------

#: op -> the shared special-case helper with the same operand shape.
#: Only operations a provider may override appear here; the basic
#: arithmetic ops never go native (their python kernels are correctly
#: rounded and faster), so they have no routing entry.
_SPECIAL_HELPERS: Dict[str, Callable] = {
    "hypot": arith._hypot_special,
    "cbrt": arith._cbrt_special,
    "exp": transcendental._exp_special,
    "exp2": transcendental._exp2_special,
    "expm1": transcendental._expm1_special,
    "log": transcendental._log_special,
    "log1p": transcendental._log1p_special,
    "log2": transcendental._log2_special,
    "log10": transcendental._log10_special,
    "pow": transcendental._pow_special,
    "sin": transcendental._sin_special,
    "cos": transcendental._cos_special,
    "tan": transcendental._tan_special,
    "asin": transcendental._asin_special,
    "acos": transcendental._acos_special,
    "atan": transcendental._atan_special,
    "atan2": transcendental._atan2_special,
    "sinh": transcendental._sinh_special,
    "cosh": transcendental._cosh_special,
    "tanh": transcendental._tanh_special,
    "asinh": transcendental._asinh_special,
    "acosh": transcendental._acosh_special,
    "atanh": transcendental._atanh_special,
}


def _native_call(special, kernel, fallback, supported_roundings):
    """Route one operation: specials first, kernel on the general path,
    python fallback for rounding modes the provider cannot honour."""

    def call(args: Sequence[BigFloat], context: Context) -> BigFloat:
        if context.rounding not in supported_roundings:
            return fallback(args, context)
        result = special(*args, context)
        if result is not None:
            return result
        return kernel(*args, context)

    return call


class NativeBackend(KernelBackend):
    """The fast substrate: gmpy2, then mpmath, then the python kernels."""

    name = SUBSTRATE_NATIVE

    def __init__(self) -> None:
        super().__init__()
        provider = _load_provider()
        self.skipped = dict(_skipped)
        if provider is None:
            # No native library: stay a transparent alias of python.
            self.provider = "python"
            return
        self.provider = provider.name
        self.kernel_seam = f"kernel.{SUBSTRATE_NATIVE}.raise"
        for op, kernel in provider.kernels.items():
            special = _SPECIAL_HELPERS[op]
            self._dispatch[op] = _native_call(
                special, kernel, functions._REAL_DISPATCH[op],
                provider.roundings,
            )
        handlers = dict(functions.DOUBLE_HANDLERS)
        handlers["fma"] = _double_fma_guard(provider.double_fma)
        self.double_handlers = handlers


def _double_fma_guard(native_fma: Callable[..., float]) -> Callable[..., float]:
    """⟦fma⟧_F through the native provider, with non-finite and zero
    operands delegated to the python emulation (signed-zero rules)."""
    import math

    python_fma = functions.DOUBLE_HANDLERS["fma"]

    def fma(a: float, b: float, c: float) -> float:
        if (
            math.isfinite(a) and math.isfinite(b) and math.isfinite(c)
            and a != 0.0 and b != 0.0 and c != 0.0
        ):
            return native_fma(a, b, c)
        return python_fma(a, b, c)

    return fma


# ----------------------------------------------------------------------
# Provider loading + self-check
# ----------------------------------------------------------------------

def _check_close(ours: BigFloat, theirs: BigFloat, ulps: int,
                 precision: int) -> bool:
    if ours.kind != K_FINITE or theirs.kind != K_FINITE:
        return ours.key() == theirs.key()
    if ours.is_zero() or theirs.is_zero():
        return ours.key() == theirs.key()
    difference = arith.sub_exact(ours, theirs)
    if difference.is_zero():
        return True
    return difference.msb_exponent <= ours.msb_exponent - precision + ulps


#: Why the latest :func:`_load_provider` call skipped each provider.
_skipped: Dict[str, str] = {}


def _load_provider():
    """gmpy2 first, then mpmath; each must pass the self-check.

    A provider that fails to load (an ``ImportError`` when its library
    is absent) or fails the self-check is skipped; the reason is logged
    at INFO and kept in :data:`_skipped`.
    """
    _skipped.clear()
    for factory in (_Gmpy2Provider, _MpmathProvider):
        try:
            provider = factory()
        except Exception as error:
            reason = f"{type(error).__name__}: {error}"
        else:
            try:
                _run_self_check(provider)
            except Exception as error:
                reason = (
                    f"self-check failed: {type(error).__name__}: {error}"
                )
            else:
                return provider
        _skipped[factory.name] = reason
        logger.info("native substrate skips %s: %s", factory.name, reason)
    return None


def _run_self_check(provider) -> None:
    context = Context(precision=200)
    python = functions._REAL_DISPATCH
    exact_ops = {"+", "-", "*", "/", "fma"}
    one_third = arith.div(
        BigFloat.from_int(1), BigFloat.from_int(3), context
    )
    values = [
        BigFloat.from_float(0.7324081429644442),
        BigFloat.from_float(1.819186723437),
        BigFloat.from_float(-0.41778869785),
        BigFloat.from_float(13.75),
        one_third,
    ]
    for op, kernel in provider.kernels.items():
        arity = functions.arity(op)
        operands: Tuple[BigFloat, ...]
        for offset in range(len(values)):
            operands = tuple(
                values[(offset + index) % len(values)]
                for index in range(arity)
            )
            special = _SPECIAL_HELPERS[op](*operands, context)
            if special is not None:
                continue  # not a general-path sample for this op
            theirs = kernel(*operands, context)
            ours = python[op](operands, context)
            tolerance = 0 if op in exact_ops else 2
            if not _check_close(ours, theirs, tolerance, context.precision):
                raise AssertionError(
                    f"substrate self-check failed for {op!r}: "
                    f"{ours!r} vs {theirs!r}"
                )
    # The double-level fma must agree with the python emulation exactly.
    python_fma = functions.DOUBLE_HANDLERS["fma"]
    for triple in [(1.5, 3.25, -4.875), (1e308, 2.0, -1e308),
                   (3.0, 1e-320, 7e-321), (1.1, 2.2, 3.3)]:
        if provider.double_fma(*triple) != python_fma(*triple):
            raise AssertionError("substrate self-check failed for double fma")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_BACKENDS: Dict[str, KernelBackend] = {}


def available_substrates() -> List[str]:
    """Names accepted by ``AnalysisConfig.substrate``."""
    return list(ALL_SUBSTRATES)


def get_backend(name: str) -> KernelBackend:
    """The (process-cached) backend for a substrate name."""
    backend = _BACKENDS.get(name)
    if backend is not None:
        return backend
    if name == SUBSTRATE_PYTHON:
        backend = PythonBackend()
    elif name == SUBSTRATE_NATIVE:
        backend = NativeBackend()
    else:
        raise KeyError(
            f"unknown substrate: {name!r} "
            f"(known: {', '.join(ALL_SUBSTRATES)})"
        )
    _BACKENDS[name] = backend
    return backend


def substrate_provider(name: str) -> str:
    """The engine actually serving a substrate ("python"/"mpmath"/"gmpy2")."""
    return get_backend(name).provider


def substrate_fallbacks(name: str) -> Dict[str, str]:
    """Why a substrate skipped each native provider it passed over
    (provider name -> reason); empty when none was skipped.  A
    ``libmp`` entry means mpmath serves, but through its full import
    (:func:`_import_libmp`)."""
    return dict(get_backend(name).skipped)


def substrate_status(name: str) -> Dict[str, Any]:
    """What serves substrate ``name`` and what it passed over on the
    way: the block ``/v1/stats`` and ``repro analyze --profile`` show."""
    return {
        "name": name,
        "provider": substrate_provider(name),
        "fallbacks": substrate_fallbacks(name),
    }
