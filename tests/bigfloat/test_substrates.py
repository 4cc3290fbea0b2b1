"""The pluggable kernel substrates (:mod:`repro.bigfloat.backend`).

The contract under test: every substrate implements the same ⟦f⟧_R
surface; special values are routed through the shared helpers (so they
are bit-identical by construction); general paths are faithful at the
context precision; and the native backend degrades to the python
kernels wherever its provider cannot honour the request (no libraries,
unsupported rounding mode, failed self-check).
"""

import logging
import math
import os
import random
import subprocess
import sys
import textwrap

import pytest

from repro.bigfloat import (
    ALL_OPERATIONS,
    BigFloat,
    Context,
    arith,
    available_substrates,
    get_backend,
    substrate_fallbacks,
    substrate_provider,
)
from repro.bigfloat import backend as backend_mod
from repro.bigfloat.functions import DOUBLE_HANDLERS, apply, arity
from repro.bigfloat.rounding import (
    ROUND_DOWN,
    ROUND_NEAREST_AWAY,
    ROUND_NEAREST_EVEN,
    ROUND_UP,
)
from repro.resilience import faults
from repro.resilience.errors import KernelFault

CONTEXT = Context(precision=200)
PYTHON = get_backend("python")
NATIVE = get_backend("native")


def ulp_distance_bound(ours: BigFloat, theirs: BigFloat, ulps: int) -> bool:
    """|ours - theirs| within ``ulps`` units in the last place of ours."""
    if ours.key() == theirs.key():
        return True
    if not (ours.is_finite() and theirs.is_finite()):
        return False
    if ours.is_zero() or theirs.is_zero():
        return False
    difference = arith.sub_exact(ours, theirs)
    if difference.is_zero():
        return True
    return (
        difference.msb_exponent
        <= ours.msb_exponent - CONTEXT.precision + ulps
    )


class TestRegistry:
    def test_available_substrates(self):
        assert available_substrates() == ["python", "native"]

    def test_unknown_substrate_rejected(self):
        with pytest.raises(KeyError):
            get_backend("mpfr")

    def test_backends_are_process_cached(self):
        assert get_backend("python") is PYTHON
        assert get_backend("native") is NATIVE

    def test_provider_reported(self):
        assert substrate_provider("python") == "python"
        assert substrate_provider("native") in ("gmpy2", "mpmath", "python")

    def test_native_resolves_when_a_library_is_importable(self):
        # _load_provider swallows provider failures by design (the
        # fallback contract), so without this assertion a regression
        # could silently turn the native substrate into a python alias
        # and every parity test would compare python against python.
        try:
            import mpmath  # noqa: F401
            has_library = True
        except ImportError:
            try:
                import gmpy2  # noqa: F401
                has_library = True
            except ImportError:
                has_library = False
        if not has_library:
            pytest.skip("no native library installed: fallback is correct")
        assert substrate_provider("native") in ("gmpy2", "mpmath")

    def test_python_backend_matches_module_apply(self):
        x = BigFloat.from_float(1.5)
        y = BigFloat.from_float(0.3)
        for op in ("+", "log", "pow"):
            args = [x, y][: arity(op)]
            assert PYTHON.apply(op, args, CONTEXT).key() == \
                apply(op, args, CONTEXT).key()

    def test_every_operation_dispatches(self):
        operands = [BigFloat.from_float(0.5), BigFloat.from_float(0.25),
                    BigFloat.from_float(0.75)]
        for op in sorted(ALL_OPERATIONS):
            args = operands[: arity(op)]
            ours = PYTHON.apply(op, args, CONTEXT)
            theirs = NATIVE.apply(op, args, CONTEXT)
            assert ulp_distance_bound(ours, theirs, 2), op

    def test_unknown_operation_raises_keyerror(self):
        for backend in (PYTHON, NATIVE):
            with pytest.raises(KeyError):
                backend.apply("frobnicate", [BigFloat.from_float(1.0)],
                              CONTEXT)
            with pytest.raises(KeyError):
                backend.handler("frobnicate")


class TestSpecialValueAgreement:
    """Specials route through shared helpers: keys must match exactly."""

    SPECIALS = [
        BigFloat.nan(), BigFloat.inf(0), BigFloat.inf(1),
        BigFloat.zero(0), BigFloat.zero(1),
        BigFloat.from_float(1.0), BigFloat.from_float(-1.0),
        BigFloat.from_float(0.5), BigFloat.from_float(-0.5),
        BigFloat.from_float(2.0), BigFloat.from_float(-2.0),
    ]

    def test_all_operations_agree_on_special_grid(self):
        for op in sorted(ALL_OPERATIONS):
            count = arity(op)
            grids = [self.SPECIALS] * count
            indices = [0] * count
            while True:
                args = [grid[i] for grid, i in zip(grids, indices)]
                try:
                    ours = PYTHON.apply(op, args, CONTEXT)
                    ours_error = None
                except (OverflowError, ValueError) as error:
                    ours, ours_error = None, type(error)
                try:
                    theirs = NATIVE.apply(op, args, CONTEXT)
                    theirs_error = None
                except (OverflowError, ValueError) as error:
                    theirs, theirs_error = None, type(error)
                assert ours_error == theirs_error, (op, args)
                if ours is not None:
                    assert ulp_distance_bound(ours, theirs, 2), (op, args)
                position = 0
                while position < count:
                    indices[position] += 1
                    if indices[position] < len(grids[position]):
                        break
                    indices[position] = 0
                    position += 1
                if position == count:
                    break

    def test_signed_zero_cancellation_under_native(self):
        x = BigFloat.from_float(1.5)
        for rounding, sign in ((ROUND_NEAREST_EVEN, 0), (ROUND_DOWN, 1),
                               (ROUND_UP, 0)):
            context = Context(precision=200, rounding=rounding)
            result = NATIVE.apply("-", [x, x], context)
            assert result.is_zero()
            assert result.sign == sign, rounding


class TestFaithfulGeneralPaths:
    def test_random_unary_grid(self):
        random.seed(20260729)
        unary = ["exp", "expm1", "exp2", "log", "log1p", "log2", "log10",
                 "sin", "cos", "tan", "asin", "acos", "atan",
                 "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
                 "cbrt", "sqrt"]
        values = (
            [random.uniform(-0.999, 0.999) for __ in range(25)]
            + [random.uniform(1.001, 60.0) for __ in range(25)]
            + [-1.5, -7.25, 1e-5, -1e-5, 123.456]
        )
        for value in values:
            x = BigFloat.from_float(value)
            for op in unary:
                ours = PYTHON.apply(op, [x], CONTEXT)
                theirs = NATIVE.apply(op, [x], CONTEXT)
                if ours.is_nan():
                    assert theirs.is_nan(), (op, value)
                else:
                    assert ulp_distance_bound(ours, theirs, 2), (op, value)

    def test_random_binary_grid(self):
        random.seed(4)
        for __ in range(40):
            x = BigFloat.from_float(random.uniform(-30, 30))
            y = BigFloat.from_float(random.uniform(-30, 30))
            for op in ("+", "-", "*", "/", "pow", "hypot", "atan2",
                       "fmod", "remainder", "fmin", "fmax", "fdim",
                       "copysign"):
                ours = PYTHON.apply(op, [x, y], CONTEXT)
                theirs = NATIVE.apply(op, [x, y], CONTEXT)
                if ours.is_nan():
                    assert theirs.is_nan(), op
                elif op in ("pow", "atan2"):
                    # Faithful native kernels: last-ulp slack allowed.
                    assert ulp_distance_bound(ours, theirs, 2), op
                else:
                    # Correctly rounded (or python-served) operations
                    # must agree exactly.
                    assert ours.key() == theirs.key(), (op, x, y)

    def test_basic_arithmetic_is_bit_identical(self):
        random.seed(9)
        for __ in range(50):
            x = BigFloat.from_float(random.uniform(-1e8, 1e8))
            y = BigFloat.from_float(random.uniform(-1e-8, 1e8))
            z = BigFloat.from_float(random.uniform(-10, 10))
            for op, args in (("+", [x, y]), ("-", [x, y]), ("*", [x, y]),
                             ("/", [x, y]), ("fma", [x, y, z])):
                assert PYTHON.apply(op, args, CONTEXT).key() == \
                    NATIVE.apply(op, args, CONTEXT).key(), op


class TestRoundingModeFallback:
    def test_nearest_away_falls_back_to_python(self):
        # The mpmath provider cannot honour RNA; the native wrapper
        # must serve the python kernel's exact result.
        context = Context(precision=120, rounding=ROUND_NEAREST_AWAY)
        x = BigFloat.from_float(17.25)
        assert NATIVE.apply("log", [x], context).key() == \
            PYTHON.apply("log", [x], context).key()

    def test_directed_rounding_brackets_nearest(self):
        x = BigFloat.from_float(17.25)
        down = NATIVE.apply(
            "log", [x], Context(precision=120, rounding=ROUND_DOWN)
        )
        up = NATIVE.apply(
            "log", [x], Context(precision=120, rounding=ROUND_UP)
        )
        nearest = NATIVE.apply(
            "log", [x], Context(precision=120, rounding=ROUND_NEAREST_EVEN)
        )
        assert down <= nearest <= up


class TestDoubleHandlers:
    def test_python_table_is_module_table(self):
        assert PYTHON.double_handlers is DOUBLE_HANDLERS

    def test_native_fma_matches_python_emulation(self):
        random.seed(5)
        native_fma = NATIVE.double_handlers["fma"]
        python_fma = DOUBLE_HANDLERS["fma"]
        triples = [
            (1.5, 3.25, -4.875), (1e308, 2.0, -1e308),
            (3.0, 1e-320, 7e-321), (1.1, 2.2, 3.3),
            (0.0, 5.0, -0.0), (math.inf, 1.0, -math.inf),
            (math.nan, 1.0, 2.0),
        ] + [
            (random.uniform(-1e3, 1e3), random.uniform(-1e3, 1e3),
             random.uniform(-1e3, 1e3))
            for __ in range(60)
        ]
        for a, b, c in triples:
            ours = python_fma(a, b, c)
            theirs = native_fma(a, b, c)
            if math.isnan(ours):
                assert math.isnan(theirs), (a, b, c)
            else:
                assert ours == theirs, (a, b, c)
                assert math.copysign(1.0, ours) == \
                    math.copysign(1.0, theirs), (a, b, c)


class TestSelfCheck:
    def test_mpmath_provider_passes(self):
        mpmath = pytest.importorskip(
            "mpmath", reason="mpmath-less environments skip the provider"
        )
        del mpmath
        provider = backend_mod._MpmathProvider()
        backend_mod._run_self_check(provider)  # must not raise

    def test_broken_provider_is_rejected(self):
        mpmath = pytest.importorskip("mpmath")
        del mpmath
        provider = backend_mod._MpmathProvider()
        wrong = BigFloat.from_float(3.0)
        provider.kernels["log"] = lambda x, context: wrong
        with pytest.raises(AssertionError):
            backend_mod._run_self_check(provider)

    def test_native_backend_survives_missing_providers(self, monkeypatch):
        monkeypatch.setattr(
            backend_mod, "_load_provider", lambda: None
        )
        backend = backend_mod.NativeBackend()
        assert backend.provider == "python"
        x = BigFloat.from_float(2.5)
        assert backend.apply("log", [x], CONTEXT).key() == \
            PYTHON.apply("log", [x], CONTEXT).key()

    def test_kernel_seam_follows_the_kernels_that_run(self, monkeypatch):
        # Without a provider "native" runs the python kernels: the
        # native seam has nothing to fail, the python seam fails both.
        monkeypatch.setattr(
            backend_mod, "_load_provider", lambda: None
        )
        backend = backend_mod.NativeBackend()
        x = [BigFloat.from_float(2.5)]
        with faults.injected("kernel.native.raise"):
            backend.apply("log", x, CONTEXT)
        with faults.injected("kernel.python.raise"):
            with pytest.raises(KernelFault):
                backend.apply("log", x, CONTEXT)


class TestCbrtRegression:
    """PR 4's substrate self-check surfaced a latent seed bug: cbrt
    mis-aligned exponents not divisible by 3 (cbrt(2) came out as
    2**(-1/3) times the true value)."""

    def test_cbrt_exponent_residues(self):
        for value in (2.0, 4.0, 8.0, 0.5, 0.25, 0.125, 5.5, 11.0, 22.0,
                      0.7324081429644442, -2.0, -4.0, 1e-3, 1e3):
            result = arith.cbrt(BigFloat.from_float(value), CONTEXT)
            cube = result.to_fraction() ** 3
            relative = abs(cube - int(0)) and float(
                abs(cube - BigFloat.from_float(value).to_fraction())
                / abs(cube)
            )
            assert relative < 2.0 ** (-(CONTEXT.precision - 5)), value

    def test_cbrt_matches_math_cbrt(self):
        random.seed(11)
        for __ in range(200):
            value = random.uniform(-100.0, 100.0)
            ours = float(arith.cbrt(BigFloat.from_float(value), CONTEXT)
                         .to_float())
            expected = math.copysign(abs(value) ** (1.0 / 3.0), value)
            assert ours == pytest.approx(expected, rel=1e-14), value


class TestFallbackReasons:
    PROVIDERS = ["gmpy2", "mpmath"]

    def test_failed_self_check_is_recorded_and_logged(
        self, monkeypatch, caplog
    ):
        def broken(provider):
            raise AssertionError(f"injected failure for {provider.name}")

        monkeypatch.setattr(backend_mod, "_run_self_check", broken)
        with caplog.at_level(logging.INFO, logger="repro.bigfloat"):
            backend = backend_mod.NativeBackend()
        assert backend.provider == "python"
        assert sorted(backend.skipped) == self.PROVIDERS
        for name, reason in backend.skipped.items():
            # Either the library is absent or it loaded and failed.
            assert reason.startswith(
                ("ImportError: ", "ModuleNotFoundError: ")
            ) or reason == (
                f"self-check failed: AssertionError: "
                f"injected failure for {name}"
            )
            assert f"skips {name}: {reason}" in caplog.text
        x = BigFloat.from_float(2.5)
        assert backend.apply("log", [x], CONTEXT).key() == \
            PYTHON.apply("log", [x], CONTEXT).key()

    def test_mpmath_self_check_failure_names_the_exception(
        self, monkeypatch
    ):
        pytest.importorskip("mpmath")

        def broken(provider):
            raise ValueError("log disagrees")

        monkeypatch.setattr(backend_mod, "_run_self_check", broken)
        backend = backend_mod.NativeBackend()
        assert backend.skipped["mpmath"] == \
            "self-check failed: ValueError: log disagrees"

    def test_accessor_lists_providers_tried_before_the_serving_one(self):
        assert substrate_fallbacks("python") == {}
        provider = substrate_provider("native")
        tried = self.PROVIDERS[:self.PROVIDERS.index(provider)] \
            if provider in self.PROVIDERS else self.PROVIDERS
        assert sorted(substrate_fallbacks("native")) == tried


def _run_fresh(script: str) -> str:
    """Run ``script`` in a new interpreter on this checkout's ``src``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestLibmpLoad:
    """The mpmath provider loads ``libmp`` alone: the package import
    costs about eight times the memory per process."""

    def test_resolving_native_leaves_mpmath_unimported(self):
        out = _run_fresh("""
            import sys
            from repro.bigfloat import substrate_provider

            provider = substrate_provider("native")
            assert "mpmath" not in sys.modules, sorted(sys.modules)
            if provider == "mpmath":
                assert "_repro_mpmath_libmp" in sys.modules
                import mpmath  # the package still imports whole

                assert mpmath.mpf(1) / 3 > 0.333
            print(provider)
        """)
        assert out.split() in (["gmpy2"], ["mpmath"], ["python"])

    def test_failed_standalone_load_imports_mpmath(self):
        pytest.importorskip("mpmath")
        out = _run_fresh("""
            import importlib.util
            import sys
            from repro.bigfloat import backend

            def gone():
                raise ImportError("gmpy2 left out")

            def broken(*args, **kwargs):
                raise OSError("unreadable")

            backend._Gmpy2Provider.__init__ = lambda self: gone()
            importlib.util.spec_from_file_location = broken
            assert backend.substrate_provider("native") == "mpmath"
            assert "mpmath" in sys.modules
            assert "_repro_mpmath_libmp" not in sys.modules
            print(backend.substrate_fallbacks("native")["libmp"])
        """)
        assert out.strip() == ("standalone load failed: OSError: "
                               "unreadable; imported all of mpmath")
