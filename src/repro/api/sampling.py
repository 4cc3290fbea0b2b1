"""Shared input sampling for every analysis entry point.

This module is the single home of the log-uniform range sampler.
It follows Herbie's convention: a range lying entirely on one
side of zero and spanning more than ``LOG_SPAN_RATIO`` binades is
sampled log-uniformly (linear sampling of [1e-12, 1] would essentially
never produce a value below 1e-3, and cancellation benchmarks live in
exactly those tiny regions).  Ranges that straddle zero are handled
explicitly: each side is weighted by its width, and a side spanning
many binades is log-sampled down to a magnitude floor derived from the
range itself, so values near zero remain reachable.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fpcore.ast import FPCore, Num, Op, Var
from repro.fpcore.evaluator import eval_double
from repro.resilience.errors import InvalidInputError

#: A one-sided range whose high/low ratio exceeds this is log-sampled.
LOG_SPAN_RATIO = 1e3

#: Default sampling box for arguments without a :pre range.
DEFAULT_RANGE = (-1e9, 1e9)

#: Fraction of draws steered into static hotspot bands when a
#: ``hotspots`` map is supplied (the rest keep baseline coverage).
HOTSPOT_MIX = 0.5


class EmptyRangeError(InvalidInputError):
    """A :pre range clause ``(<= low x high)`` with ``low > high``: no
    input satisfies it, so there is nothing to sample."""

    def __init__(self, program: str, variable: str,
                 low: float, high: float) -> None:
        super().__init__(
            f"{program}: empty :pre range for {variable!r}:"
            f" [{low!r}, {high!r}]"
        )
        self.program = program
        self.variable = variable
        self.low = low
        self.high = high


def precondition_box(core: FPCore) -> Dict[str, Tuple[float, float]]:
    """Extract per-argument sampling ranges from the :pre conjunction.

    Non-range clauses are ignored here (they are rejection-tested by
    the sampler); arguments without a range default to ``DEFAULT_RANGE``.
    """
    box: Dict[str, Tuple[float, float]] = {}

    def visit(expr) -> None:
        if isinstance(expr, Op) and expr.op == "and":
            for arg in expr.args:
                visit(arg)
        elif (
            isinstance(expr, Op)
            and expr.op == "<="
            and len(expr.args) == 3
            and isinstance(expr.args[0], Num)
            and isinstance(expr.args[1], Var)
            and isinstance(expr.args[2], Num)
        ):
            low, variable, high = expr.args
            box[variable.name] = (float(low.value), float(high.value))

    if core.pre is not None:
        visit(core.pre)
    for argument in core.arguments:
        box.setdefault(argument, DEFAULT_RANGE)
    return box


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    """Log-uniform sample from a strictly positive range."""
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def sample_range(
    rng: random.Random,
    low: float,
    high: float,
    zero_span_log: bool = False,
) -> float:
    """Sample one value from [low, high], log-uniformly when wide.

    * ``0 < low < high`` spanning > ``LOG_SPAN_RATIO``: log-uniform.
    * ``low < high < 0`` spanning > ``LOG_SPAN_RATIO``: mirrored
      log-uniform.
    * ``low <= 0 <= high``: linear by default (the historical behavior
      every existing experiment was calibrated against).  With
      ``zero_span_log=True`` a side is chosen with probability
      proportional to its width and its magnitude log-sampled down to
      a floor ``LOG_SPAN_RATIO`` binades below the side's extreme, so
      near-zero inputs actually occur.
    """
    if low > high:
        raise ValueError(f"empty sampling range [{low}, {high}]")
    if low > 0 and high / low > LOG_SPAN_RATIO:
        return _log_uniform(rng, low, high)
    if high < 0 and low / high > LOG_SPAN_RATIO:
        return -_log_uniform(rng, -high, -low)
    if zero_span_log and low < 0 < high:
        width = high - low
        pick_negative = rng.random() < (-low) / width
        magnitude = -low if pick_negative else high
        if magnitude > 0 and not math.isinf(magnitude):
            floor = magnitude / LOG_SPAN_RATIO
            value = _log_uniform(rng, floor, magnitude)
            return -value if pick_negative else value
    return rng.uniform(low, high)


def _sample_hotspot(
    rng: random.Random,
    low: float,
    high: float,
    bands: Sequence[Tuple[float, float, float]],
) -> float:
    """One draw honoring a variable's static hotspot bands.

    With probability :data:`HOTSPOT_MIX` a band is chosen by weight and
    sampled (clamped to the precondition range so guidance can never
    step outside the :pre box); otherwise the draw falls through to the
    baseline :func:`sample_range` behavior.
    """
    if bands and rng.random() < HOTSPOT_MIX:
        pick = rng.random()
        cumulative = 0.0
        for band_low, band_high, weight in bands:
            cumulative += weight
            if pick <= cumulative:
                clamped_low = max(band_low, low)
                clamped_high = min(band_high, high)
                if clamped_low <= clamped_high:
                    return sample_range(rng, clamped_low, clamped_high)
                break
    return sample_range(rng, low, high)


def sample_inputs(
    core: FPCore,
    count: int,
    seed: int = 0,
    max_rejections: int = 1000,
    hotspots: Optional[
        Dict[str, Sequence[Tuple[float, float, float]]]
    ] = None,
) -> List[List[float]]:
    """Sample ``count`` input tuples satisfying the :pre.

    Candidate points are drawn from the :pre's range box via
    :func:`sample_range` and rejection-tested against the full
    precondition; exceeding ``max_rejections`` consecutive failures
    raises ``ValueError`` (the precondition is presumed unsatisfiable
    by box sampling).

    ``hotspots`` optionally maps variable names to weighted bands
    ``(lo, hi, weight)`` from the static analysis
    (:func:`repro.staticanalysis.input_hotspots`): a
    :data:`HOTSPOT_MIX` fraction of each such variable's draws is
    steered into its bands.  When ``hotspots`` is ``None`` (the
    default) the code path — including the RNG draw sequence — is
    identical to the unguided sampler, so existing seeds reproduce
    bit-identical points.
    """
    rng = random.Random(seed)
    box = precondition_box(core)
    for argument in core.arguments:
        low, high = box[argument]
        if low > high:
            raise EmptyRangeError(
                core.name or "<unnamed>", argument, low, high
            )
    points: List[List[float]] = []
    rejections = 0
    while len(points) < count:
        if hotspots:
            point = [
                _sample_hotspot(
                    rng, *box[argument], hotspots[argument]
                )
                if argument in hotspots
                else sample_range(rng, *box[argument])
                for argument in core.arguments
            ]
        else:
            point = [
                sample_range(rng, *box[argument])
                for argument in core.arguments
            ]
        if core.pre is not None:
            env = dict(zip(core.arguments, point))
            try:
                acceptable = bool(eval_double(core.pre, env))
            except Exception:
                acceptable = False
            if not acceptable:
                rejections += 1
                if rejections > max_rejections:
                    raise ValueError(
                        f"{core.name}: cannot satisfy precondition"
                    )
                continue
        # The bound is on *consecutive* rejections: an accepted point
        # proves the precondition satisfiable, so the counter restarts.
        rejections = 0
        points.append(point)
    return points


def sample_box(
    variables: Sequence[str],
    low: float,
    high: float,
    count: int,
    seed: int = 0,
) -> List[List[float]]:
    """Sample ``count`` points from one [low, high] range per variable.

    This is the improver's blind-box sampler (``herbgrind-py improve
    --range``), previously re-implemented inline by the CLI.
    """
    rng = random.Random(seed)
    return [
        [sample_range(rng, low, high) for __ in variables]
        for __ in range(count)
    ]
