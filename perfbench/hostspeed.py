"""How fast the shared host runs right now, for scaling timings.

A small virtual machine on a shared host runs the same code at speeds
up to 1.7x apart, in spells that last from seconds to minutes: longer
than a pass, often longer than a run.  Every end-to-end time the
benchmark reports is therefore scaled to a reference host speed.  A
fixed pure-Python kernel (:func:`kernel`: 1000-bit integer arithmetic
over a small expression tree and a float loop, the two kinds of work
the shadow execution does) is timed between the measured requests, and
a time ``t`` measured while the kernel calls around it took ``k``
seconds on average is reported as ``t * REFERENCE_S / k``: the time the
work would take on a host where the kernel takes ``REFERENCE_S``.

The host flips between a fast and a slow state within a second, so a
single call reads one state or the other.  The mean over many calls
moves in proportion to the share of time spent slow, as the measured
work does; a median of the calls would jump once that share passed a
half.

On a 2-core shared VM, 40 s windows of the ``adaptive`` workload, each
pass scaled by the kernel calls between its requests, spread 0.05
(interquartile range over median) in pass time against 0.12-0.17 raw;
the warm store-read median 0.03 against 0.17, its 90th percentile 0.02
against 0.20.  The kernel is part of the benchmark, so no change to the
program under test moves it.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Kernel time of the reference host: about the mean on the 2-core
#: shared VM the benchmark was defined on.
REFERENCE_S = 1.5e-3

_BIG = 3 ** 630


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op: int, a, b) -> None:
        self.op, self.a, self.b = op, a, b


def _tree(depth: int, leaf: int):
    if depth == 0:
        return leaf
    return _Node(depth % 3, _tree(depth - 1, leaf + 1),
                 _tree(depth - 1, leaf * 3 + 1))


_TREE = _tree(6, 1)


def _evaluate(node, env) -> int:
    if not isinstance(node, _Node):
        return env.get(node, node)
    a = _evaluate(node.a, env)
    b = _evaluate(node.b, env)
    if node.op == 0:
        return (a * b) >> 1000 if a.bit_length() > 1100 else a * b
    if node.op == 1:
        return a + b
    return a ^ (b << 3)


def kernel() -> int:
    """About 1.5 ms of fixed work on the reference host."""
    acc = 0
    for k in range(50):
        env = {1: _BIG + k, 2: _BIG >> 5}
        acc ^= _evaluate(_TREE, env) & 0xFFFFFFFF
        total = 0.0
        for j in range(200):
            total += (j * 1.000001) ** 0.5
        acc += int(total) & 7
    return acc


def measure() -> float:
    """Seconds one :func:`kernel` call takes now.

    The collector is paused, so garbage the measured work left behind
    is not billed to the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples) -> float:
    """The factor that takes times measured beside ``samples`` (kernel
    seconds) to the reference host."""
    return REFERENCE_S / statistics.fmean(samples)
