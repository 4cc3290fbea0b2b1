"""Runtime value boxes.

Every float the machine computes lives in a :class:`FloatBox`.  Copies
(Mov, Load, Store, parameter passing, returns) share the *same* box, so
any shadow state a tracer attaches travels with the value through
registers, the heap, and function boundaries — exactly the sharing
optimization of paper Section 6 ("shadow values are shared between
copies"), and the mechanism by which the analysis sees error flow
non-locally.

Integers are plain Python ints: the paper's analysis does not shadow
non-floating-point computation.
"""

from __future__ import annotations

from typing import Optional


class FloatBox:
    """A mutable-identity box holding one double and optional shadow state."""

    __slots__ = ("value", "shadow")

    def __init__(self, value: float, shadow: Optional[object] = None) -> None:
        self.value = value
        self.shadow = shadow

    def __repr__(self) -> str:
        tag = " shadowed" if self.shadow is not None else ""
        return f"<FloatBox at {id(self):#x} {self.value!r}{tag}>"
