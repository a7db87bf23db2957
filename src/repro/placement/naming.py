"""Instance naming for placement-derived benchmarks.

The paper names each partitioning instance "with the level at which it
occurs (L0, L1, etc.) and the partitioning choices at higher levels
which define it.  For instance, L1_V0 is the left block of a top-level
vertical bisection."  A block is therefore a path of (axis, side) steps
from the die.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.placement.geometry import AXES, Rect

BlockPath = Sequence[Tuple[str, int]]
"""Steps from the die to a block: (axis, side) with side 0 = low."""


def block_name(path: BlockPath) -> str:
    """Name of the block reached via ``path`` (the die itself is L0)."""
    steps = [f"{axis}{side}" for axis, side in path]
    for axis, side in path:
        if axis not in AXES:
            raise ValueError(f"unknown axis {axis!r}")
        if side not in (0, 1):
            raise ValueError(f"invalid side {side}")
    if not steps:
        return "L0"
    return f"L{len(steps)}_" + "_".join(steps)


def block_region(die: Rect, path: BlockPath) -> Rect:
    """The block's bounding box under geometric (midpoint) bisections."""
    region = die
    for axis, side in path:
        low, high = region.split(axis)
        region = low if side == 0 else high
    return region
