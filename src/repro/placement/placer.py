"""Top-down recursive-bisection standard-cell placer.

The paper derives its fixed-terminals benchmarks from *actual
placements*.  Lacking IBM's internal placements, this placer produces
them: the classic Dunlop--Kernighan / Suaris--Kedem scheme of recursive
min-cut bisection with terminal propagation, the very context the paper
argues generates all real partitioning instances.

Every block bisection is itself a fixed-vertices partitioning call: pins
of external nets (chip pads or cells already assigned to other blocks)
are propagated onto the block as zero-area terminals fixed in the side
of the cutline nearest to their current location.  The placer is thus
both a substrate (it manufactures placements to derive benchmarks from)
and a demonstration of the paper's thesis.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import relative_bipartition_balance
from repro.partition.multilevel import (
    MultilevelBipartitioner,
    MultilevelConfig,
)
from repro.partition.solution import FREE
from repro.placement.derive import build_block, touching_nets
from repro.placement.geometry import Rect, midline

Point = Tuple[float, float]


@dataclass
class Placement:
    """Cell/pad locations over a die region."""

    die: Rect
    positions: List[Point]
    graph: Hypergraph
    pad_vertices: List[int] = field(default_factory=list)

    def half_perimeter_wirelength(self) -> float:
        """Total HPWL -- the standard placement quality metric."""
        total = 0.0
        for e in range(self.graph.num_nets):
            pins = self.graph.net_pins(e)
            if len(pins) < 2:
                continue
            xs = [self.positions[v][0] for v in pins]
            ys = [self.positions[v][1] for v in pins]
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total


@dataclass(frozen=True)
class PlacerConfig:
    """Top-down placer parameters.

    ``leaf_size`` stops the recursion; ``tolerance`` is the per-bisection
    area tolerance (looser than the paper's partitioning studies -- a
    placer mainly needs rough halves); ``multilevel`` configures each
    bisection's engine.
    """

    leaf_size: int = 8
    tolerance: float = 0.1
    multilevel: MultilevelConfig = field(
        default_factory=lambda: MultilevelConfig(
            coarsest_size=60, initial_starts=2
        )
    )

    def __post_init__(self) -> None:
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be positive")
        if not 0 < self.tolerance < 1:
            raise ValueError("tolerance must be in (0, 1)")


def perimeter_pad_positions(
    die: Rect, pad_vertices: Sequence[int]
) -> Dict[int, Point]:
    """Spread pads evenly around the die boundary, clockwise from the
    lower-left corner."""
    pads = list(pad_vertices)
    if not pads:
        return {}
    perimeter = 2.0 * (die.width + die.height)
    out: Dict[int, Point] = {}
    for i, pad in enumerate(pads):
        d = (i + 0.5) * perimeter / len(pads)
        if d < die.width:
            out[pad] = (die.x0 + d, die.y0)
        elif d < die.width + die.height:
            out[pad] = (die.x1, die.y0 + (d - die.width))
        elif d < 2 * die.width + die.height:
            out[pad] = (
                die.x1 - (d - die.width - die.height),
                die.y1,
            )
        else:
            out[pad] = (
                die.x0,
                die.y1 - (d - 2 * die.width - die.height),
            )
    return out


class TopDownPlacer:
    """Recursive min-cut bisection placement with terminal propagation."""

    def __init__(
        self,
        graph: Hypergraph,
        die: Rect,
        pad_positions: Optional[Dict[int, Point]] = None,
        pad_vertices: Sequence[int] = (),
        config: Optional[PlacerConfig] = None,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.die = die
        self.config = config or PlacerConfig()
        self.seed = seed
        self._pads = list(pad_vertices)
        if pad_positions is None:
            pad_positions = perimeter_pad_positions(die, self._pads)
        self._pad_positions = dict(pad_positions)
        for pad in self._pads:
            if pad not in self._pad_positions:
                raise ValueError(f"pad {pad} has no position")

    # ------------------------------------------------------------------
    def place(self) -> Placement:
        """Run the full top-down flow and return the placement."""
        graph = self.graph
        n = graph.num_vertices
        rng = random.Random(self.seed)
        pad_set = set(self._pads)
        cells = [v for v in range(n) if v not in pad_set]

        # Current anchor of every vertex: pads are final from the start,
        # cells track the center of their current block.
        anchor: List[Point] = [self.die.center] * n
        for pad, pos in self._pad_positions.items():
            anchor[pad] = pos

        positions: List[Point] = list(anchor)
        stack: List[Tuple[Rect, List[int]]] = [(self.die, cells)]
        while stack:
            region, block = stack.pop()
            if len(block) <= self.config.leaf_size:
                self._place_leaf(region, block, positions)
                continue
            side0, side1, fraction, axis = self._bisect_block(
                region, block, anchor, rng
            )
            low, high = region.split(axis, fraction)
            for v in side0:
                anchor[v] = low.center
            for v in side1:
                anchor[v] = high.center
            stack.append((low, side0))
            stack.append((high, side1))

        for pad, pos in self._pad_positions.items():
            positions[pad] = pos
        return Placement(
            die=self.die,
            positions=positions,
            graph=graph,
            pad_vertices=list(self._pads),
        )

    # ------------------------------------------------------------------
    def _bisect_block(
        self,
        region: Rect,
        block: List[int],
        anchor: List[Point],
        rng: random.Random,
    ) -> Tuple[List[int], List[int], float, str]:
        """Split ``block`` along the long axis of ``region``.

        Returns (low-side cells, high-side cells, cut fraction, axis).
        The cut fraction follows the realised area split so downstream
        regions have capacity matching their load.
        """
        graph = self.graph
        axis = region.long_axis()
        # The block instance: movable cells plus propagated terminals
        # for every external pin of a net touching the block.
        nets = touching_nets(graph, block)
        sub, sides, _, _ = build_block(
            graph, block, nets, anchor, midline(region, axis)
        )
        engine = MultilevelBipartitioner(
            sub,
            balance=relative_bipartition_balance(
                sub.total_area, self.config.tolerance
            ),
            fixture=[FREE] * len(block) + sides,
            config=self.config.multilevel,
        )
        parts = engine.run(seed=rng.getrandbits(32)).solution.parts

        side0 = [v for v, p in zip(block, parts) if p == 0]
        side1 = [v for v, p in zip(block, parts) if p == 1]
        if not side0 or not side1:
            # Degenerate split (pathological balance); fall back to an
            # area-halving order split so the recursion always advances.
            ordered = sorted(block, key=graph.area, reverse=True)
            side0, side1 = ordered[0::2], ordered[1::2]

        area0 = sum(graph.area(v) for v in side0)
        area1 = sum(graph.area(v) for v in side1)
        total = area0 + area1
        fraction = area0 / total if total > 0 else 0.5
        fraction = min(0.9, max(0.1, fraction))
        return side0, side1, fraction, axis

    def _place_leaf(
        self, region: Rect, block: List[int], positions: List[Point]
    ) -> None:
        """Spread a leaf block's cells on a grid inside its region."""
        if not block:
            return
        k = len(block)
        cols = max(1, math.ceil(math.sqrt(k)))
        rows = max(1, math.ceil(k / cols))
        for i, v in enumerate(sorted(block)):
            r, c = divmod(i, cols)
            x = region.x0 + (c + 0.5) * region.width / cols
            y = region.y0 + (r + 0.5) * region.height / rows
            positions[v] = (x, y)
