"""Deriving fixed-terminals partitioning instances from placements.

Section IV's construction, verbatim from the paper:

    "A block is defined by a rectangular axis-parallel bounding box.  An
    axis-parallel cutline bisects a given block.  Each cell contained in
    the block induces a movable vertex of the hypergraph.  Each pad
    adjacent to some cell in the block induces a zero-area terminal
    vertex of the hypergraph, fixed in the closest partition; adjacent
    cells not in the block similarly induce terminal vertices."

The construction deliberately creates more terminal vertices than there
are external nets ("this does not affect the partitioning problem since
pads have zero areas"); :func:`instance_parameters` reports both counts,
which is what Table IV tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple
)

from repro.core.instance import PartitioningInstance
from repro.hypergraph.hypergraph import Hypergraph, _transpose
from repro.partition.balance import relative_balance
from repro.placement.geometry import Cutline, Rect, midline

if TYPE_CHECKING:
    from repro.placement.placer import Placement, Point


def build_block(
    graph: Hypergraph,
    cells: Sequence[int],
    nets: Iterable[int],
    positions: Sequence[Point],
    cutline: Cutline,
) -> Tuple[Hypergraph, List[int], List[int], List[int]]:
    """The Section IV hypergraph of one block.

    ``cells`` become the movable vertices ``0..len(cells)-1`` in the
    given order.  Each of ``nets`` (in the given order) that has a pin
    on a cell and at least two pins becomes a net of the block; its
    inside pins come first, then its outside pins, and each outside
    vertex becomes a zero-area terminal the first time it is met, fixed
    on the side of ``cutline`` nearest its position.  Returns ``(block
    graph, side of each terminal, kept parent net ids, parent id of each
    block vertex)``.
    """
    net_ptr, net_pins, _, _, net_weights, areas = graph.csr_lists()
    local = {v: i for i, v in enumerate(cells)}
    terminal: Dict[int, int] = {}
    parent = list(cells)
    sides: List[int] = []
    kept: List[int] = []
    ptr = [0]
    pins: List[int] = []
    for e in nets:
        net = net_pins[net_ptr[e] : net_ptr[e + 1]]
        inner = [local[v] for v in net if v in local]
        if not inner or len(net) < 2:
            continue
        pins += inner
        for v in net:
            if v in local:
                continue
            u = terminal.get(v)
            if u is None:
                u = terminal[v] = len(parent)
                parent.append(v)
                sides.append(cutline.side_of(*positions[v]))
            pins.append(u)
        ptr.append(len(pins))
        kept.append(e)
    vtx_ptr, vtx_nets = _transpose(len(parent), ptr, pins)
    block = Hypergraph.from_buffers(
        dict(
            num_vertices=len(parent),
            net_ptr=ptr,
            net_pins=pins,
            vtx_ptr=vtx_ptr,
            vtx_nets=vtx_nets,
            areas=[areas[v] for v in cells] + [0.0] * len(sides),
            net_weights=[net_weights[e] for e in kept],
        )
    )
    return block, sides, kept, parent


def touching_nets(graph: Hypergraph, cells: Iterable[int]) -> List[int]:
    """Nets with a pin on ``cells``, in first-visit order."""
    _, _, vtx_ptr, vtx_nets, _, _ = graph.csr_lists()
    runs = (vtx_nets[vtx_ptr[v] : vtx_ptr[v + 1]] for v in cells)
    return list(dict.fromkeys(e for run in runs for e in run))


def cells_in_block(placement: Placement, block: Rect) -> List[int]:
    """Ascending ids of the non-pad vertices placed inside ``block``."""
    pads = set(placement.pad_vertices)
    return [
        v
        for v, (x, y) in enumerate(placement.positions)
        if v not in pads and block.contains(x, y)
    ]


def derive_instance(
    placement: Placement,
    block: Rect,
    cutline: Optional[Cutline] = None,
    axis: Optional[str] = None,
    tolerance: float = 0.02,
    name: str = "derived",
) -> PartitioningInstance:
    """Build the fixed-terminals bipartitioning instance of ``block``.

    Either pass an explicit ``cutline`` or an ``axis`` (the cutline then
    bisects the block at its midline).  Vertices of the instance are the
    in-block cells followed by the induced terminals; terminals are
    fixed in the cutline side nearest their placed location.  Cells and
    nets keep their ascending parent order.
    """
    if cutline is None:
        if axis is None:
            raise ValueError("pass either cutline or axis")
        cutline = midline(block, axis)
    graph = placement.graph
    cells = cells_in_block(placement, block)
    nets = sorted(touching_nets(graph, cells))
    sub, sides, kept, parent = build_block(
        graph, cells, nets, placement.positions, cutline
    )
    sub = Hypergraph.from_buffers(
        dict(
            sub.to_buffers(),
            vertex_names=[graph.vertex_name(v) for v in parent],
            net_names=[graph.net_name(e) for e in kept],
        )
    )
    return PartitioningInstance(
        graph=sub,
        num_parts=2,
        balance=relative_balance(sub.total_area, 2, tolerance),
        fixture_sets=[None] * len(cells)
        + [frozenset([side]) for side in sides],
        pad_vertices=list(range(len(cells), len(parent))),
        name=name,
    )


@dataclass(frozen=True)
class InstanceParameters:
    """The Table IV row of one derived instance."""

    name: str
    num_cells: int
    num_terminals: int
    num_nets: int
    num_external_nets: int
    max_cell_area_percent: float

    def format_row(self, name_width: int = 16) -> str:
        """Fixed-width row matching the Table IV layout, the name padded
        to ``name_width`` (``suite.format_table`` passes its longest)."""
        return (
            f"{self.name:<{name_width}s} {self.num_cells:>8d} "
            f"{self.num_terminals:>8d} "
            f"{self.num_nets:>8d} {self.num_external_nets:>8d} "
            f"{self.max_cell_area_percent:>7.2f}"
        )


def instance_parameters(instance: PartitioningInstance) -> InstanceParameters:
    """Compute the benchmark-parameter row for a derived instance."""
    graph = instance.graph
    terminals = set(instance.pad_vertices)
    external = 0
    for e in range(graph.num_nets):
        if any(v in terminals for v in graph.net_pins(e)):
            external += 1
    cell_areas = [
        graph.area(v)
        for v in range(graph.num_vertices)
        if v not in terminals
    ]
    total = sum(cell_areas)
    max_pct = 100.0 * max(cell_areas, default=0.0) / total if total else 0.0
    return InstanceParameters(
        name=instance.name,
        num_cells=graph.num_vertices - len(terminals),
        num_terminals=len(terminals),
        num_nets=graph.num_nets,
        num_external_nets=external,
        max_cell_area_percent=max_pct,
    )
