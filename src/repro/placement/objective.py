"""Placement-driven net cost models (the paper's footnote 7).

"Flexible assignment of fixed terminals ... enables study of
placement-specific partitioning objectives, for example based on net
bounding boxes and Steiner tree estimators."  This module derives such
an objective for a block bisection: each net's cost in each of its
three states (all pins low side / all high side / cut) is the
half-perimeter of the bounding box spanned by the net's *terminal*
locations plus representative points of the sides its movable pins
occupy -- the Dunlop--Kernighan / Huang--Kahng terminal-propagation
wirelength estimate.

Minimising this objective makes the partitioner prefer, for each net,
the side its external terminals already pull it toward, rather than
merely minimising the number of cut nets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.instance import PartitioningInstance
from repro.partition.solution import NetCostModel
from repro.placement.geometry import Cutline, Rect, midline

Point = Tuple[float, float]


def _bbox_half_perimeter(points: Sequence[Point]) -> float:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def wirelength_cost_model(
    instance: PartitioningInstance,
    block: Rect,
    terminal_positions: Dict[int, Point],
    cutline: Optional[Cutline] = None,
    scale: float = 1.0,
) -> NetCostModel:
    """Three-state HPWL costs for a derived block instance.

    ``terminal_positions`` maps the instance's terminal vertex ids to
    their placed locations.  Movable pins are represented by the centre
    of the child region their side corresponds to.  Costs are rounded
    to integers after multiplying by ``scale`` (use a larger scale for
    finer geometric resolution).

    Nets with no movable pins get identical state costs (their cost is
    a constant the engine ignores); nets with no terminals reduce to a
    center-to-center distance penalty for being cut -- a pure min-cut
    term weighted by the cut geometry.
    """
    graph = instance.graph
    if cutline is None:
        cutline = midline(block, block.long_axis())
    low, high = block.split(cutline.axis)
    side_points = (low.center, high.center)

    terminals = set(instance.pad_vertices)
    cost0: List[int] = []
    cost1: List[int] = []
    cost_cut: List[int] = []
    for e in range(graph.num_nets):
        pins = graph.net_pins(e)
        term_points = [
            terminal_positions[v] for v in pins if v in terminals
        ]
        has_movable = any(v not in terminals for v in pins)
        weight = graph.net_weight(e)

        if not has_movable:
            constant = (
                round(scale * _bbox_half_perimeter(term_points))
                if term_points
                else 0
            )
            cost0.append(constant)
            cost1.append(constant)
            cost_cut.append(constant)
            continue

        all0 = _bbox_half_perimeter(term_points + [side_points[0]])
        all1 = _bbox_half_perimeter(term_points + [side_points[1]])
        cut = _bbox_half_perimeter(
            term_points + [side_points[0], side_points[1]]
        )
        cost0.append(round(scale * weight * all0))
        cost1.append(round(scale * weight * all1))
        cost_cut.append(round(scale * weight * cut))
    return NetCostModel(cost0=cost0, cost1=cost1, cost_cut=cost_cut)


def terminal_positions_from_placement(
    instance: PartitioningInstance,
    placement_positions: Sequence[Point],
    original_ids: Optional[Dict[str, int]] = None,
) -> Dict[int, Point]:
    """Locate the instance's terminals in the source placement.

    Derived instances carry the original vertex names, so terminals are
    resolved by name.  ``original_ids`` (name -> original vertex id)
    may be passed to avoid rebuilding the map per call.
    """
    graph = instance.graph
    out: Dict[int, Point] = {}
    if original_ids is None:
        raise ValueError(
            "original_ids is required (map names to source vertex ids)"
        )
    for t in instance.pad_vertices:
        name = graph.vertex_name(t)
        if name not in original_ids:
            raise KeyError(f"terminal {name!r} not found in placement")
        out[t] = placement_positions[original_ids[name]]
    return out
