"""Reference Section IV block construction, kept verbatim.

This is the loop the top-down placer used to build each bisection's
block hypergraph before :func:`repro.placement.derive.build_block`
replaced it (and, with ``ascending=True``, the order the Table IV
derivation used): per-net ``net_pins`` lists, inside pins first, a
terminal for each outside pin the first time it is met, and a full
validating :class:`Hypergraph` construction.  Only the bookkeeping of
the kept parent nets and of each local vertex's parent id was added,
because the builder returns them too.

``tests/placement/test_block_builder.py`` holds the builder to this
reference over random graphs, blocks, positions and cutlines.  Do not
optimize this module.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.placement.geometry import Cutline


def reference_block(
    graph: Hypergraph,
    block: Sequence[int],
    anchor: Sequence[Tuple[float, float]],
    cut: Cutline,
    ascending: bool = False,
) -> Tuple[Hypergraph, List[int], List[int], List[int]]:
    """``(block graph, terminal sides, kept nets, parent ids)`` of the
    nets touching ``block``, visited in first-visit order or, with
    ``ascending``, in ascending net id."""
    inside = set(block)
    order: List[int] = []
    nets_seen = set()
    for v in block:
        for e in graph.vertex_nets(v):
            if e in nets_seen:
                continue
            nets_seen.add(e)
            order.append(e)
    if ascending:
        order.sort()

    sub_nets: List[List[int]] = []
    sub_weights: List[int] = []
    local: Dict[int, int] = {v: i for i, v in enumerate(block)}
    areas = [graph.area(v) for v in block]
    sides: List[int] = []
    kept: List[int] = []
    parent = list(block)
    for e in order:
        pins = graph.net_pins(e)
        inside_pins = [u for u in pins if u in inside]
        if not inside_pins:
            continue
        net_local = [local[u] for u in inside_pins]
        for u in pins:
            if u in inside:
                continue
            if u not in local:
                local[u] = len(areas)
                areas.append(0.0)
                x, y = anchor[u]
                sides.append(cut.side_of(x, y))
                parent.append(u)
            net_local.append(local[u])
        if len(net_local) >= 2:
            sub_nets.append(net_local)
            sub_weights.append(graph.net_weight(e))
            kept.append(e)

    sub = Hypergraph(
        sub_nets,
        num_vertices=len(areas),
        areas=areas,
        net_weights=sub_weights,
    )
    return sub, sides, kept, parent
