"""Recursive-bisection k-way partitioning, the reference of the k-way FM
engine.

Blocks ``0..k-1`` are split by halves: fixed vertices are routed to the
sub-block their mandated block belongs to, and each bisection is solved
by the multilevel engine on the vertex-induced sub-hypergraph.  Powers of
two split evenly; other k split proportionally.
``tests/partition/test_kwayfm.py`` holds the flat k-way FM engine to
within a constant factor of this cut.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph, HypergraphError
from repro.partition.balance import BalanceConstraint
from repro.partition.multilevel import (
    MultilevelBipartitioner,
    MultilevelConfig,
)
from repro.partition.solution import FREE, cut_size, validate_fixture


@dataclass
class KWayResult:
    """A k-way solution: block per vertex and its (cut-nets) cost."""

    parts: List[int]
    cut: int


def vertex_induced_subhypergraph(
    graph: Hypergraph, vertices: Sequence[int]
) -> Tuple[Hypergraph, List[int]]:
    """Restrict ``graph`` to ``vertices``.

    Nets are kept if they have at least two pins inside the subset (nets
    with fewer pins cannot contribute to any cut).  Returns the
    sub-hypergraph and the mapping from new vertex ids to original ids.
    """
    order = list(vertices)
    index = {v: i for i, v in enumerate(order)}
    if len(index) != len(order):
        raise HypergraphError("duplicate vertices in subset")
    new_nets: List[List[int]] = []
    new_weights: List[int] = []
    new_names: List[str] = []
    for e in range(graph.num_nets):
        pins = [index[v] for v in graph.net_pins(e) if v in index]
        if len(pins) >= 2:
            new_nets.append(pins)
            new_weights.append(graph.net_weight(e))
            new_names.append(graph.net_name(e))
    sub = Hypergraph(
        new_nets,
        num_vertices=len(order),
        areas=[graph.area(v) for v in order],
        net_weights=new_weights,
        vertex_names=[graph.vertex_name(v) for v in order],
        net_names=new_names,
    )
    return sub, order


def recursive_bisection(
    graph: Hypergraph,
    num_parts: int,
    tolerance: float = 0.02,
    fixture: Optional[Sequence[int]] = None,
    config: Optional[MultilevelConfig] = None,
    seed: int = 0,
) -> KWayResult:
    """Partition ``graph`` into ``num_parts`` blocks.

    ``fixture[v]`` may name any target block in ``0..num_parts-1`` (or
    ``FREE``).  Every bisection gets a window of half the global
    tolerance around its target share.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be positive")
    n = graph.num_vertices
    if fixture is None:
        fixture = [FREE] * n
    validate_fixture(fixture, n, num_parts)

    parts = [0] * n
    rng = random.Random(seed)
    _split(
        graph,
        list(range(n)),
        list(fixture),
        0,
        num_parts,
        tolerance,
        config,
        parts,
        rng,
    )
    return KWayResult(parts=parts, cut=cut_size(graph, parts))


def _split(
    graph: Hypergraph,
    vertices: List[int],
    fixture: List[int],
    base_block: int,
    num_parts: int,
    tolerance: float,
    config: Optional[MultilevelConfig],
    parts: List[int],
    rng: random.Random,
) -> None:
    """Assign blocks ``base_block..base_block+num_parts-1`` to
    ``vertices`` (ids in the original graph) by recursive bisection."""
    if num_parts == 1:
        for v in vertices:
            parts[v] = base_block
        return

    left_parts = num_parts // 2
    right_parts = num_parts - left_parts
    sub, order = vertex_induced_subhypergraph(graph, vertices)

    # Fixed vertices whose target block falls in the left half go to
    # side 0 of this bisection, the rest to side 1.
    boundary = base_block + left_parts
    sub_fixture = []
    for v in order:
        f = fixture[v]
        if f == FREE:
            sub_fixture.append(FREE)
        else:
            sub_fixture.append(0 if f < boundary else 1)

    total = sub.total_area
    left_share = left_parts / num_parts
    # Asymmetric targets for odd splits; the window width follows the
    # global tolerance so leaves end up within it of their fair share.
    left_target = total * left_share
    slack = total * tolerance / 2.0
    balance = BalanceConstraint(
        min_loads=(left_target - slack, (total - left_target) - slack),
        max_loads=(left_target + slack, (total - left_target) + slack),
    )
    engine = MultilevelBipartitioner(
        sub, balance=balance, fixture=sub_fixture, config=config
    )
    solution = engine.run(seed=rng.getrandbits(32)).solution

    left = [order[i] for i, p in enumerate(solution.parts) if p == 0]
    right = [order[i] for i, p in enumerate(solution.parts) if p == 1]
    _split(
        graph, left, fixture, base_block, left_parts,
        tolerance, config, parts, rng,
    )
    _split(
        graph, right, fixture, boundary, right_parts,
        tolerance, config, parts, rng,
    )
