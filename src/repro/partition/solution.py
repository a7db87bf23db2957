"""Partition solutions and cut evaluation.

A partition of a hypergraph is a vector assigning each vertex to a block
``0..k-1``.  The cut objective throughout this repository is the weighted
*net cut*: the sum of weights of nets spanning more than one block (the
paper's min-cut bipartitioning objective; for k-way it is the plain
"cut nets" metric rather than sum-of-external-degrees).

Section IV's placement-specific objectives generalise the 2-way cut to a
three-state cost per net (:class:`NetCostModel`); min-cut is the special
case :func:`min_cut_cost_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.hypergraph.hypergraph import Hypergraph

FREE = -1
"""Marker in a fixture vector for a vertex free to move anywhere."""


def cut_size(graph: Hypergraph, parts: Sequence[int]) -> int:
    """Weighted number of nets spanning more than one block."""
    total = 0
    for e in range(graph.num_nets):
        pins = graph.net_pins(e)
        if not pins:
            continue
        first = parts[pins[0]]
        for v in pins:
            if parts[v] != first:
                total += graph.net_weight(e)
                break
    return total


def cut_nets(graph: Hypergraph, parts: Sequence[int]) -> List[int]:
    """Ids of nets spanning more than one block."""
    out = []
    for e in range(graph.num_nets):
        pins = graph.net_pins(e)
        if not pins:
            continue
        first = parts[pins[0]]
        if any(parts[v] != first for v in pins):
            out.append(e)
    return out


def block_loads(
    graph: Hypergraph, parts: Sequence[int], num_parts: int
) -> List[float]:
    """Total vertex area in each block."""
    loads = [0.0] * num_parts
    for v in range(graph.num_vertices):
        loads[parts[v]] += graph.area(v)
    return loads


def block_resource_loads(
    graph: Hypergraph,
    parts: Sequence[int],
    num_parts: int,
    resource: int,
) -> List[float]:
    """Total value of balance resource ``resource`` per block."""
    vec = graph.resource_vector(resource)
    loads = [0.0] * num_parts
    for v in range(graph.num_vertices):
        loads[parts[v]] += vec[v]
    return loads


def pins_per_block(
    graph: Hypergraph, net: int, parts: Sequence[int], num_parts: int
) -> List[int]:
    """Pin count of ``net`` in each block -- the FM gain bookkeeping."""
    counts = [0] * num_parts
    for v in graph.net_pins(net):
        counts[parts[v]] += 1
    return counts


@dataclass(frozen=True)
class NetCostModel:
    """Three-state costs for every net of a bipartition.

    * ``cost0[e]``  -- all pins of ``e`` on side 0;
    * ``cost1[e]``  -- all pins on side 1;
    * ``cost_cut[e]`` -- pins on both sides.

    Classic min-cut is ``cost0 = cost1 = 0, cost_cut = w``; a terminal-
    propagation objective derives the three values from net bounding
    boxes (see :mod:`repro.placement.objective`).  Costs must be
    non-negative integers (FM gain buckets are integer-keyed).  Nets
    without movable pins always sit in one state; their cost is a
    constant offset of the objective.
    """

    cost0: Sequence[int]
    cost1: Sequence[int]
    cost_cut: Sequence[int]

    def __post_init__(self) -> None:
        if not (
            len(self.cost0) == len(self.cost1) == len(self.cost_cut)
        ):
            raise ValueError("cost vectors differ in length")
        for name, vec in (
            ("cost0", self.cost0),
            ("cost1", self.cost1),
            ("cost_cut", self.cost_cut),
        ):
            for e, c in enumerate(vec):
                if c < 0 or c != int(c):
                    raise ValueError(
                        f"{name}[{e}] = {c}; costs must be "
                        "non-negative integers"
                    )

    @property
    def num_nets(self) -> int:
        """Number of nets covered."""
        return len(self.cost0)

    def state_cost(self, e: int, cnt0: int, cnt1: int) -> int:
        """Cost of net ``e`` given per-side pin counts."""
        if cnt0 > 0 and cnt1 > 0:
            return self.cost_cut[e]
        if cnt0 > 0:
            return self.cost0[e]
        if cnt1 > 0:
            return self.cost1[e]
        return 0  # no pins at all


def min_cut_cost_model(graph: Hypergraph) -> NetCostModel:
    """The classic objective expressed in the three-state form."""
    zeros = [0] * graph.num_nets
    return NetCostModel(
        cost0=list(zeros),
        cost1=list(zeros),
        cost_cut=list(graph.net_weights),
    )


def total_cost(
    graph: Hypergraph, model: NetCostModel, parts: Sequence[int]
) -> int:
    """Objective value of a 2-way assignment under ``model``."""
    total = 0
    for e in range(graph.num_nets):
        cnt0 = sum(1 for v in graph.net_pins(e) if parts[v] == 0)
        cnt1 = graph.net_size(e) - cnt0
        total += model.state_cost(e, cnt0, cnt1)
    return total


@dataclass
class Bipartition:
    """A 2-way solution with its cut value.

    ``parts[v]`` is 0 or 1.  ``cut`` is the weighted net cut (or, from
    an FM run under a :class:`NetCostModel`, that model's objective);
    callers may trust it only if they obtained the object from an engine
    in this package (engines maintain it incrementally and re-verify in
    tests).
    """

    parts: List[int]
    cut: int

    def copy(self) -> "Bipartition":
        """Deep copy (the parts vector is owned by the result)."""
        return Bipartition(parts=list(self.parts), cut=self.cut)

    def verify_cut(self, graph: Hypergraph) -> bool:
        """Recompute the cut from scratch and compare."""
        return cut_size(graph, self.parts) == self.cut


def respect_fixture(
    parts: Sequence[int], fixture: Sequence[int]
) -> bool:
    """True when every fixed vertex sits in its mandated block."""
    return all(
        f == FREE or p == f for p, f in zip(parts, fixture)
    )


def validate_fixture(
    fixture: Sequence[int], num_vertices: int, num_parts: int
) -> None:
    """Raise ``ValueError`` on malformed fixture vectors."""
    if len(fixture) != num_vertices:
        raise ValueError(
            f"fixture has length {len(fixture)}, expected {num_vertices}"
        )
    for v, f in enumerate(fixture):
        if f != FREE and not 0 <= f < num_parts:
            raise ValueError(
                f"vertex {v} fixed to invalid block {f} "
                f"(num_parts={num_parts})"
            )


def free_fixture(num_vertices: int) -> List[int]:
    """A fixture vector with every vertex free."""
    return [FREE] * num_vertices


def count_fixed(fixture: Sequence[int]) -> int:
    """Number of fixed (non-FREE) entries."""
    return sum(1 for f in fixture if f != FREE)


def movable_vertices(fixture: Sequence[int]) -> List[int]:
    """Ids of free vertices."""
    return [v for v, f in enumerate(fixture) if f == FREE]


def apply_fixture(
    parts: List[int], fixture: Sequence[int]
) -> List[int]:
    """Overwrite fixed vertices' blocks in-place; returns ``parts``."""
    for v, f in enumerate(fixture):
        if f != FREE:
            parts[v] = f
    return parts


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of vertices assigned differently by two solutions."""
    if len(a) != len(b):
        raise ValueError("solutions have different lengths")
    return sum(1 for x, y in zip(a, b) if x != y)


def symmetric_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Bipartition distance up to block relabelling.

    ``min(H(a, b), H(a, 1-b))`` -- the natural distance for free
    bipartitions, where the two block labels are interchangeable.
    """
    if len(a) != len(b):
        raise ValueError("solutions have different lengths")
    direct = sum(1 for x, y in zip(a, b) if x != y)
    return min(direct, len(a) - direct)
