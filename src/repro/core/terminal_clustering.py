"""Terminal-clustering equivalence transform (Section V).

The paper observes: "a bipartitioning instance with an arbitrary
number/percent of fixed terminals can be represented by an equivalent
instance with only two terminals, by clustering all terminals fixed in a
given partition into one single terminal."  The transform preserves the
cut of every assignment that respects the fixture (fixed vertices never
separate, so merging them changes no net's cut status), which is exactly
what the property tests verify.  Its practical point -- "such a
representation is likely to be just as easy or hard as the original
instance" -- motivates constraint measures that are invariant under it
(see :mod:`repro.core.constraint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.hypergraph.contraction import Contraction, contract
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.solution import FREE


@dataclass(frozen=True)
class ClusteredInstance:
    """Result of :func:`cluster_terminals`.

    ``graph``/``fixture`` describe the clustered instance; ``mapping``
    sends each original vertex to its clustered id (free vertices are
    singletons, all side-``i`` terminals share one id).
    """

    graph: Hypergraph
    fixture: List[int]
    mapping: List[int]
    contraction: Contraction

    def lift_partition(self, clustered_parts: Sequence[int]) -> List[int]:
        """Expand a clustered solution back to the original vertices."""
        return [clustered_parts[c] for c in self.mapping]

    def push_partition(self, parts: Sequence[int]) -> List[int]:
        """Project an original, fixture-respecting solution onto the
        clustered vertices."""
        out = [0] * self.graph.num_vertices
        for v, c in enumerate(self.mapping):
            out[c] = parts[v]
        return out


def cluster_terminals(
    graph: Hypergraph,
    fixture: Sequence[int],
    num_parts: int = 2,
) -> ClusteredInstance:
    """Merge all vertices fixed in each block into one super-terminal.

    Free vertices keep their identity (as singleton clusters); the
    returned fixture pins each super-terminal in its block.  Blocks with
    no fixed vertex simply get no super-terminal.
    """
    n = graph.num_vertices
    if len(fixture) != n:
        raise ValueError("fixture length mismatch")
    labels: List[Optional[int]] = [None] * n
    terminal_label: List[Optional[int]] = [None] * num_parts
    next_label = 0

    for v in range(n):
        f = fixture[v]
        if f == FREE:
            labels[v] = next_label
            next_label += 1
        else:
            if not 0 <= f < num_parts:
                raise ValueError(f"vertex {v} fixed in invalid block {f}")
            if terminal_label[f] is None:
                terminal_label[f] = next_label
                next_label += 1
            labels[v] = terminal_label[f]

    final_labels = [label for label in labels if label is not None]
    contraction = contract(graph, final_labels)
    clustered_fixture = [FREE] * contraction.coarse.num_vertices
    for block, label in enumerate(terminal_label):
        if label is not None:
            clustered_fixture[label] = block
    return ClusteredInstance(
        graph=contraction.coarse,
        fixture=clustered_fixture,
        mapping=final_labels,
        contraction=contraction,
    )
