"""Descriptive statistics over hypergraphs.

These are the numbers benchmark tables report about instances (Table IV of
the paper reports cells, pads, nets, external nets and the largest-cell
area share) plus the distributional statistics the synthetic generator is
calibrated against (net-size histogram, vertex-degree histogram, pins per
cell).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict

from repro.hypergraph.hypergraph import Hypergraph


@dataclass(frozen=True)
class HypergraphStats:
    """Summary statistics of one hypergraph instance."""

    num_vertices: int
    num_nets: int
    num_pins: int
    total_area: float
    max_area: float
    max_area_percent: float
    average_net_size: float
    average_degree: float
    net_size_histogram: Dict[int, int]
    degree_histogram: Dict[int, int]

    def format_row(self) -> str:
        """One-line summary, Table-IV style."""
        return (
            f"|V|={self.num_vertices} |E|={self.num_nets} "
            f"pins={self.num_pins} max%={self.max_area_percent:.2f} "
            f"avg_net={self.average_net_size:.2f} "
            f"avg_deg={self.average_degree:.2f}"
        )


def compute_stats(graph: Hypergraph) -> HypergraphStats:
    """Compute :class:`HypergraphStats` for ``graph``."""
    net_hist = Counter(graph.net_size(e) for e in range(graph.num_nets))
    deg_hist = Counter(
        graph.vertex_degree(v) for v in range(graph.num_vertices)
    )
    max_area = max(graph.areas, default=0.0)
    total = graph.total_area
    return HypergraphStats(
        num_vertices=graph.num_vertices,
        num_nets=graph.num_nets,
        num_pins=graph.num_pins,
        total_area=total,
        max_area=max_area,
        max_area_percent=100.0 * max_area / total if total > 0 else 0.0,
        average_net_size=graph.average_net_size(),
        average_degree=graph.average_degree(),
        net_size_histogram=dict(net_hist),
        degree_histogram=dict(deg_hist),
    )


def pins_per_cell(graph: Hypergraph) -> float:
    """Average pins per vertex -- the ``k`` of Rent's rule (paper: ~3.5)."""
    return graph.average_degree()
