"""Structural validation and sanity reporting for hypergraphs.

:func:`validate_hypergraph` is an on-demand audit for callers: no
parser, generator or engine calls it, since the :class:`Hypergraph`
constructor already rejects malformed pins, areas and weights.  It
re-checks the CSR cross-consistency and reports the classic netlist
pathologies (dangling nets, self-nets after clustering, weight
anomalies) with actionable messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.hypergraph.hypergraph import Hypergraph


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_hypergraph`.

    ``errors`` are structural violations; ``warnings`` are legal but
    suspicious features (single-pin nets, isolated vertices, ...).
    """

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no errors were found (warnings are tolerated)."""
        return not self.errors

    def raise_on_error(self) -> None:
        """Raise ``ValueError`` summarising all errors, if any."""
        if self.errors:
            raise ValueError(
                "invalid hypergraph: " + "; ".join(self.errors)
            )


def validate_hypergraph(
    graph: Hypergraph, max_reported: int = 10
) -> ValidationReport:
    """Check structural invariants of ``graph``.

    Errors
    ------
    * CSR cross-consistency (every net->pin incidence appears in the
      vertex->net direction and vice versa);
    * negative areas or net weights (also rejected at construction, but
      re-checked here for graphs built through other paths).

    Warnings
    --------
    * empty or single-pin nets (cannot be cut; waste partitioner effort);
    * isolated vertices (no incident net);
    * zero-weight nets (ignored by the cut objective).
    """
    report = ValidationReport()

    pin_count_forward = graph.num_pins
    pin_count_reverse = sum(
        graph.vertex_degree(v) for v in range(graph.num_vertices)
    )
    if pin_count_forward != pin_count_reverse:
        report.errors.append(
            f"pin-count mismatch: nets see {pin_count_forward}, "
            f"vertices see {pin_count_reverse}"
        )

    mismatches = 0
    for e in range(graph.num_nets):
        for v in graph.net_pins(e):
            if e not in set(graph.vertex_nets(v)):
                mismatches += 1
                if mismatches <= max_reported:
                    report.errors.append(
                        f"incidence ({e}, {v}) missing from vertex side"
                    )
    if mismatches > max_reported:
        report.errors.append(
            f"... and {mismatches - max_reported} more incidence mismatches"
        )

    empty_nets = [e for e in range(graph.num_nets) if graph.net_size(e) == 0]
    if empty_nets:
        report.warnings.append(
            f"{len(empty_nets)} empty net(s), e.g. net {empty_nets[0]}"
        )
    single_pin = [e for e in range(graph.num_nets) if graph.net_size(e) == 1]
    if single_pin:
        report.warnings.append(
            f"{len(single_pin)} single-pin net(s), e.g. net {single_pin[0]}"
        )
    zero_weight = [
        e for e in range(graph.num_nets) if graph.net_weight(e) == 0
    ]
    if zero_weight:
        report.warnings.append(
            f"{len(zero_weight)} zero-weight net(s), e.g. net "
            f"{zero_weight[0]}"
        )

    isolated = [
        v for v in range(graph.num_vertices) if graph.vertex_degree(v) == 0
    ]
    if isolated:
        report.warnings.append(
            f"{len(isolated)} isolated vertex/vertices, e.g. vertex "
            f"{isolated[0]}"
        )

    for v in range(graph.num_vertices):
        if graph.area(v) < 0:
            report.errors.append(f"vertex {v} has negative area")
    for e in range(graph.num_nets):
        if graph.net_weight(e) < 0:
            report.errors.append(f"net {e} has negative weight")

    return report
