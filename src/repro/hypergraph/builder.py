"""Incremental construction of hypergraphs.

:class:`HypergraphBuilder` lets callers add named vertices and nets one at
a time -- the natural shape for netlist parsers and generators -- and then
freeze everything into an immutable :class:`~repro.hypergraph.Hypergraph`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.hypergraph.hypergraph import Hypergraph, HypergraphError


class HypergraphBuilder:
    """Accumulates vertices and nets, then builds a :class:`Hypergraph`."""

    def __init__(self) -> None:
        self._vertex_ids: Dict[str, int] = {}
        self._vertex_names: List[str] = []
        self._areas: List[float] = []
        self._nets: List[List[int]] = []
        self._net_weights: List[int] = []
        self._net_names: List[str] = []

    # ------------------------------------------------------------------
    def add_vertex(self, name: Optional[str] = None, area: float = 1.0) -> int:
        """Add one vertex; returns its id.

        Names must be unique.  When ``name`` is omitted a ``v<i>`` name is
        assigned.
        """
        vid = len(self._vertex_names)
        if name is None:
            name = f"v{vid}"
        if name in self._vertex_ids:
            raise HypergraphError(f"duplicate vertex name: {name!r}")
        if area < 0:
            raise HypergraphError(f"negative area for vertex {name!r}")
        self._vertex_ids[name] = vid
        self._vertex_names.append(name)
        self._areas.append(float(area))
        return vid

    def add_net(
        self,
        pins: Sequence[int],
        weight: int = 1,
        name: Optional[str] = None,
    ) -> int:
        """Add one net over vertex ids ``pins``; returns the net id.

        Duplicate pins are silently deduplicated (netlist formats often
        list a cell twice when two of its pins attach to the same net).
        """
        seen = set()
        unique: List[int] = []
        for v in pins:
            if not 0 <= v < len(self._vertex_names):
                raise HypergraphError(f"net pin references unknown vertex {v}")
            if v not in seen:
                seen.add(v)
                unique.append(v)
        eid = len(self._nets)
        self._nets.append(unique)
        self._net_weights.append(int(weight))
        self._net_names.append(name if name is not None else f"n{eid}")
        return eid

    def add_net_by_names(
        self,
        pin_names: Sequence[str],
        weight: int = 1,
        name: Optional[str] = None,
        create_missing: bool = False,
    ) -> int:
        """Add a net given vertex *names*.

        With ``create_missing`` unknown names are added as unit-area
        vertices, which suits single-pass netlist parsers.
        """
        pins: List[int] = []
        for pname in pin_names:
            if pname not in self._vertex_ids:
                if not create_missing:
                    raise HypergraphError(f"unknown vertex name: {pname!r}")
                self.add_vertex(pname)
            pins.append(self._vertex_ids[pname])
        return self.add_net(pins, weight=weight, name=name)

    # ------------------------------------------------------------------
    def vertex_id(self, name: str) -> int:
        """Id of the vertex called ``name``."""
        return self._vertex_ids[name]

    def has_vertex(self, name: str) -> bool:
        """Whether a vertex called ``name`` exists."""
        return name in self._vertex_ids

    def set_area(self, vertex: int, area: float) -> None:
        """Overwrite the area of an existing vertex (for two-file formats
        where areas arrive after connectivity)."""
        if area < 0:
            raise HypergraphError("negative area")
        self._areas[vertex] = float(area)

    @property
    def num_vertices(self) -> int:
        """Vertices added so far."""
        return len(self._vertex_names)

    # ------------------------------------------------------------------
    def build(self) -> Hypergraph:
        """Freeze into an immutable :class:`Hypergraph`."""
        return Hypergraph(
            self._nets,
            num_vertices=len(self._vertex_names),
            areas=self._areas,
            net_weights=self._net_weights,
            vertex_names=self._vertex_names,
            net_names=self._net_names,
        )
