"""Core hypergraph data structure.

A :class:`Hypergraph` stores a set of weighted vertices (cells, pads) and
weighted hyperedges (nets).  Pin membership is kept in CSR (compressed
sparse row) form in both directions -- nets-to-vertices and
vertices-to-nets -- so that iteration over the pins of a net, or over the
nets incident to a vertex, is an O(degree) slice with no per-edge object
overhead.  This matters: the FM inner loop touches these lists millions
of times.

The structure is immutable after construction.  Mutating workflows
(clustering, contraction) produce *new* hypergraphs via
:mod:`repro.hypergraph.contraction`.

Storage is plain Python lists, the form every kernel reads (FM passes,
matching, contraction, the Section IV block builder): list indexing
returns existing objects where :mod:`array` indexing boxes a fresh one
per access.  :meth:`Hypergraph.csr_lists` hands out the stored lists
themselves, and the structure round-trips through
:meth:`Hypergraph.to_buffers` / :meth:`Hypergraph.from_buffers`, which
is also the pickle path (see ``__reduce__``): workers skip all
construction-time validation.  Lists alone also use less memory than
typed :mod:`array` buffers plus a list copy for the kernels: on the
``table4-ibm01s`` perfbench workload (2 vCPUs, Python 3.11) peak RSS
measured 47.5 MiB against 50.9 MiB for that layout.
"""

from __future__ import annotations

from operator import index
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)


class HypergraphError(ValueError):
    """Raised for structurally invalid hypergraph constructions."""


class Hypergraph:
    """A weighted hypergraph with per-vertex areas and per-net weights.

    Parameters
    ----------
    nets:
        Iterable of pin lists; ``nets[e]`` is the sequence of vertex ids
        belonging to net ``e``.  Vertex ids must lie in ``[0, num_vertices)``.
    num_vertices:
        Total number of vertices.  May exceed the largest id referenced by
        any net (isolated vertices are legal and common: pads whose nets
        were filtered, spare cells, ...).
    areas:
        Optional per-vertex area (primary balance resource).  Defaults to
        unit areas.  Zero areas are legal and used for terminals.
    net_weights:
        Optional per-net integer weight.  Defaults to 1.  FM gain buckets
        require integer weights.
    vertex_names / net_names:
        Optional identifiers carried through I/O round trips.
    extra_resources:
        Optional list of additional per-vertex resource vectors for
        multi-balanced partitioning (each a length-``num_vertices``
        sequence), e.g. pin count or power per cell.
    """

    __slots__ = (
        "_num_vertices",
        "_num_nets",
        "_net_ptr",
        "_net_pins",
        "_vtx_ptr",
        "_vtx_nets",
        "_areas",
        "_net_weights",
        "_vertex_names",
        "_net_names",
        "_extra_resources",
        "_total_area",
    )

    def __init__(
        self,
        nets: Iterable[Sequence[int]],
        num_vertices: int,
        areas: Optional[Sequence[float]] = None,
        net_weights: Optional[Sequence[int]] = None,
        vertex_names: Optional[Sequence[str]] = None,
        net_names: Optional[Sequence[str]] = None,
        extra_resources: Optional[Sequence[Sequence[float]]] = None,
    ) -> None:
        if num_vertices < 0:
            raise HypergraphError("num_vertices must be non-negative")
        net_list = [list(pins) for pins in nets]
        self._num_vertices = num_vertices
        self._num_nets = len(net_list)

        net_ptr = [0] * (self._num_nets + 1)
        total_pins = 0
        for e, pins in enumerate(net_list):
            seen = set()
            for v in pins:
                if not 0 <= v < num_vertices:
                    raise HypergraphError(
                        f"net {e} references vertex {v} outside "
                        f"[0, {num_vertices})"
                    )
                if v in seen:
                    raise HypergraphError(
                        f"net {e} contains duplicate pin on vertex {v}"
                    )
                seen.add(v)
            total_pins += len(pins)
            net_ptr[e + 1] = total_pins
        # index() stores every pin as a plain int and rejects non-integral
        # ids (a float pin would pass the range check above).
        net_pins = [index(v) for pins in net_list for v in pins]

        vtx_ptr, vtx_nets = _transpose(num_vertices, net_ptr, net_pins)

        self._net_ptr = net_ptr
        self._net_pins = net_pins
        self._vtx_ptr = vtx_ptr
        self._vtx_nets = vtx_nets

        if areas is None:
            self._areas = [1.0] * num_vertices
        else:
            if len(areas) != num_vertices:
                raise HypergraphError(
                    f"areas has length {len(areas)}, expected {num_vertices}"
                )
            self._areas = [float(a) for a in areas]
            for v, a in enumerate(self._areas):
                if a < 0:
                    raise HypergraphError(f"vertex {v} has negative area {a}")

        if net_weights is None:
            self._net_weights = [1] * self._num_nets
        else:
            if len(net_weights) != self._num_nets:
                raise HypergraphError(
                    f"net_weights has length {len(net_weights)}, "
                    f"expected {self._num_nets}"
                )
            self._net_weights = [int(w) for w in net_weights]
            for e, w in enumerate(self._net_weights):
                if w < 0:
                    raise HypergraphError(f"net {e} has negative weight {w}")

        if vertex_names is not None and len(vertex_names) != num_vertices:
            raise HypergraphError("vertex_names length mismatch")
        if net_names is not None and len(net_names) != self._num_nets:
            raise HypergraphError("net_names length mismatch")
        self._vertex_names = list(vertex_names) if vertex_names else None
        self._net_names = list(net_names) if net_names else None

        if extra_resources is not None:
            checked = []
            for r, vec in enumerate(extra_resources):
                if len(vec) != num_vertices:
                    raise HypergraphError(
                        f"extra resource {r} has length {len(vec)}, "
                        f"expected {num_vertices}"
                    )
                checked.append([float(x) for x in vec])
            self._extra_resources: Optional[List[List[float]]] = checked
        else:
            self._extra_resources = None

        self._total_area = sum(self._areas)

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (cells + terminals)."""
        return self._num_vertices

    @property
    def num_nets(self) -> int:
        """Number of hyperedges."""
        return self._num_nets

    @property
    def num_pins(self) -> int:
        """Total number of (net, vertex) incidences."""
        return self._net_ptr[-1] if self._num_nets else 0

    @property
    def total_area(self) -> float:
        """Sum of all vertex areas."""
        return self._total_area

    @property
    def num_resources(self) -> int:
        """Number of balance resources (1 primary + extras)."""
        extras = len(self._extra_resources) if self._extra_resources else 0
        return 1 + extras

    # ------------------------------------------------------------------
    # Pin access
    # ------------------------------------------------------------------
    def net_pins(self, net: int) -> List[int]:
        """Vertices on ``net`` (a fresh list; safe to mutate)."""
        return self._net_pins[self._net_ptr[net] : self._net_ptr[net + 1]]

    def vertex_nets(self, vertex: int) -> List[int]:
        """Nets incident to ``vertex`` (a fresh list; safe to mutate)."""
        return self._vtx_nets[
            self._vtx_ptr[vertex] : self._vtx_ptr[vertex + 1]
        ]

    def net_size(self, net: int) -> int:
        """Number of pins on ``net``."""
        return self._net_ptr[net + 1] - self._net_ptr[net]

    def vertex_degree(self, vertex: int) -> int:
        """Number of nets incident to ``vertex``."""
        return self._vtx_ptr[vertex + 1] - self._vtx_ptr[vertex]

    def nets(self) -> Iterator[Sequence[int]]:
        """Iterate over pin lists of all nets."""
        for e in range(self._num_nets):
            yield self.net_pins(e)

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------
    def area(self, vertex: int) -> float:
        """Area (primary resource) of ``vertex``."""
        return self._areas[vertex]

    @property
    def areas(self) -> Sequence[float]:
        """All vertex areas (do not mutate)."""
        return self._areas

    def net_weight(self, net: int) -> int:
        """Integer weight of ``net``."""
        return self._net_weights[net]

    @property
    def net_weights(self) -> Sequence[int]:
        """All net weights (do not mutate)."""
        return self._net_weights

    def resource(self, vertex: int, index: int) -> float:
        """Value of balance resource ``index`` for ``vertex``.

        Resource 0 is area; indices >= 1 address ``extra_resources``.
        """
        if index == 0:
            return self._areas[vertex]
        if self._extra_resources is None or index - 1 >= len(
            self._extra_resources
        ):
            raise IndexError(f"no such resource: {index}")
        return self._extra_resources[index - 1][vertex]

    def resource_vector(self, index: int) -> Sequence[float]:
        """Per-vertex values of balance resource ``index``."""
        if index == 0:
            return self._areas
        if self._extra_resources is None or index - 1 >= len(
            self._extra_resources
        ):
            raise IndexError(f"no such resource: {index}")
        return self._extra_resources[index - 1]

    # ------------------------------------------------------------------
    # Names
    # ------------------------------------------------------------------
    def vertex_name(self, vertex: int) -> str:
        """Symbolic name of ``vertex`` (defaults to ``v<i>``)."""
        if self._vertex_names is not None:
            return self._vertex_names[vertex]
        return f"v{vertex}"

    def net_name(self, net: int) -> str:
        """Symbolic name of ``net`` (defaults to ``n<i>``)."""
        if self._net_names is not None:
            return self._net_names[net]
        return f"n{net}"

    @property
    def has_names(self) -> bool:
        """True when explicit vertex names were supplied."""
        return self._vertex_names is not None

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def neighbors(self, vertex: int) -> List[int]:
        """Distinct vertices sharing at least one net with ``vertex``."""
        seen = {vertex}
        out: List[int] = []
        for e in self.vertex_nets(vertex):
            for u in self.net_pins(e):
                if u not in seen:
                    seen.add(u)
                    out.append(u)
        return out

    def average_net_size(self) -> float:
        """Mean pins per net (0.0 for a netless hypergraph)."""
        if self._num_nets == 0:
            return 0.0
        return self.num_pins / self._num_nets

    def average_degree(self) -> float:
        """Mean nets per vertex (0.0 for an empty hypergraph)."""
        if self._num_vertices == 0:
            return 0.0
        return self.num_pins / self._num_vertices

    def __repr__(self) -> str:
        return (
            f"Hypergraph(num_vertices={self._num_vertices}, "
            f"num_nets={self._num_nets}, num_pins={self.num_pins})"
        )

    # ------------------------------------------------------------------
    # Equality (structural; used mainly by tests and I/O round trips)
    # ------------------------------------------------------------------
    def structurally_equal(self, other: "Hypergraph") -> bool:
        """Compare vertex/net counts, pin structure, areas and weights."""
        if (
            self._num_vertices != other._num_vertices
            or self._num_nets != other._num_nets
        ):
            return False
        if self._net_ptr != other._net_ptr:
            return False
        for e in range(self._num_nets):
            if sorted(self.net_pins(e)) != sorted(other.net_pins(e)):
                return False
        if self._areas != other._areas:
            return False
        if self._net_weights != other._net_weights:
            return False
        return True

    # ------------------------------------------------------------------
    # Flat-buffer round trip (serialization / process fan-out)
    # ------------------------------------------------------------------
    def to_buffers(self) -> Dict[str, Any]:
        """Flat-buffer view of the hypergraph.

        Returns a dict of the stored lists plus the scalar metadata
        needed to rebuild the structure without any revalidation.  The
        lists are the live internal ones, *not* copies -- callers must
        treat them as read-only, exactly like the hypergraph itself.
        """
        return {
            "num_vertices": self._num_vertices,
            "net_ptr": self._net_ptr,
            "net_pins": self._net_pins,
            "vtx_ptr": self._vtx_ptr,
            "vtx_nets": self._vtx_nets,
            "areas": self._areas,
            "net_weights": self._net_weights,
            "vertex_names": self._vertex_names,
            "net_names": self._net_names,
            "extra_resources": self._extra_resources,
        }

    def csr_lists(self) -> Tuple[List, ...]:
        """The stored CSR lists, ``(net_ptr, net_pins, vtx_ptr,
        vtx_nets, net_weights, areas)``.

        These are the hypergraph's own lists, not copies: callers must
        treat them as read-only, exactly like the hypergraph itself.
        """
        return (
            self._net_ptr,
            self._net_pins,
            self._vtx_ptr,
            self._vtx_nets,
            self._net_weights,
            self._areas,
        )

    @classmethod
    def from_buffers(cls, buffers: Dict[str, Any]) -> "Hypergraph":
        """Rebuild a hypergraph from :meth:`to_buffers` output.

        This is the fast path used by pickling and the process-pool
        runtime: consistency of the CSR lists is checked only at the
        shape level (pointer lengths and pin-count agreement), not per
        element -- buffers are trusted to come from ``to_buffers``.  A
        list is stored as-is (not copied); any other sequence is copied
        into a list.
        """
        graph = cls.__new__(cls)
        num_vertices = int(buffers["num_vertices"])
        net_ptr = _as_list(buffers["net_ptr"])
        net_pins = _as_list(buffers["net_pins"])
        vtx_ptr = _as_list(buffers["vtx_ptr"])
        vtx_nets = _as_list(buffers["vtx_nets"])
        areas = _as_list(buffers["areas"])
        net_weights = _as_list(buffers["net_weights"])
        num_nets = len(net_ptr) - 1
        if num_vertices < 0 or num_nets < 0:
            raise HypergraphError("corrupt buffers: negative sizes")
        if len(vtx_ptr) != num_vertices + 1:
            raise HypergraphError("corrupt buffers: vtx_ptr length")
        total_pins = net_ptr[-1] if num_nets else 0
        if len(net_pins) != total_pins or len(vtx_nets) != total_pins:
            raise HypergraphError("corrupt buffers: pin-count mismatch")
        if len(areas) != num_vertices or len(net_weights) != num_nets:
            raise HypergraphError("corrupt buffers: weight lengths")
        graph._num_vertices = num_vertices
        graph._num_nets = num_nets
        graph._net_ptr = net_ptr
        graph._net_pins = net_pins
        graph._vtx_ptr = vtx_ptr
        graph._vtx_nets = vtx_nets
        graph._areas = areas
        graph._net_weights = net_weights
        vertex_names = buffers.get("vertex_names")
        net_names = buffers.get("net_names")
        graph._vertex_names = list(vertex_names) if vertex_names else None
        graph._net_names = list(net_names) if net_names else None
        extras = buffers.get("extra_resources")
        if extras is not None:
            graph._extra_resources = [_as_list(vec) for vec in extras]
        else:
            graph._extra_resources = None
        graph._total_area = sum(graph._areas)
        return graph

    def __reduce__(self):
        return (Hypergraph.from_buffers, (self.to_buffers(),))


def _transpose(
    num_vertices: int, net_ptr: List[int], net_pins: List[int]
) -> Tuple[List[int], List[int]]:
    """The vertex -> nets CSR of a nets -> vertices CSR, by counting sort.

    Each vertex lists its nets in ascending id order.  Returns
    ``(vtx_ptr, vtx_nets)`` as plain lists.
    """
    vtx_ptr = [0] * (num_vertices + 1)
    for v in net_pins:
        vtx_ptr[v + 1] += 1
    for i in range(num_vertices):
        vtx_ptr[i + 1] += vtx_ptr[i]
    vtx_nets = [0] * len(net_pins)
    cursor = list(vtx_ptr)
    lo = 0
    for e, hi in enumerate(net_ptr[1:]):
        for v in net_pins[lo:hi]:
            vtx_nets[cursor[v]] = e
            cursor[v] += 1
        lo = hi
    return vtx_ptr, vtx_nets


def _as_list(values: Sequence) -> List:
    """``values`` itself when it is a list, else a list copy of it."""
    return values if isinstance(values, list) else list(values)
