"""Property-based tests for the hypergraph substrate."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph import (
    Hypergraph,
    contract,
    validate_hypergraph,
)
from repro.partition import cut_size
from tests.oracles.kway_reference import vertex_induced_subhypergraph


@st.composite
def hypergraphs(draw, max_vertices=16, max_nets=20):
    """Random small hypergraphs with weights and areas."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    num_nets = draw(st.integers(min_value=0, max_value=max_nets))
    nets = []
    for _ in range(num_nets):
        size = draw(st.integers(min_value=1, max_value=min(5, n)))
        pins = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        nets.append(pins)
    areas = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=n,
            max_size=n,
        )
    )
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=num_nets,
            max_size=num_nets,
        )
    )
    return Hypergraph(nets, num_vertices=n, areas=areas, net_weights=weights)


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_csr_duality(g):
    """Net->pin and vertex->net views describe the same incidences."""
    forward = {
        (e, v) for e in range(g.num_nets) for v in g.net_pins(e)
    }
    backward = {
        (e, v)
        for v in range(g.num_vertices)
        for e in g.vertex_nets(v)
    }
    assert forward == backward
    assert len(forward) == g.num_pins


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_validation_accepts_generated(g):
    assert validate_hypergraph(g).ok


@given(hypergraphs(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_contraction_preserves_area_and_cut(g, seed):
    """Contracting within the blocks of a partition preserves its cut."""
    rng = random.Random(seed)
    parts = [rng.randrange(2) for _ in range(g.num_vertices)]
    # Cluster only same-part pairs: label = (part, group) compacted.
    labels = []
    mapping = {}
    for v in range(g.num_vertices):
        key = (parts[v], rng.randrange(2))  # up to 2 clusters per side
        if key not in mapping:
            mapping[key] = len(mapping)
        labels.append(mapping[key])
    result = contract(g, labels)
    coarse_parts = [0] * result.coarse.num_vertices
    for v, c in enumerate(labels):
        coarse_parts[c] = parts[v]
    assert result.coarse.total_area == sum(g.areas) or abs(
        result.coarse.total_area - sum(g.areas)
    ) < 1e-6
    assert cut_size(result.coarse, coarse_parts) == cut_size(g, parts)


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_contraction_projection_roundtrip(g):
    """Projecting a coarse partition assigns each fine vertex its
    cluster's side."""
    labels = [v % max(1, g.num_vertices // 2) for v in range(g.num_vertices)]
    # Compact labels.
    remap = {}
    labels = [remap.setdefault(c, len(remap)) for c in labels]
    result = contract(g, labels)
    coarse_parts = [c % 2 for c in range(result.coarse.num_vertices)]
    fine = result.project_partition(coarse_parts)
    for v in range(g.num_vertices):
        assert fine[v] == coarse_parts[labels[v]]


@given(hypergraphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_induced_subhypergraph_cut_consistency(g, data):
    """A net kept in the induced subgraph is cut there iff it is cut in
    the full graph under any assignment extending the sub-assignment."""
    if g.num_vertices < 2:
        return
    k = data.draw(
        st.integers(min_value=2, max_value=g.num_vertices)
    )
    subset = list(range(k))
    sub, order = vertex_induced_subhypergraph(g, subset)
    assert order == subset
    assert sub.num_vertices == k
    # Every kept net has >= 2 pins and all pins map back into subset.
    for e in range(sub.num_nets):
        assert sub.net_size(e) >= 2
