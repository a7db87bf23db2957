"""Tests for the Section V terminal-clustering equivalence transform."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cluster_terminals
from repro.hypergraph import CircuitSpec, Hypergraph, generate_circuit
from repro.partition import FREE, cut_size


class TestClusterTerminals:
    def test_two_super_terminals(self):
        g = Hypergraph(
            [[0, 1], [1, 2], [2, 3], [3, 4]], num_vertices=5
        )
        fixture = [0, FREE, 0, 1, 1]
        result = cluster_terminals(g, fixture)
        # 1 free vertex + 2 super-terminals.
        assert result.graph.num_vertices == 3
        assert sorted(
            f for f in result.fixture if f != FREE
        ) == [0, 1]

    def test_areas_accumulate(self):
        g = Hypergraph([[0, 1]], num_vertices=3, areas=[2.0, 3.0, 4.0])
        result = cluster_terminals(g, [1, FREE, 1])
        super_t = result.mapping[0]
        assert result.graph.area(super_t) == 6.0

    def test_no_terminals_identity(self):
        g = Hypergraph([[0, 1]], num_vertices=2)
        result = cluster_terminals(g, [FREE, FREE])
        assert result.graph.num_vertices == 2
        assert result.fixture == [FREE, FREE]

    def test_one_sided(self):
        g = Hypergraph([[0, 1], [1, 2]], num_vertices=3)
        result = cluster_terminals(g, [0, FREE, 0])
        assert result.graph.num_vertices == 2
        assert [f for f in result.fixture if f != FREE] == [0]

    def test_invalid_fixture_rejected(self):
        g = Hypergraph([[0, 1]], num_vertices=2)
        with pytest.raises(ValueError):
            cluster_terminals(g, [5, FREE])
        with pytest.raises(ValueError):
            cluster_terminals(g, [FREE])

    def test_lift_and_push_roundtrip(self):
        g = Hypergraph([[0, 1], [1, 2], [2, 3]], num_vertices=4)
        fixture = [0, FREE, FREE, 1]
        result = cluster_terminals(g, fixture)
        parts = [0, 1, 0, 1]
        clustered = result.push_partition(parts)
        lifted = result.lift_partition(clustered)
        assert lifted == parts

    def test_cut_preserved_on_circuit(self):
        circ = generate_circuit(CircuitSpec(num_cells=150), seed=71)
        g = circ.graph
        rng = random.Random(0)
        fixture = [FREE] * g.num_vertices
        for v in rng.sample(range(g.num_vertices), 40):
            fixture[v] = rng.randrange(2)
        result = cluster_terminals(g, fixture)
        for trial in range(5):
            parts = [
                f if f != FREE else rng.randrange(2) for f in fixture
            ]
            clustered = result.push_partition(parts)
            assert cut_size(g, parts) == cut_size(
                result.graph, clustered
            )


@st.composite
def fixture_instances(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    num_nets = draw(st.integers(min_value=1, max_value=18))
    nets = []
    for _ in range(num_nets):
        size = draw(st.integers(min_value=2, max_value=min(4, n)))
        nets.append(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            )
        )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=4),
            min_size=num_nets,
            max_size=num_nets,
        )
    )
    fixture = draw(
        st.lists(
            st.sampled_from([FREE, 0, 1]), min_size=n, max_size=n
        )
    )
    sides = draw(
        st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=n,
            max_size=n,
        )
    )
    g = Hypergraph(nets, num_vertices=n, net_weights=weights)
    return g, fixture, sides


@given(fixture_instances())
@settings(max_examples=120, deadline=None)
def test_equivalence_theorem(instance):
    """The paper's claim: clustering terminals per side preserves the
    cut of every fixture-respecting assignment."""
    g, fixture, sides = instance
    parts = [
        f if f != FREE else s for f, s in zip(fixture, sides)
    ]
    result = cluster_terminals(g, fixture)
    clustered = result.push_partition(parts)
    assert cut_size(g, parts) == cut_size(result.graph, clustered)
    # And the instance really has at most two terminals now.
    assert (
        sum(1 for f in result.fixture if f != FREE)
        == len({f for f in fixture if f != FREE})
        <= 2
    )
