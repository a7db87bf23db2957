"""Unit tests for the core Hypergraph structure."""

import pytest

from repro.hypergraph import Hypergraph, HypergraphError
from tests.oracles.kway_reference import vertex_induced_subhypergraph


class TestConstruction:
    def test_counts(self, small_hypergraph):
        g = small_hypergraph
        assert g.num_vertices == 6
        assert g.num_nets == 5
        assert g.num_pins == 11

    def test_empty_hypergraph(self):
        g = Hypergraph([], num_vertices=0)
        assert g.num_vertices == 0
        assert g.num_nets == 0
        assert g.num_pins == 0
        assert g.total_area == 0.0

    def test_isolated_vertices_allowed(self):
        g = Hypergraph([[0, 1]], num_vertices=5)
        assert g.vertex_degree(4) == 0
        assert g.num_pins == 2

    def test_default_unit_areas(self, triangle):
        assert triangle.total_area == 3.0
        assert triangle.area(1) == 1.0

    def test_default_unit_net_weights(self, triangle):
        assert all(triangle.net_weight(e) == 1 for e in range(3))

    def test_negative_vertex_id_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph([[-1, 0]], num_vertices=2)

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph([[0, 3]], num_vertices=3)

    def test_duplicate_pin_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph([[0, 1, 0]], num_vertices=2)

    def test_negative_area_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph([[0, 1]], num_vertices=2, areas=[1.0, -2.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph([[0, 1]], num_vertices=2, net_weights=[-1])

    def test_area_length_mismatch_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph([[0, 1]], num_vertices=2, areas=[1.0])

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph([[0, 1]], num_vertices=2, net_weights=[1, 2])

    def test_negative_num_vertices_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph([], num_vertices=-1)

    def test_name_length_mismatch_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph([[0, 1]], num_vertices=2, vertex_names=["a"])


class TestAdjacency:
    def test_net_pins(self, small_hypergraph):
        assert list(small_hypergraph.net_pins(1)) == [1, 2, 3]

    def test_vertex_nets_cross_consistency(self, small_hypergraph):
        g = small_hypergraph
        for e in range(g.num_nets):
            for v in g.net_pins(e):
                assert e in list(g.vertex_nets(v))
        for v in range(g.num_vertices):
            for e in g.vertex_nets(v):
                assert v in list(g.net_pins(e))

    def test_degrees(self, small_hypergraph):
        g = small_hypergraph
        assert g.vertex_degree(0) == 2
        assert g.vertex_degree(1) == 2
        assert g.vertex_degree(3) == 2
        assert g.net_size(1) == 3
        assert g.net_size(0) == 2

    def test_neighbors(self, small_hypergraph):
        assert sorted(small_hypergraph.neighbors(1)) == [0, 2, 3]

    def test_neighbors_exclude_self(self, triangle):
        assert 0 not in triangle.neighbors(0)

    def test_nets_iterator(self, triangle):
        assert [list(p) for p in triangle.nets()] == [[0, 1], [1, 2], [0, 2]]

    def test_averages(self, small_hypergraph):
        g = small_hypergraph
        assert g.average_net_size() == pytest.approx(11 / 5)
        assert g.average_degree() == pytest.approx(11 / 6)

    def test_averages_empty(self):
        g = Hypergraph([], num_vertices=0)
        assert g.average_net_size() == 0.0
        assert g.average_degree() == 0.0


class TestResources:
    def test_primary_resource_is_area(self, weighted_hypergraph):
        g = weighted_hypergraph
        assert g.resource(2, 0) == 3.0
        assert list(g.resource_vector(0)) == [1.0, 2.0, 3.0, 2.0]

    def test_extra_resources(self):
        g = Hypergraph(
            [[0, 1]],
            num_vertices=2,
            extra_resources=[[5.0, 6.0], [0.5, 0.25]],
        )
        assert g.num_resources == 3
        assert g.resource(1, 1) == 6.0
        assert g.resource(0, 2) == 0.5

    def test_missing_resource_raises(self, triangle):
        with pytest.raises(IndexError):
            triangle.resource(0, 1)
        with pytest.raises(IndexError):
            triangle.resource_vector(3)

    def test_extra_resource_length_mismatch(self):
        with pytest.raises(HypergraphError):
            Hypergraph([[0, 1]], num_vertices=2, extra_resources=[[1.0]])


class TestNames:
    def test_default_names(self, triangle):
        assert triangle.vertex_name(2) == "v2"
        assert triangle.net_name(0) == "n0"
        assert not triangle.has_names

    def test_explicit_names(self):
        g = Hypergraph(
            [[0, 1]],
            num_vertices=2,
            vertex_names=["alpha", "beta"],
            net_names=["clk"],
        )
        assert g.vertex_name(1) == "beta"
        assert g.net_name(0) == "clk"
        assert g.has_names


class TestEquality:
    def test_structural_equality(self, triangle):
        other = Hypergraph([[1, 0], [2, 1], [2, 0]], num_vertices=3)
        assert triangle.structurally_equal(other)

    def test_inequality_different_nets(self, triangle):
        other = Hypergraph([[0, 1], [1, 2], [1, 2]], num_vertices=3)
        assert not triangle.structurally_equal(other)

    def test_inequality_different_areas(self, triangle):
        other = Hypergraph(
            [[0, 1], [1, 2], [0, 2]], num_vertices=3, areas=[1, 1, 2]
        )
        assert not triangle.structurally_equal(other)

    def test_repr(self, triangle):
        assert "num_vertices=3" in repr(triangle)


class TestInducedSubhypergraph:
    def test_keeps_internal_nets(self, small_hypergraph):
        sub, order = vertex_induced_subhypergraph(small_hypergraph, [0, 1, 5])
        assert order == [0, 1, 5]
        pin_sets = {frozenset(p) for p in sub.nets()}
        # nets {0,1} and {0,5} survive; {1,2,3} loses pins 2,3 -> 1 pin.
        assert pin_sets == {frozenset({0, 1}), frozenset({0, 2})}

    def test_preserves_areas_and_names(self):
        g = Hypergraph(
            [[0, 1], [1, 2]],
            num_vertices=3,
            areas=[3, 4, 5],
            vertex_names=["a", "b", "c"],
        )
        sub, order = vertex_induced_subhypergraph(g, [2, 1])
        assert sub.area(0) == 5.0
        assert sub.vertex_name(1) == "b"

    def test_duplicate_subset_rejected(self, triangle):
        with pytest.raises(HypergraphError):
            vertex_induced_subhypergraph(triangle, [0, 0])

    def test_empty_subset(self, triangle):
        sub, order = vertex_induced_subhypergraph(triangle, [])
        assert sub.num_vertices == 0
        assert sub.num_nets == 0
