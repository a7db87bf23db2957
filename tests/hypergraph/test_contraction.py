"""Unit tests for clustering/contraction."""

import pytest

from repro.hypergraph import Hypergraph, HypergraphError, contract


class TestContract:
    def test_pairwise_merge(self, small_hypergraph):
        # Merge (0,1) and (4,5); keep 2 and 3 as singletons.
        result = contract(small_hypergraph, [0, 0, 1, 2, 3, 3])
        coarse = result.coarse
        assert coarse.num_vertices == 4
        # {0,1}->internal (dropped), {1,2,3}->{0,1,2}, {3,4}->{2,3},
        # {4,5}->internal (dropped), {0,5}->{0,3}
        pin_sets = {frozenset(p) for p in coarse.nets()}
        assert pin_sets == {
            frozenset({0, 1, 2}),
            frozenset({2, 3}),
            frozenset({0, 3}),
        }

    def test_areas_sum(self):
        g = Hypergraph([[0, 1]], num_vertices=3, areas=[1.0, 2.0, 4.0])
        result = contract(g, [0, 0, 1])
        assert result.coarse.area(0) == 3.0
        assert result.coarse.area(1) == 4.0

    def test_parallel_nets_merge_weights(self):
        g = Hypergraph(
            [[0, 1], [0, 2], [1, 2]],
            num_vertices=4,
            net_weights=[1, 2, 5],
        )
        # Merge 1 and 2: nets {0,1} and {0,2} become parallel {0,1}-pairs.
        result = contract(g, [0, 1, 1, 2])
        coarse = result.coarse
        assert coarse.num_nets == 1
        assert coarse.net_weight(0) == 3  # 1 + 2; {1,2} became internal

    def test_parallel_nets_kept_when_disabled(self):
        g = Hypergraph([[0, 1], [0, 2]], num_vertices=3)
        result = contract(g, [0, 1, 1], merge_parallel_nets=False)
        assert result.coarse.num_nets == 2

    def test_mapping_directions(self):
        g = Hypergraph([[0, 1], [1, 2]], num_vertices=4)
        result = contract(g, [1, 0, 0, 1])
        assert result.fine_to_coarse == [1, 0, 0, 1]
        assert result.coarse_to_fine == [[1, 2], [0, 3]]

    def test_project_partition(self):
        g = Hypergraph([[0, 1]], num_vertices=4)
        result = contract(g, [0, 0, 1, 1])
        assert result.project_partition([1, 0]) == [1, 1, 0, 0]

    def test_noncontiguous_ids_rejected(self, triangle):
        with pytest.raises(HypergraphError):
            contract(triangle, [0, 2, 2])

    def test_length_mismatch_rejected(self, triangle):
        with pytest.raises(HypergraphError):
            contract(triangle, [0, 1])

    def test_out_of_range_rejected(self, triangle):
        with pytest.raises(HypergraphError):
            contract(triangle, [0, 1, -1])

    def test_identity_contraction(self, small_hypergraph):
        g = small_hypergraph
        result = contract(g, list(range(g.num_vertices)))
        assert result.coarse.num_vertices == g.num_vertices
        assert result.coarse.num_nets == g.num_nets

    def test_total_area_invariant(self, weighted_hypergraph):
        g = weighted_hypergraph
        result = contract(g, [0, 0, 1, 1])
        assert result.coarse.total_area == pytest.approx(g.total_area)

    def test_empty_graph(self):
        result = contract(Hypergraph([], num_vertices=0), [])
        assert result.coarse.num_vertices == 0

