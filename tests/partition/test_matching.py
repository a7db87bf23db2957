"""Unit tests for coarsening matchings."""

import random

import pytest

from repro.hypergraph import Hypergraph, HypergraphError, clustered_hypergraph
from repro.partition import (
    FREE,
    coarsen,
    heavy_edge_matching,
    random_matching,
)
from repro.partition.matching import MAX_NET_SIZE


def cluster_sizes(labels):
    from collections import Counter

    return Counter(labels)


class TestHeavyEdgeMatching:
    def test_labels_contiguous(self, clusters4, rng):
        labels = heavy_edge_matching(clusters4, rng=rng)
        assert set(labels) == set(range(max(labels) + 1))

    def test_clusters_at_most_pairs(self, clusters4, rng):
        labels = heavy_edge_matching(clusters4, rng=rng)
        assert max(cluster_sizes(labels).values()) <= 2

    def test_shrinks_connected_graph(self, clusters4, rng):
        labels = heavy_edge_matching(clusters4, rng=rng)
        assert max(labels) + 1 < clusters4.num_vertices

    def test_prefers_heavy_nets(self, rng):
        # Heavy pairs (0,1) and (2,3) joined by a light (1,2) bridge.
        # Whatever vertex is visited first, its best unmatched neighbour
        # is its heavy partner, so the heavy pairs always form.
        g = Hypergraph(
            [[0, 1], [2, 3], [1, 2]],
            num_vertices=4,
            net_weights=[10, 10, 1],
        )
        for seed in range(10):
            labels = heavy_edge_matching(g, rng=random.Random(seed))
            assert labels[0] == labels[1]
            assert labels[2] == labels[3]
            assert labels[0] != labels[2]

    def test_respects_area_cap(self, rng):
        g = Hypergraph(
            [[0, 1]], num_vertices=2, areas=[5.0, 6.0]
        )
        labels = heavy_edge_matching(g, rng=rng, max_cluster_area=10.0)
        assert labels[0] != labels[1]
        labels = heavy_edge_matching(g, rng=rng, max_cluster_area=11.0)
        assert labels[0] == labels[1]

    def test_fixed_different_sides_never_merge(self, rng):
        g = Hypergraph([[0, 1]], num_vertices=2, net_weights=[100])
        labels = heavy_edge_matching(g, fixture=[0, 1], rng=rng)
        assert labels[0] != labels[1]

    def test_fixed_same_side_may_merge(self, rng):
        g = Hypergraph([[0, 1]], num_vertices=2)
        labels = heavy_edge_matching(g, fixture=[1, 1], rng=rng)
        assert labels[0] == labels[1]

    def test_fixed_free_may_merge(self, rng):
        g = Hypergraph([[0, 1]], num_vertices=2)
        labels = heavy_edge_matching(g, fixture=[0, FREE], rng=rng)
        assert labels[0] == labels[1]

    def test_huge_nets_ignored(self, rng):
        # Nets of up to MAX_NET_SIZE pins are scored: a single 64-pin net
        # pairs every vertex up.  One pin more and the net carries no
        # signal: every vertex stays a singleton.
        assert MAX_NET_SIZE == 64
        g = Hypergraph([list(range(64))], num_vertices=64)
        labels = heavy_edge_matching(g, rng=rng)
        assert max(labels) + 1 == 32
        g = Hypergraph([list(range(65))], num_vertices=65)
        labels = heavy_edge_matching(g, rng=rng)
        assert max(labels) + 1 == 65

    def test_fixture_validated_against_num_parts(self, rng):
        # The multilevel driver partitions 2-way; a fixture block id
        # outside [0, num_parts) is a caller bug, caught up front.
        g = Hypergraph([[0, 1]], num_vertices=2)
        with pytest.raises(ValueError):
            heavy_edge_matching(g, fixture=[0, 2], rng=rng, num_parts=2)
        with pytest.raises(ValueError):
            heavy_edge_matching(g, fixture=[0, -2], rng=rng, num_parts=2)
        # Block 2 is legal when the caller really has three parts.
        labels = heavy_edge_matching(
            g, fixture=[0, 2], rng=rng, num_parts=3
        )
        assert len(labels) == 2


class TestRandomMatching:
    def test_pairs_only(self, clusters4, rng):
        labels = random_matching(clusters4, rng=rng)
        assert max(cluster_sizes(labels).values()) <= 2

    def test_respects_fixture(self, rng):
        g = Hypergraph([[0, 1]], num_vertices=2)
        labels = random_matching(g, fixture=[0, 1], rng=rng)
        assert labels[0] != labels[1]

    def test_respects_area_cap(self, rng):
        g = Hypergraph([[0, 1]], num_vertices=2, areas=[5.0, 6.0])
        labels = random_matching(g, rng=rng, max_cluster_area=10.0)
        assert labels[0] != labels[1]

    def test_fixture_validated_against_num_parts(self, rng):
        g = Hypergraph([[0, 1]], num_vertices=2)
        with pytest.raises(ValueError):
            random_matching(g, fixture=[0, 2], rng=rng, num_parts=2)
        labels = random_matching(g, fixture=[0, 2], rng=rng, num_parts=3)
        assert len(labels) == 2


class TestCoarsen:
    def test_fixture_propagates(self, rng):
        g = Hypergraph([[0, 1], [2, 3]], num_vertices=4)
        labels = [0, 0, 1, 2]
        level = coarsen(g, [0, FREE, 1, FREE], labels)
        assert level.fixture == [0, 1, FREE]

    def test_conflicting_fixture_rejected(self):
        g = Hypergraph([[0, 1]], num_vertices=2)
        with pytest.raises(ValueError):
            coarsen(g, [0, 1], [0, 0])

    def test_conflicting_fixture_error_names_cluster_and_blocks(self):
        # The error is a HypergraphError (like contract's own failures)
        # and names the offending cluster and both blocks.
        g = Hypergraph([[0, 1]], num_vertices=2)
        with pytest.raises(
            HypergraphError,
            match=r"cluster 0 merges vertices fixed in blocks 0 and 1",
        ):
            coarsen(g, [0, 1], [0, 0])

    def test_project(self):
        g = Hypergraph([[0, 1], [1, 2]], num_vertices=4)
        level = coarsen(g, [FREE] * 4, [0, 0, 1, 1])
        assert level.project([1, 0]) == [1, 1, 0, 0]

    def test_coarse_graph_areas(self):
        g = Hypergraph(
            [[0, 1]], num_vertices=3, areas=[1.0, 2.0, 3.0]
        )
        level = coarsen(g, [FREE] * 3, [0, 0, 1])
        assert level.coarse.area(0) == 3.0
        assert level.coarse.area(1) == 3.0

    def test_matching_plus_coarsen_shrinks_clusters(self, clusters4, rng):
        labels = heavy_edge_matching(clusters4, rng=rng)
        level = coarsen(clusters4, [FREE] * clusters4.num_vertices, labels)
        assert level.coarse.num_vertices < clusters4.num_vertices
        assert level.coarse.total_area == pytest.approx(
            clusters4.total_area
        )
