"""Unit tests for solution representation and cut evaluation."""

import pytest

from repro.hypergraph import Hypergraph
from repro.partition import (
    FREE,
    Bipartition,
    block_loads,
    cut_size,
    respect_fixture,
    validate_fixture,
)


class TestCutSize:
    def test_uncut(self, triangle):
        assert cut_size(triangle, [0, 0, 0]) == 0

    def test_fully_cut(self, triangle):
        assert cut_size(triangle, [0, 1, 0]) == 2

    def test_weighted(self, weighted_hypergraph):
        # nets: {0,1}w1 {1,2}w2 {2,3}w1 {3,0}w3 {0,2}w2
        parts = [0, 0, 1, 1]
        assert cut_size(weighted_hypergraph, parts) == 2 + 3 + 2

    def test_multiway(self):
        g = Hypergraph([[0, 1, 2], [0, 1]], num_vertices=3)
        assert cut_size(g, [0, 1, 2]) == 2
        assert cut_size(g, [0, 0, 1]) == 1

    def test_empty_net_not_cut(self):
        g = Hypergraph([[], [0, 1]], num_vertices=2)
        assert cut_size(g, [0, 1]) == 1


class TestLoads:
    def test_block_loads(self, weighted_hypergraph):
        loads = block_loads(weighted_hypergraph, [0, 1, 0, 1], 2)
        assert loads == [4.0, 4.0]


class TestBipartition:
    def test_copy_is_deep(self, triangle):
        a = Bipartition(parts=[0, 1, 0], cut=2)
        b = a.copy()
        b.parts[0] = 1
        assert a.parts[0] == 0

    def test_verify_cut(self, triangle):
        good = Bipartition(parts=[0, 1, 0], cut=2)
        bad = Bipartition(parts=[0, 1, 0], cut=1)
        assert good.verify_cut(triangle)
        assert not bad.verify_cut(triangle)


class TestFixture:
    def test_respect(self):
        assert respect_fixture([0, 1, 1], [FREE, 1, FREE])
        assert not respect_fixture([0, 0, 1], [FREE, 1, FREE])

    def test_validate_ok(self):
        validate_fixture([FREE, 0, 1], 3, 2)

    def test_validate_bad_length(self):
        with pytest.raises(ValueError):
            validate_fixture([FREE], 3, 2)

    def test_validate_bad_block(self):
        with pytest.raises(ValueError):
            validate_fixture([2], 1, 2)
        with pytest.raises(ValueError):
            validate_fixture([-3], 1, 2)
