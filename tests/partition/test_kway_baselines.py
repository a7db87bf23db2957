"""Unit tests for the recursive-bisection k-way reference."""

import pytest

from repro.hypergraph import grid_hypergraph
from repro.partition import FREE, block_loads, cut_size, relative_balance
from tests.oracles.kway_reference import recursive_bisection


class TestRecursiveBisection:
    def test_two_way_matches_bipartition(self, tiny_circuit):
        g = tiny_circuit.graph
        result = recursive_bisection(g, 2, tolerance=0.05, seed=1)
        assert set(result.parts) <= {0, 1}
        assert result.cut == cut_size(g, result.parts)

    def test_four_way_grid(self):
        g = grid_hypergraph(8, 8)
        result = recursive_bisection(g, 4, tolerance=0.1, seed=2)
        assert set(result.parts) == {0, 1, 2, 3}
        window = relative_balance(g.total_area, 4, 0.25)
        assert window.is_feasible(block_loads(g, result.parts, 4))
        # A good quadrisection of an 8x8 grid cuts ~16 mesh edges.
        assert result.cut <= 32

    def test_three_way(self):
        g = grid_hypergraph(6, 9)
        result = recursive_bisection(g, 3, tolerance=0.15, seed=3)
        assert set(result.parts) == {0, 1, 2}
        loads = [0.0, 0.0, 0.0]
        for v in range(g.num_vertices):
            loads[result.parts[v]] += g.area(v)
        assert max(loads) <= 1.5 * min(loads)

    def test_one_way(self, chain20):
        result = recursive_bisection(chain20, 1, seed=0)
        assert set(result.parts) == {0}
        assert result.cut == 0

    def test_fixture_routed_to_blocks(self):
        g = grid_hypergraph(6, 6)
        fixture = [FREE] * 36
        fixture[0] = 0
        fixture[35] = 3
        result = recursive_bisection(
            g, 4, tolerance=0.2, fixture=fixture, seed=4
        )
        assert result.parts[0] == 0
        assert result.parts[35] == 3

    def test_invalid_num_parts(self, chain20):
        with pytest.raises(ValueError):
            recursive_bisection(chain20, 0)

    def test_invalid_fixture_block(self, chain20):
        fixture = [FREE] * 20
        fixture[0] = 5
        with pytest.raises(ValueError):
            recursive_bisection(chain20, 4, fixture=fixture)

    def test_deterministic(self, tiny_circuit):
        a = recursive_bisection(tiny_circuit.graph, 4, seed=7)
        b = recursive_bisection(tiny_circuit.graph, 4, seed=7)
        assert a.parts == b.parts
