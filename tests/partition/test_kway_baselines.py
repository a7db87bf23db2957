"""Unit tests for the recursive-bisection k-way reference and the
baselines."""

import pytest

from repro.hypergraph import CircuitSpec, generate_circuit, grid_hypergraph
from repro.partition import (
    FREE,
    annealing_baseline,
    block_loads,
    cut_size,
    greedy_baseline,
    random_baseline,
    relative_balance,
    relative_bipartition_balance,
)
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


class TestBaselines:
    def test_random_baseline_feasible(self, tiny_circuit, tiny_balance):
        sol = random_baseline(tiny_circuit.graph, tiny_balance, seed=1)
        assert sol.verify_cut(tiny_circuit.graph)

    def test_greedy_beats_random(self):
        circ = generate_circuit(CircuitSpec(num_cells=400), seed=31)
        g = circ.graph
        balance = relative_bipartition_balance(g.total_area, 0.05)
        rnd = sum(
            random_baseline(g, balance, seed=s).cut for s in range(3)
        )
        grd = sum(
            greedy_baseline(g, balance, seed=s).cut for s in range(3)
        )
        assert grd < rnd

    def test_annealing_beats_random(self):
        circ = generate_circuit(CircuitSpec(num_cells=150), seed=32)
        g = circ.graph
        balance = relative_bipartition_balance(g.total_area, 0.1)
        rnd = random_baseline(g, balance, seed=2).cut
        ann = annealing_baseline(
            g, balance, seed=2, moves_per_temperature=400, cooling=0.8
        )
        assert ann.verify_cut(g)
        assert ann.cut < rnd

    def test_annealing_respects_fixture(self):
        g = grid_hypergraph(5, 5)
        fixture = [FREE] * 25
        fixture[0] = 0
        fixture[24] = 1
        balance = relative_bipartition_balance(g.total_area, 0.2)
        sol = annealing_baseline(
            g, balance, fixture=fixture, seed=3,
            moves_per_temperature=200, cooling=0.7,
        )
        assert sol.parts[0] == 0
        assert sol.parts[24] == 1

    def test_annealing_all_fixed(self):
        g = grid_hypergraph(2, 2)
        fixture = [0, 1, 0, 1]
        balance = relative_bipartition_balance(4.0, 0.3)
        sol = annealing_baseline(g, balance, fixture=fixture, seed=1)
        assert sol.parts == fixture

    def test_fm_beats_annealing_per_unit_effort(self, tiny_circuit, tiny_balance):
        # Not a strict benchmark, just the sanity direction: one FM run
        # should be at least competitive with a short annealing run.
        from repro.partition import flat_fm_multistart

        g = tiny_circuit.graph
        fm = flat_fm_multistart(g, tiny_balance, num_starts=2, seed=5)
        ann = annealing_baseline(
            g, tiny_balance, seed=5, moves_per_temperature=300, cooling=0.7
        )
        assert fm.best().cut <= ann.cut * 2
