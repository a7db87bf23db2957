"""Unit tests for initial-solution construction."""

import random

import pytest

from repro.hypergraph import CircuitSpec, generate_circuit, grid_hypergraph
from repro.partition import (
    FREE,
    block_loads,
    random_balanced_bipartition,
    relative_balance,
    relative_bipartition_balance,
    respect_fixture,
    cut_size,
    terminal_seeded_bipartition,
)


class TestRandomBalanced:
    def test_feasible_on_unit_areas(self, rng):
        g = grid_hypergraph(6, 6)
        balance = relative_bipartition_balance(g.total_area, 0.1)
        parts = random_balanced_bipartition(g, balance, rng=rng)
        assert balance.is_feasible(block_loads(g, parts, 2))

    def test_feasible_on_skewed_areas(self, rng):
        circ = generate_circuit(CircuitSpec(num_cells=400), seed=3)
        g = circ.graph
        balance = relative_bipartition_balance(g.total_area, 0.02)
        for _ in range(5):
            parts = random_balanced_bipartition(g, balance, rng=rng)
            assert balance.is_feasible(block_loads(g, parts, 2))

    def test_respects_fixture(self, rng):
        g = grid_hypergraph(4, 4)
        fixture = [FREE] * 16
        fixture[0] = 1
        fixture[5] = 0
        balance = relative_bipartition_balance(g.total_area, 0.2)
        parts = random_balanced_bipartition(
            g, balance, fixture=fixture, rng=rng
        )
        assert respect_fixture(parts, fixture)

    def test_randomness(self):
        g = grid_hypergraph(6, 6)
        balance = relative_bipartition_balance(g.total_area, 0.2)
        a = random_balanced_bipartition(g, balance, rng=random.Random(1))
        b = random_balanced_bipartition(g, balance, rng=random.Random(2))
        assert a != b

    def test_deterministic_given_rng(self):
        g = grid_hypergraph(6, 6)
        balance = relative_bipartition_balance(g.total_area, 0.2)
        a = random_balanced_bipartition(g, balance, rng=random.Random(7))
        b = random_balanced_bipartition(g, balance, rng=random.Random(7))
        assert a == b

    def test_kway_balance_rejected(self):
        g = grid_hypergraph(2, 2)
        with pytest.raises(ValueError):
            random_balanced_bipartition(
                g, relative_balance(4.0, 3, 0.1)
            )


class TestTerminalSeeded:
    def test_respects_fixture_and_balance(self, rng):
        circ = generate_circuit(CircuitSpec(num_cells=300), seed=17)
        g = circ.graph
        balance = relative_bipartition_balance(g.total_area, 0.05)
        fixture = [FREE] * g.num_vertices
        for v in rng.sample(range(g.num_vertices), 60):
            fixture[v] = rng.randrange(2)
        parts = terminal_seeded_bipartition(g, balance, fixture, rng=rng)
        assert respect_fixture(parts, fixture)
        assert balance.is_feasible(block_loads(g, parts, 2))

    def test_better_than_random_in_good_regime(self, rng):
        from repro.partition import MultilevelBipartitioner

        circ = generate_circuit(CircuitSpec(num_cells=400), seed=18)
        g = circ.graph
        balance = relative_bipartition_balance(g.total_area, 0.02)
        good = MultilevelBipartitioner(g, balance=balance).run(
            seed=0
        ).solution
        fixture = [FREE] * g.num_vertices
        for v in rng.sample(range(g.num_vertices), g.num_vertices // 4):
            fixture[v] = good.parts[v]
        seeded = terminal_seeded_bipartition(
            g, balance, fixture, rng=random.Random(1)
        )
        rand = random_balanced_bipartition(
            g, balance, fixture=fixture, rng=random.Random(1)
        )
        assert cut_size(g, seeded) < cut_size(g, rand)

    def test_falls_back_when_nothing_fixed(self, rng):
        g = grid_hypergraph(6, 6)
        balance = relative_bipartition_balance(g.total_area, 0.1)
        parts = terminal_seeded_bipartition(
            g, balance, [FREE] * 36, rng=rng
        )
        assert balance.is_feasible(block_loads(g, parts, 2))

    def test_isolated_vertices_assigned(self, rng):
        from repro.hypergraph import Hypergraph

        g = Hypergraph([[0, 1]], num_vertices=4)
        balance = relative_bipartition_balance(4.0, 0.6)
        parts = terminal_seeded_bipartition(
            g, balance, [0, FREE, FREE, FREE], rng=rng
        )
        assert all(p in (0, 1) for p in parts)

    def test_kway_rejected(self, rng):
        g = grid_hypergraph(2, 2)
        with pytest.raises(ValueError):
            terminal_seeded_bipartition(
                g, relative_balance(4.0, 3, 0.2), [FREE] * 4, rng=rng
            )
