"""Unit tests for the flat FM engine.

The heart of the library: correctness of gains, cut bookkeeping,
fixture handling, rollback, pass records and the cutoff knob.
"""

import itertools
import random

import pytest

from repro.hypergraph import (
    Hypergraph,
    chain_hypergraph,
    generate_circuit,
    CircuitSpec,
)
from repro.partition import (
    FREE,
    BalanceConstraint,
    FMBipartitioner,
    FMConfig,
    cut_size,
    random_balanced_bipartition,
    relative_bipartition_balance,
    respect_fixture,
)


def brute_force_best_cut(graph, balance, fixture=None):
    """Exhaustive optimum over feasible, fixture-respecting solutions."""
    n = graph.num_vertices
    if fixture is None:
        fixture = [FREE] * n
    best = None
    free = [v for v in range(n) if fixture[v] == FREE]
    base = [f if f != FREE else 0 for f in fixture]
    for bits in itertools.product((0, 1), repeat=len(free)):
        parts = list(base)
        for v, b in zip(free, bits):
            parts[v] = b
        loads = [0.0, 0.0]
        for v in range(n):
            loads[parts[v]] += graph.area(v)
        if not balance.is_feasible(loads):
            continue
        c = cut_size(graph, parts)
        if best is None or c < best:
            best = c
    return best


class TestOptimalityOnSmallInstances:
    @pytest.mark.parametrize("policy", ["lifo", "fifo", "clip"])
    def test_chain_reaches_optimum(self, policy):
        g = chain_hypergraph(16)
        balance = relative_bipartition_balance(g.total_area, 0.1)
        engine = FMBipartitioner(g, balance, config=FMConfig(policy=policy))
        best = min(
            engine.run(
                random_balanced_bipartition(
                    g, balance, rng=random.Random(s)
                )
            ).solution.cut
            for s in range(5)
        )
        assert best == 1

    def test_matches_brute_force_free(self, rng):
        g = Hypergraph(
            [[0, 1], [1, 2, 3], [3, 4], [4, 5], [0, 5], [2, 5]],
            num_vertices=6,
            net_weights=[1, 2, 1, 1, 3, 1],
        )
        balance = relative_bipartition_balance(g.total_area, 0.34)
        optimum = brute_force_best_cut(g, balance)
        engine = FMBipartitioner(g, balance)
        best = min(
            engine.run(
                random_balanced_bipartition(g, balance, rng=rng)
            ).solution.cut
            for _ in range(10)
        )
        assert best == optimum

    def test_matches_brute_force_with_fixture(self, rng):
        g = Hypergraph(
            [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [1, 4]],
            num_vertices=6,
        )
        fixture = [0, FREE, FREE, 1, FREE, FREE]
        balance = relative_bipartition_balance(g.total_area, 0.34)
        optimum = brute_force_best_cut(g, balance, fixture)
        engine = FMBipartitioner(g, balance, fixture=fixture)
        best = min(
            engine.run(
                random_balanced_bipartition(
                    g, balance, fixture=fixture, rng=rng
                )
            ).solution.cut
            for _ in range(10)
        )
        assert best == optimum


class TestInvariants:
    def _engine_and_init(self, seed, fixture=None, config=None):
        circ = generate_circuit(CircuitSpec(num_cells=120), seed=seed)
        g = circ.graph
        balance = relative_bipartition_balance(g.total_area, 0.05)
        engine = FMBipartitioner(g, balance, fixture=fixture, config=config)
        init = random_balanced_bipartition(
            g, balance, fixture=fixture, rng=random.Random(seed)
        )
        return g, balance, engine, init

    @pytest.mark.parametrize("policy", ["lifo", "fifo", "clip"])
    def test_reported_cut_is_exact(self, policy):
        g, _, engine, init = self._engine_and_init(
            3, config=FMConfig(policy=policy)
        )
        result = engine.run(init)
        assert result.solution.verify_cut(g)

    def test_never_worse_than_initial(self):
        g, balance, engine, init = self._engine_and_init(4)
        result = engine.run(init)
        assert result.solution.cut <= result.initial_cut

    def test_final_solution_feasible(self):
        g, balance, engine, init = self._engine_and_init(5)
        result = engine.run(init)
        loads = [0.0, 0.0]
        for v in range(g.num_vertices):
            loads[result.solution.parts[v]] += g.area(v)
        assert balance.is_feasible(loads)

    def test_fixture_respected(self):
        circ = generate_circuit(CircuitSpec(num_cells=120), seed=6)
        g = circ.graph
        fixture = [FREE] * g.num_vertices
        rng = random.Random(0)
        for v in rng.sample(range(g.num_vertices), 30):
            fixture[v] = rng.randrange(2)
        balance = relative_bipartition_balance(g.total_area, 0.05)
        engine = FMBipartitioner(g, balance, fixture=fixture)
        init = random_balanced_bipartition(
            g, balance, fixture=fixture, rng=rng
        )
        result = engine.run(init)
        assert respect_fixture(result.solution.parts, fixture)

    def test_fixture_forced_even_if_initial_disagrees(self):
        g = chain_hypergraph(6)
        fixture = [0, FREE, FREE, FREE, FREE, 1]
        balance = relative_bipartition_balance(g.total_area, 0.5)
        engine = FMBipartitioner(g, balance, fixture=fixture)
        # Initial assignment contradicts the fixture on both ends.
        result = engine.run([1, 1, 1, 0, 0, 0])
        assert result.solution.parts[0] == 0
        assert result.solution.parts[5] == 1

    def test_all_fixed_returns_immediately(self):
        g = chain_hypergraph(4)
        fixture = [0, 0, 1, 1]
        balance = BalanceConstraint(min_loads=[0, 0], max_loads=[4, 4])
        engine = FMBipartitioner(g, balance, fixture=fixture)
        result = engine.run([0, 0, 1, 1])
        assert result.num_passes == 0
        assert result.solution.cut == 1

    def test_pass_records_consistent(self):
        g, _, engine, init = self._engine_and_init(7)
        result = engine.run(init)
        assert result.num_passes >= 1
        for record in result.passes:
            assert 0 <= record.best_prefix <= record.moves_made
            assert record.moves_made <= record.movable
            assert record.cut_after <= record.cut_before
            assert record.wasted_moves == (
                record.moves_made - record.best_prefix
            )
        # Last pass is the non-improving one.
        assert result.passes[-1].cut_after == result.passes[-1].cut_before

    def test_first_pass_moves_everything_when_unconstrained(self):
        g = chain_hypergraph(10)
        balance = BalanceConstraint(min_loads=[0, 0], max_loads=[10, 10])
        engine = FMBipartitioner(g, balance)
        result = engine.run([v % 2 for v in range(10)])
        assert result.passes[0].moves_made == 10

    def test_balance_repair_from_infeasible_start(self):
        g = chain_hypergraph(10)
        balance = relative_bipartition_balance(g.total_area, 0.2)
        engine = FMBipartitioner(g, balance)
        result = engine.run([0] * 10)  # everything on one side
        loads = [0.0, 0.0]
        for v in range(10):
            loads[result.solution.parts[v]] += 1.0
        assert balance.is_feasible(loads)
        assert result.solution.cut == 1


class TestTermination:
    def test_no_imbalance_only_pass_chains(self):
        """Regression: passes must not chain on epsilon imbalance gains.

        This configuration (120-cell circuit, loose placer-style
        tolerance) previously looped for millions of passes improving
        only the load imbalance while the cut was stuck.
        """
        circ = generate_circuit(CircuitSpec(num_cells=120), seed=42)
        g = circ.graph
        balance = relative_bipartition_balance(g.total_area, 0.1)
        engine = FMBipartitioner(g, balance)
        init = random_balanced_bipartition(
            g, balance, rng=random.Random(3)
        )
        result = engine.run(init)
        assert result.num_passes < 50
        # Consecutive improving passes must improve cut or feasibility.
        for a, b in zip(result.passes, result.passes[1:]):
            assert b.cut_before == a.cut_after
            if b is not result.passes[-1]:
                assert b.cut_after < b.cut_before or not a.feasible_after


class TestPassCutoff:
    def test_cutoff_limits_moves_after_first_pass(self):
        circ = generate_circuit(CircuitSpec(num_cells=200), seed=9)
        g = circ.graph
        balance = relative_bipartition_balance(g.total_area, 0.05)
        config = FMConfig(pass_move_limit_fraction=0.1)
        engine = FMBipartitioner(g, balance, config=config)
        init = random_balanced_bipartition(
            g, balance, rng=random.Random(1)
        )
        result = engine.run(init)
        movable = g.num_vertices
        limit = max(1, int(0.1 * movable))
        assert result.passes[0].moves_made > limit  # first pass uncut
        for record in result.passes[1:]:
            assert record.moves_made <= limit

    def test_cutoff_reduces_total_moves(self):
        circ = generate_circuit(CircuitSpec(num_cells=200), seed=10)
        g = circ.graph
        balance = relative_bipartition_balance(g.total_area, 0.05)
        init = random_balanced_bipartition(
            g, balance, rng=random.Random(2)
        )
        full = FMBipartitioner(g, balance).run(list(init))
        cut = FMBipartitioner(
            g, balance, config=FMConfig(pass_move_limit_fraction=0.05)
        ).run(list(init))
        assert cut.total_moves < full.total_moves

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            FMConfig(pass_move_limit_fraction=0.0)
        with pytest.raises(ValueError):
            FMConfig(pass_move_limit_fraction=1.5)


class TestConfigValidation:
    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            FMConfig(policy="dfs")

    def test_kway_balance_rejected(self):
        g = chain_hypergraph(4)
        bad = BalanceConstraint(min_loads=[0, 0, 0], max_loads=[4, 4, 4])
        with pytest.raises(ValueError):
            FMBipartitioner(g, bad)

    def test_bad_initial_length(self):
        g = chain_hypergraph(4)
        balance = relative_bipartition_balance(4.0, 0.5)
        engine = FMBipartitioner(g, balance)
        with pytest.raises(ValueError):
            engine.run([0, 1])

    def test_bad_initial_side(self):
        g = chain_hypergraph(4)
        balance = relative_bipartition_balance(4.0, 0.5)
        engine = FMBipartitioner(g, balance)
        with pytest.raises(ValueError):
            engine.run([0, 1, 2, 0])


class TestGainCorrectness:
    def test_first_move_is_best_gain(self):
        # Star: center 0 connected to 1..4; 0 alone on side 0.
        g = Hypergraph(
            [[0, 1], [0, 2], [0, 3], [0, 4]], num_vertices=5
        )
        balance = BalanceConstraint(min_loads=[0, 0], max_loads=[5, 5])
        engine = FMBipartitioner(g, balance)
        result = engine.run([0, 1, 1, 1, 1])
        # Moving 0 to side 1 removes all 4 cut nets.
        assert result.solution.cut == 0
        assert result.passes[0].best_prefix == 1

    def test_weighted_gains(self):
        # Net weights make moving vertex 1 the best first move.
        g = Hypergraph(
            [[0, 1], [1, 2], [2, 3]],
            num_vertices=4,
            net_weights=[5, 5, 1],
        )
        balance = BalanceConstraint(min_loads=[0, 0], max_loads=[4, 4])
        engine = FMBipartitioner(g, balance)
        result = engine.run([0, 1, 0, 1])
        # Optimal: {0,1} vs {2,3} or {0,1,2} vs {3} etc -> cut 1 or less.
        assert result.solution.cut <= 1
