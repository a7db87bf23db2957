"""Multi-balanced 2-way FM: the readable engine under vector loads."""

import hashlib
import random

import pytest

from repro.hypergraph import CircuitSpec, Hypergraph, generate_circuit
from repro.partition import (
    FREE,
    BalanceConstraint,
    FMConfig,
    MultiBalanceConstraint,
    ReferenceFMBipartitioner,
    multi_resource_initial,
)


def resource_graph(seed=0, num_resources=2, num_cells=120):
    """Circuit whose cells carry area plus synthetic extra resources
    (power, ...), each drawn per cell; pads carry none."""
    circ = generate_circuit(CircuitSpec(num_cells=num_cells), seed=seed)
    g = circ.graph
    rng = random.Random(seed)
    extras = [
        [
            0.0 if circ.is_pad(v) else rng.uniform(0.5, 4.0)
            for v in range(g.num_vertices)
        ]
        for _ in range(num_resources - 1)
    ]
    return Hypergraph(
        list(g.nets()),
        num_vertices=g.num_vertices,
        areas=list(g.areas),
        net_weights=list(g.net_weights),
        extra_resources=extras,
    )


def multi_balance(graph, tolerances=(0.05, 0.15)):
    constraints = []
    for r, tol in enumerate(tolerances):
        total = sum(graph.resource_vector(r))
        half = total / 2.0
        constraints.append(
            BalanceConstraint(
                min_loads=[half * (1 - tol)] * 2,
                max_loads=[half * (1 + tol)] * 2,
            )
        )
    return MultiBalanceConstraint(constraints=constraints)


def resource_loads(graph, parts, resources):
    loads = [[0.0, 0.0] for _ in range(resources)]
    for v in range(graph.num_vertices):
        for r in range(resources):
            loads[r][parts[v]] += graph.resource(v, r)
    return loads


class TestEngine:
    def test_improves_and_reports_exact_cut(self):
        g = resource_graph(seed=1)
        balance = multi_balance(g)
        init = multi_resource_initial(g, balance, seed=2)
        engine = ReferenceFMBipartitioner(g, balance)
        result = engine.run(init)
        assert result.solution.verify_cut(g)
        assert result.solution.cut <= result.initial_cut

    def test_all_resources_balanced(self):
        g = resource_graph(seed=3)
        balance = multi_balance(g)
        init = multi_resource_initial(g, balance, seed=4)
        result = ReferenceFMBipartitioner(g, balance).run(init)
        loads = resource_loads(g, result.solution.parts, 2)
        assert balance.is_feasible(loads)

    def test_fixture_respected(self):
        g = resource_graph(seed=5)
        rng = random.Random(6)
        fixture = [FREE] * g.num_vertices
        pinned = rng.sample(range(g.num_vertices), 20)
        for v in pinned:
            fixture[v] = rng.randrange(2)
        balance = multi_balance(g)
        init = multi_resource_initial(g, balance, fixture=fixture, seed=7)
        result = ReferenceFMBipartitioner(
            g, balance, fixture=fixture
        ).run(init)
        for v in pinned:
            assert result.solution.parts[v] == fixture[v]

    def test_tight_second_resource_changes_solution(self):
        # When the second resource is concentrated on one clique, a
        # tight window on it must split that clique even at cut cost.
        nets = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]
        power = [10.0, 10.0, 10.0, 0.1, 0.1, 0.1]
        g = Hypergraph(
            nets,
            num_vertices=6,
            areas=[1.0] * 6,
            extra_resources=[power],
        )
        power_tight = MultiBalanceConstraint(
            constraints=[
                BalanceConstraint(min_loads=[2, 2], max_loads=[4, 4]),
                BalanceConstraint(min_loads=[8, 8], max_loads=[22, 22]),
            ]
        )
        # The natural cut-2 bisection piles all three 10-power cells on
        # one side (power 30 / 0.3), violating the power window...
        init = [0, 0, 0, 1, 1, 1]
        init_power = resource_loads(g, init, 2)[1]
        assert not power_tight.constraints[1].is_feasible(init_power)
        # ...so the engine must split the tens 2/1 while keeping areas
        # legal, repairing the violation from an infeasible start.
        tight = ReferenceFMBipartitioner(g, power_tight).run(list(init))
        loads = resource_loads(g, tight.solution.parts, 2)
        assert power_tight.is_feasible(loads)
        assert tight.solution.cut <= 3  # ring cuts cannot go below 2

    def test_pass_cutoff(self):
        g = resource_graph(seed=8)
        balance = multi_balance(g)
        init = multi_resource_initial(g, balance, seed=9)
        full = ReferenceFMBipartitioner(g, balance).run(list(init))
        limited = ReferenceFMBipartitioner(
            g,
            balance,
            config=FMConfig(pass_move_limit_fraction=0.1),
        ).run(list(init))
        assert limited.total_moves <= full.total_moves
        assert limited.solution.verify_cut(g)

    def test_validation(self):
        g = resource_graph(seed=10)
        balance = multi_balance(g)
        three_way = MultiBalanceConstraint(
            constraints=[
                BalanceConstraint(
                    min_loads=[0, 0, 0], max_loads=[9, 9, 9]
                )
            ]
        )
        with pytest.raises(ValueError):
            ReferenceFMBipartitioner(g, three_way)
        too_many = MultiBalanceConstraint(
            constraints=[
                BalanceConstraint(min_loads=[0, 0], max_loads=[9, 9])
            ]
            * 3
        )
        with pytest.raises(ValueError):
            ReferenceFMBipartitioner(g, too_many)
        engine = ReferenceFMBipartitioner(g, balance)
        with pytest.raises(ValueError):
            engine.run([0, 1])
        with pytest.raises(ValueError):
            FMConfig(pass_move_limit_fraction=0.0)

    def test_single_resource_matches_scalar_fm_quality(self):
        # With one resource the engine is scalar FM, move for move.
        from repro.partition import (
            FMBipartitioner,
            random_balanced_bipartition,
            relative_bipartition_balance,
        )

        circ = generate_circuit(CircuitSpec(num_cells=150), seed=11)
        g = circ.graph
        scalar_balance = relative_bipartition_balance(g.total_area, 0.05)
        vector_balance = MultiBalanceConstraint(
            constraints=[scalar_balance]
        )
        init = random_balanced_bipartition(
            g, scalar_balance, rng=random.Random(12)
        )
        scalar = FMBipartitioner(g, scalar_balance).run(list(init))
        vector = ReferenceFMBipartitioner(g, vector_balance).run(
            list(init)
        )
        assert vector.solution == scalar.solution
        assert vector.passes == scalar.passes


class TestInitialConstruction:
    def test_feasible_on_two_resources(self):
        g = resource_graph(seed=13)
        balance = multi_balance(g, tolerances=(0.1, 0.25))
        parts = multi_resource_initial(g, balance, seed=14)
        loads = resource_loads(g, parts, 2)
        assert balance.is_feasible(loads)

    def test_respects_fixture(self):
        g = resource_graph(seed=15)
        balance = multi_balance(g)
        fixture = [FREE] * g.num_vertices
        fixture[0] = 1
        parts = multi_resource_initial(
            g, balance, fixture=fixture, seed=16
        )
        assert parts[0] == 1

    def test_validation(self):
        g = resource_graph(seed=17)
        three_way = MultiBalanceConstraint(
            constraints=[
                BalanceConstraint(
                    min_loads=[0, 0, 0], max_loads=[9, 9, 9]
                )
            ]
        )
        with pytest.raises(ValueError, match="2-way"):
            multi_resource_initial(g, three_way)
        too_many = MultiBalanceConstraint(
            constraints=[
                BalanceConstraint(min_loads=[0, 0], max_loads=[9, 9])
            ]
            * 3
        )
        with pytest.raises(ValueError, match="resources"):
            multi_resource_initial(g, too_many)


GOLDEN_TOLERANCES = (0.05, 0.15, 0.25)

# (resources, fixed, pass_move_limit_fraction) -> (sha256 prefix of the
# final parts, cut, passes, moves), recorded from the dedicated
# multi-resource FM engine this readable engine replaced.
GOLDEN_FINGERPRINTS = {
    (2, False, 1.0): ("dc750f9b0b4be3ff", 40, 4, 576),
    (2, False, 0.1): ("9a7e36d80000729f", 50, 4, 186),
    (2, True, 1.0): ("a664629d4f522abc", 50, 4, 464),
    (2, True, 0.1): ("346e2058e882d1a8", 57, 2, 127),
    (3, False, 1.0): ("8abdfc955930d6b3", 45, 3, 432),
    (3, False, 0.1): ("19d05e8248ca4266", 49, 4, 186),
    (3, True, 1.0): ("f5e18e94ae31dc87", 58, 3, 338),
    (3, True, 0.1): ("9e9c932b5be70394", 56, 2, 126),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_FINGERPRINTS))
def test_golden_fingerprints(case):
    """Multi-resource runs reproduce fingerprints recorded before the
    engines merged: 2 and 3 resources, with and without fixed
    vertices, exhaustive and 10%-cutoff passes."""
    resources, fixed, fraction = case
    seed = 40 + 10 * resources + 2 * fixed + (fraction < 1.0)
    g = resource_graph(seed, resources)
    balance = multi_balance(g, GOLDEN_TOLERANCES[:resources])
    fixture = None
    if fixed:
        rng = random.Random(seed)
        fixture = [FREE] * g.num_vertices
        for v in rng.sample(range(g.num_vertices), g.num_vertices // 5):
            fixture[v] = rng.randrange(2)
    init = multi_resource_initial(g, balance, fixture=fixture, seed=seed)
    result = ReferenceFMBipartitioner(
        g,
        balance,
        fixture=fixture,
        config=FMConfig(pass_move_limit_fraction=fraction),
    ).run(init)
    parts_hash = hashlib.sha256(bytes(result.solution.parts)).hexdigest()
    assert (
        parts_hash[:16],
        result.solution.cut,
        result.num_passes,
        result.total_moves,
    ) == GOLDEN_FINGERPRINTS[case]
