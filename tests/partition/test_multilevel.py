"""Unit tests for the multilevel partitioner."""

import hashlib
import random

import pytest

from repro.hypergraph import (
    CircuitSpec,
    chain_hypergraph,
    clustered_hypergraph,
    generate_circuit,
    grid_hypergraph,
)
from repro.core.regimes import make_schedule, rand_fixture
from repro.experiments.circuits import load_instance
from repro.partition import (
    FREE,
    FMBipartitioner,
    MultilevelBipartitioner,
    MultilevelConfig,
    block_loads,
    random_balanced_bipartition,
    relative_bipartition_balance,
    respect_fixture,
)


class TestBasics:
    def test_grid_near_optimal(self):
        g = grid_hypergraph(8, 16)  # optimal bisection cut = 8
        balance = relative_bipartition_balance(g.total_area, 0.02)
        engine = MultilevelBipartitioner(g, balance=balance)
        best = min(engine.run(seed=s).solution.cut for s in range(3))
        assert best <= 12

    def test_chain_optimal(self):
        g = chain_hypergraph(64)
        balance = relative_bipartition_balance(g.total_area, 0.05)
        engine = MultilevelBipartitioner(g, balance=balance)
        assert engine.run(seed=0).solution.cut == 1

    def test_cut_is_exact(self, tiny_circuit, tiny_balance):
        g = tiny_circuit.graph
        engine = MultilevelBipartitioner(g, balance=tiny_balance)
        result = engine.run(seed=1)
        assert result.solution.verify_cut(g)

    def test_result_feasible(self, tiny_circuit, tiny_balance):
        g = tiny_circuit.graph
        engine = MultilevelBipartitioner(g, balance=tiny_balance)
        result = engine.run(seed=2)
        loads = block_loads(g, result.solution.parts, 2)
        assert tiny_balance.is_feasible(loads)

    def test_deterministic_in_seed(self, tiny_circuit, tiny_balance):
        engine = MultilevelBipartitioner(
            tiny_circuit.graph, balance=tiny_balance
        )
        a = engine.run(seed=5)
        b = engine.run(seed=5)
        assert a.solution.parts == b.solution.parts

    def test_beats_flat_fm(self):
        circ = generate_circuit(CircuitSpec(num_cells=800), seed=21)
        g = circ.graph
        balance = relative_bipartition_balance(g.total_area, 0.02)
        ml = MultilevelBipartitioner(g, balance=balance)
        ml_best = min(ml.run(seed=s).solution.cut for s in range(3))
        flat = FMBipartitioner(g, balance)
        flat_best = min(
            flat.run(
                random_balanced_bipartition(
                    g, balance, rng=random.Random(s)
                )
            ).solution.cut
            for s in range(3)
        )
        assert ml_best < flat_best

    def test_builds_hierarchy(self, tiny_circuit, tiny_balance):
        engine = MultilevelBipartitioner(
            tiny_circuit.graph,
            balance=tiny_balance,
            config=MultilevelConfig(coarsest_size=40),
        )
        result = engine.run(seed=0)
        assert result.num_levels >= 2
        assert result.coarsest_vertices <= tiny_circuit.graph.num_vertices

    def test_small_graph_no_hierarchy(self):
        g = chain_hypergraph(10)
        balance = relative_bipartition_balance(g.total_area, 0.2)
        engine = MultilevelBipartitioner(
            g, balance=balance, config=MultilevelConfig(coarsest_size=120)
        )
        result = engine.run(seed=0)
        assert result.num_levels == 0
        assert result.solution.cut == 1


class TestFixedVertices:
    def test_fixture_respected(self, tiny_circuit, tiny_balance):
        g = tiny_circuit.graph
        rng = random.Random(3)
        fixture = [FREE] * g.num_vertices
        for v in rng.sample(range(g.num_vertices), g.num_vertices // 4):
            fixture[v] = rng.randrange(2)
        engine = MultilevelBipartitioner(
            g, balance=tiny_balance, fixture=fixture
        )
        result = engine.run(seed=4)
        assert respect_fixture(result.solution.parts, fixture)
        assert result.solution.verify_cut(g)

    def test_good_fixture_recovers_good_cut(self, tiny_circuit, tiny_balance):
        g = tiny_circuit.graph
        free_engine = MultilevelBipartitioner(g, balance=tiny_balance)
        good = min(
            (free_engine.run(seed=s).solution for s in range(4)),
            key=lambda sol: sol.cut,
        )
        rng = random.Random(9)
        fixture = [FREE] * g.num_vertices
        for v in rng.sample(range(g.num_vertices), g.num_vertices // 3):
            fixture[v] = good.parts[v]
        fixed_engine = MultilevelBipartitioner(
            g, balance=tiny_balance, fixture=fixture
        )
        result = fixed_engine.run(seed=1)
        assert result.solution.cut <= int(good.cut * 1.5) + 2

    def test_all_fixed(self):
        g = chain_hypergraph(6)
        fixture = [0, 0, 0, 1, 1, 1]
        balance = relative_bipartition_balance(6.0, 0.1)
        engine = MultilevelBipartitioner(
            g, balance=balance, fixture=fixture
        )
        result = engine.run(seed=0)
        assert result.solution.parts == fixture
        assert result.solution.cut == 1


class TestEnginePool:
    @pytest.mark.parametrize("vcycles", [0, 1])
    def test_one_engine_per_depth_across_starts(
        self, tiny_circuit, tiny_balance, vcycles
    ):
        g = tiny_circuit.graph
        fixture = rand_fixture(make_schedule(g, seed=3), 20.0, seed=4)
        config = MultilevelConfig(vcycles=vcycles)
        engine = MultilevelBipartitioner(
            g, balance=tiny_balance, fixture=fixture, config=config
        )
        levels = []
        for seed in range(10):
            result = engine.run(seed=seed)
            fresh = MultilevelBipartitioner(
                g, balance=tiny_balance, fixture=fixture, config=config
            ).run(seed=seed)
            assert result.solution.cut == fresh.solution.cut
            assert result.solution.parts == fresh.solution.parts
            levels.append(result.num_levels)
        # Depth 0 is the input graph; V-cycles reuse the same depths.
        pool = engine._engine_pool
        assert set(pool) == set(range(len(pool)))
        if vcycles == 0:
            assert len(pool) <= max(levels) + 1


class TestConfig:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            MultilevelConfig(matching="best")
        with pytest.raises(ValueError):
            MultilevelConfig(coarsest_size=1)
        with pytest.raises(ValueError):
            MultilevelConfig(initial_starts=0)
        with pytest.raises(ValueError):
            MultilevelConfig(vcycles=-1)

    def test_random_matching_works(self, tiny_circuit, tiny_balance):
        engine = MultilevelBipartitioner(
            tiny_circuit.graph,
            balance=tiny_balance,
            config=MultilevelConfig(matching="random"),
        )
        result = engine.run(seed=0)
        assert result.solution.verify_cut(tiny_circuit.graph)

    def test_vcycle_runs_and_does_not_hurt(self, tiny_circuit, tiny_balance):
        g = tiny_circuit.graph
        base = MultilevelBipartitioner(
            g, balance=tiny_balance, config=MultilevelConfig(vcycles=0)
        ).run(seed=7)
        vcycled = MultilevelBipartitioner(
            g, balance=tiny_balance, config=MultilevelConfig(vcycles=1)
        ).run(seed=7)
        assert vcycled.vcycles_run == 1
        assert vcycled.solution.verify_cut(g)
        # A V-cycle refines an existing solution: never worse.
        assert vcycled.solution.cut <= base.solution.cut

    def test_kway_balance_rejected(self):
        from repro.partition import relative_balance

        g = chain_hypergraph(4)
        with pytest.raises(ValueError):
            MultilevelBipartitioner(
                g, balance=relative_balance(4.0, 3, 0.1)
            )

    def test_default_balance_is_papers(self):
        g = chain_hypergraph(100)
        engine = MultilevelBipartitioner(g)
        assert engine.balance.min_loads[0] == pytest.approx(49.0)
        assert engine.balance.max_loads[0] == pytest.approx(51.0)

    def test_planted_clusters_recovered(self):
        g = clustered_hypergraph(
            num_clusters=4, cluster_size=16, intra_nets=60, inter_nets=8,
            seed=5,
        )
        balance = relative_bipartition_balance(g.total_area, 0.05)
        engine = MultilevelBipartitioner(g, balance=balance)
        best = min(engine.run(seed=s).solution.cut for s in range(3))
        # The planted inter-cluster bridges bound a good bisection.
        assert best <= 8


# (config, fixed) -> (sha256 prefix of the parts, cut, levels, passes) of
# MultilevelBipartitioner(tiny01).run(seed=7), recorded before the
# clustering ratio, cluster-area cap, level cap, refinement policy and
# pass cutoff became constants; the fixed runs fix 20% of the vertices
# into random sides.
GOLDEN_CONFIGS = {
    "default": {},
    "placer": {"coarsest_size": 60, "initial_starts": 2},
    "vcycle": {"vcycles": 1},
    "random": {"matching": "random"},
    "exhaustive": {"adaptive_stop": False},
}
GOLDEN_FINGERPRINTS = {
    ("default", False): ("e2bc036f939ef1fe", 68, 2, 27),
    ("default", True): ("95c5db3442f10f9e", 127, 2, 23),
    ("placer", False): ("f63be69d02243ff0", 76, 4, 15),
    ("placer", True): ("95c5db3442f10f9e", 127, 2, 16),
    ("vcycle", False): ("e2bc036f939ef1fe", 68, 2, 30),
    ("vcycle", True): ("6076f6dcb9e622f8", 120, 2, 32),
    ("random", False): ("ef0ebf8fa63a90c6", 73, 2, 29),
    ("random", True): ("9768a0ae1c82b652", 134, 2, 31),
    ("exhaustive", False): ("e2bc036f939ef1fe", 68, 2, 27),
    ("exhaustive", True): ("95c5db3442f10f9e", 127, 2, 23),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_FINGERPRINTS))
def test_golden_fingerprints(case):
    name, fixed = case
    circuit, balance = load_instance("tiny01")
    g = circuit.graph
    fixture = None
    if fixed:
        fixture = rand_fixture(make_schedule(g, seed=3), 20, seed=3)
    result = MultilevelBipartitioner(
        g,
        balance,
        fixture=fixture,
        config=MultilevelConfig(**GOLDEN_CONFIGS[name]),
    ).run(seed=7)
    parts_hash = hashlib.sha256(bytes(result.solution.parts)).hexdigest()
    assert (
        parts_hash[:16],
        result.solution.cut,
        result.num_levels,
        result.refinement_passes,
    ) == GOLDEN_FINGERPRINTS[case]
