"""Cost models and the readable 2-way FM under a cost-model objective."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph import CircuitSpec, Hypergraph, generate_circuit
from repro.partition import (
    FREE,
    BalanceConstraint,
    FMBipartitioner,
    FMConfig,
    NetCostModel,
    ReferenceFMBipartitioner,
    cut_size,
    min_cut_cost_model,
    random_balanced_bipartition,
    relative_bipartition_balance,
    total_cost,
)


class TestNetCostModel:
    def test_state_cost(self):
        model = NetCostModel(cost0=[2], cost1=[5], cost_cut=[9])
        assert model.state_cost(0, 3, 0) == 2
        assert model.state_cost(0, 0, 3) == 5
        assert model.state_cost(0, 1, 2) == 9
        assert model.state_cost(0, 0, 0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            NetCostModel(cost0=[1], cost1=[1, 2], cost_cut=[1])
        with pytest.raises(ValueError):
            NetCostModel(cost0=[-1], cost1=[0], cost_cut=[0])
        with pytest.raises(ValueError):
            NetCostModel(cost0=[0.5], cost1=[0], cost_cut=[0])

    def test_min_cut_model_matches_cut_size(self, small_hypergraph):
        model = min_cut_cost_model(small_hypergraph)
        parts = [0, 1, 0, 1, 0, 1]
        assert total_cost(small_hypergraph, model, parts) == cut_size(
            small_hypergraph, parts
        )


def _random_model(graph, rng):
    return NetCostModel(
        cost0=[rng.randint(0, 5) for _ in range(graph.num_nets)],
        cost1=[rng.randint(0, 5) for _ in range(graph.num_nets)],
        cost_cut=[rng.randint(0, 9) for _ in range(graph.num_nets)],
    )


class TestCostFM:
    def _instance(self, seed=1):
        circ = generate_circuit(CircuitSpec(num_cells=150), seed=seed)
        g = circ.graph
        balance = relative_bipartition_balance(g.total_area, 0.05)
        return g, balance

    def test_min_cut_model_behaves_like_fm(self):
        # The min-cut model is the plain objective: the readable engine
        # under it reproduces the kernel FM run exactly.
        g, balance = self._instance(2)
        model = min_cut_cost_model(g)
        init = random_balanced_bipartition(
            g, balance, rng=random.Random(3)
        )
        generic = ReferenceFMBipartitioner(g, balance, model=model).run(
            list(init)
        )
        classic = FMBipartitioner(g, balance).run(list(init))
        assert generic.solution.cut == cut_size(g, generic.solution.parts)
        assert generic.solution == classic.solution
        assert generic.passes == classic.passes

    def test_reported_cost_exact(self):
        g, balance = self._instance(4)
        rng = random.Random(5)
        model = _random_model(g, rng)
        init = random_balanced_bipartition(g, balance, rng=rng)
        result = ReferenceFMBipartitioner(g, balance, model=model).run(
            list(init)
        )
        assert result.solution.cut == total_cost(
            g, model, result.solution.parts
        )
        assert result.solution.cut <= result.initial_cut
        assert result.passes[-1].cut_after == result.solution.cut

    def test_asymmetric_costs_bias_sides(self):
        # A single free vertex on a net whose all-on-side-1 state is
        # cheap must end on side 1.
        g = Hypergraph([[0, 1]], num_vertices=2, areas=[1.0, 1.0])
        model = NetCostModel(cost0=[10], cost1=[0], cost_cut=[5])
        balance = BalanceConstraint(
            min_loads=[0.0, 0.0], max_loads=[2.0, 2.0]
        )
        engine = ReferenceFMBipartitioner(
            g, balance, fixture=[FREE, 1], model=model
        )
        result = engine.run([0, 1])
        assert result.solution.parts == [1, 1]
        assert result.solution.cut == 0

    def test_fixture_respected(self):
        g, balance = self._instance(6)
        rng = random.Random(7)
        fixture = [FREE] * g.num_vertices
        pinned = rng.sample(range(g.num_vertices), 25)
        for v in pinned:
            fixture[v] = rng.randrange(2)
        model = _random_model(g, rng)
        init = random_balanced_bipartition(
            g, balance, fixture=fixture, rng=rng
        )
        result = ReferenceFMBipartitioner(
            g, balance, fixture=fixture, model=model
        ).run(init)
        for v in pinned:
            assert result.solution.parts[v] == fixture[v]

    def test_pass_cutoff(self):
        g, balance = self._instance(8)
        model = _random_model(g, random.Random(8))
        init = random_balanced_bipartition(
            g, balance, rng=random.Random(9)
        )
        full = ReferenceFMBipartitioner(g, balance, model=model).run(
            list(init)
        )
        tight = ReferenceFMBipartitioner(
            g,
            balance,
            config=FMConfig(pass_move_limit_fraction=0.1),
            model=model,
        ).run(list(init))
        assert tight.total_moves <= full.total_moves
        limit = max(1, int(0.1 * tight.passes[0].movable))
        assert all(p.moves_made <= limit for p in tight.passes[1:])

    def test_validation(self):
        g, balance = self._instance(10)
        short_model = NetCostModel(cost0=[0], cost1=[0], cost_cut=[1])
        with pytest.raises(ValueError):
            ReferenceFMBipartitioner(g, balance, model=short_model)
        model = min_cut_cost_model(g)
        engine = ReferenceFMBipartitioner(g, balance, model=model)
        with pytest.raises(ValueError):
            engine.run([0])
        with pytest.raises(ValueError):
            FMConfig(max_passes=0)

    def test_rejects_adaptive_stop(self):
        # The readable engine makes exhaustive passes; asking it for the
        # kernel's adaptive stopping rule must fail loudly.
        g, balance = self._instance(10)
        with pytest.raises(ValueError, match="adaptive_stop"):
            ReferenceFMBipartitioner(
                g, balance, config=FMConfig(adaptive_stop=True)
            )


@st.composite
def model_instances(draw):
    """Small random hypergraphs with a random three-state cost model."""
    n = draw(st.integers(min_value=2, max_value=14))
    num_nets = draw(st.integers(min_value=1, max_value=24))
    nets = [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=min(5, n),
                unique=True,
            )
        )
        for _ in range(num_nets)
    ]
    costs = st.lists(
        st.integers(min_value=0, max_value=7),
        min_size=num_nets,
        max_size=num_nets,
    )
    model = NetCostModel(
        cost0=draw(costs), cost1=draw(costs), cost_cut=draw(costs)
    )
    areas = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n
        )
    )
    if sum(areas) == 0:
        areas[0] = 1.0
    graph = Hypergraph(nets, num_vertices=n, areas=areas)
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return graph, model, seed


@pytest.mark.parametrize("policy", ["lifo", "fifo", "clip"])
@given(instance=model_instances())
@settings(max_examples=40, deadline=None)
def test_random_models_report_exact_objective(policy, instance):
    """Under any three-state model the reported objective equals the
    objective recomputed from scratch, fixed vertices stay put, and a
    feasible start never ends worse than it began."""
    graph, model, seed = instance
    rng = random.Random(seed)
    fixture = [
        rng.randrange(2) if rng.random() < 0.2 else FREE
        for _ in range(graph.num_vertices)
    ]
    balance = relative_bipartition_balance(
        graph.total_area, rng.choice([0.2, 0.5, 0.9])
    )
    parts = [
        f if f != FREE else rng.randrange(2) for f in fixture
    ]
    initial = total_cost(graph, model, parts)
    result = ReferenceFMBipartitioner(
        graph,
        balance,
        fixture=fixture,
        config=FMConfig(policy=policy),
        model=model,
    ).run(parts)
    final = result.solution
    assert result.initial_cut == initial
    assert final.cut == total_cost(graph, model, final.parts)
    assert all(
        f == FREE or p == f for p, f in zip(final.parts, fixture)
    )
    loads = [0.0, 0.0]
    for v, p in enumerate(parts):
        loads[p] += graph.area(v)
    if balance.is_feasible(loads):
        assert final.cut <= initial


class TestWirelengthModel:
    @pytest.fixture(scope="class")
    def derived(self):
        from repro.placement import (
            build_suite,
            place_circuit,
            terminal_positions_from_placement,
            wirelength_cost_model,
        )

        circ = generate_circuit(
            CircuitSpec(num_cells=220, name="w220"), seed=33
        )
        placement = place_circuit(circ, seed=2)
        suite = build_suite(circ, "w220", placement=placement)
        entry = suite.entries[2]
        original_ids = {
            placement.graph.vertex_name(v): v
            for v in range(placement.graph.num_vertices)
        }
        positions = terminal_positions_from_placement(
            entry.instance, placement.positions, original_ids
        )
        from repro.placement import midline

        model = wirelength_cost_model(
            entry.instance,
            entry.block,
            positions,
            cutline=midline(entry.block, entry.cut_axis),
            scale=0.1,
        )
        return entry, model, positions

    def test_model_covers_all_nets(self, derived):
        entry, model, _ = derived
        assert model.num_nets == entry.instance.graph.num_nets

    def test_cut_state_never_cheaper_than_best_side(self, derived):
        # The cut bbox contains both side points, so it dominates both
        # single-side bboxes.
        _, model, _ = derived
        for e in range(model.num_nets):
            assert model.cost_cut[e] >= min(
                model.cost0[e], model.cost1[e]
            )

    def test_terminal_pull(self, derived):
        # For nets with terminals on exactly one side of the cut, the
        # preferred side is usually the terminal side.
        entry, model, positions = derived
        inst = entry.instance
        cut_axis_positions = {
            t: positions[t] for t in inst.pad_vertices
        }
        del cut_axis_positions
        preferred_matches = 0
        considered = 0
        for e in range(model.num_nets):
            pins = inst.graph.net_pins(e)
            sides = {
                next(iter(inst.fixture_sets[v]))
                for v in pins
                if inst.fixture_sets[v] is not None
            }
            if len(sides) != 1:
                continue
            considered += 1
            side = next(iter(sides))
            cheaper = 0 if model.cost0[e] < model.cost1[e] else 1
            if model.cost0[e] != model.cost1[e] and cheaper == side:
                preferred_matches += 1
        assert considered > 0
        assert preferred_matches > 0.6 * considered

    def test_optimizing_wl_beats_min_cut_on_wl(self, derived):
        entry, model, _ = derived
        inst = entry.instance
        g = inst.graph
        fixture = inst.hard_fixture()
        init = random_balanced_bipartition(
            g, inst.balance, fixture=fixture, rng=random.Random(4)
        )
        wl_engine = ReferenceFMBipartitioner(
            g, inst.balance, fixture=fixture, model=model
        )
        wl_result = wl_engine.run(list(init))
        mc_result = FMBipartitioner(
            g, inst.balance, fixture=fixture
        ).run(list(init))
        assert wl_result.solution.cut <= total_cost(
            g, model, mc_result.solution.parts
        )
