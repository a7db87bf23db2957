"""Differential tests: flat-array FM kernels vs. the readable engines.

The kernel engines (:mod:`repro.partition.fm`, :mod:`repro.partition.kwayfm`)
promise *bit-identical* behaviour to the readable implementations in
:mod:`repro.partition.fm_reference` and
:mod:`tests.oracles.kwayfm_reference`: same pre-rollback move sequences,
same pass records, same final cuts and parts, for every policy and any
fixture.  The readable 2-way engine must agree whether its area window
is given as a scalar or a one-resource vector balance, and whether its
objective is the implicit min-cut or the explicit min-cut cost model.
These tests drive both sides over random instances and compare the full
fingerprints.  The state tests check the other half of the kernel
contract: after every run, the incrementally maintained buffers equal a
from-scratch derivation from the returned parts.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hypergraph import Hypergraph
from repro.partition import (
    FREE,
    BalanceConstraint,
    FMBipartitioner,
    FMConfig,
    KWayFMConfig,
    KWayFMRefiner,
    MultiBalanceConstraint,
    ReferenceFMBipartitioner,
    cut_size,
    min_cut_cost_model,
    relative_balance,
    relative_bipartition_balance,
)
from tests.oracles.kwayfm_reference import ReferenceKWayFMRefiner

FIXED_FRACTIONS = (0.0, 0.2, 0.5)


def _fm_fingerprint(result):
    """Everything result-bearing in an FMResult."""
    return (
        result.initial_cut,
        result.solution.cut,
        tuple(result.solution.parts),
        tuple(result.passes),
        tuple(tuple(log) for log in result.move_logs),
    )


def _kway_fingerprint(result):
    return (
        result.initial_cut,
        result.cut,
        tuple(result.parts),
        result.num_passes,
        result.total_moves,
        tuple(result.pass_moves),
        tuple(tuple(log) for log in result.move_logs),
    )


@st.composite
def kernel_instances(draw, area_values=(0.0, 0.5, 1.0, 1.5, 2.0, 3.0)):
    """Random (graph, seed) pairs; areas drawn from ``area_values``
    include non-integer values so the restore paths exercise exact float
    load arithmetic."""
    n = draw(st.integers(min_value=2, max_value=16))
    num_nets = draw(st.integers(min_value=1, max_value=28))
    nets = []
    for _ in range(num_nets):
        size = draw(st.integers(min_value=2, max_value=min(6, n)))
        pins = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        nets.append(pins)
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=5),
            min_size=num_nets,
            max_size=num_nets,
        )
    )
    areas = draw(
        st.lists(st.sampled_from(area_values), min_size=n, max_size=n)
    )
    if sum(areas) == 0:
        areas[0] = 1.0
    seed = draw(st.integers(min_value=0, max_value=2**31))
    graph = Hypergraph(
        nets, num_vertices=n, areas=areas, net_weights=weights
    )
    return graph, seed


def _random_fixture(graph, fraction, num_parts, rng):
    fixture = [FREE] * graph.num_vertices
    if fraction > 0.0:
        for v in range(graph.num_vertices):
            if rng.random() < fraction:
                fixture[v] = rng.randrange(num_parts)
    # Keep at least one movable vertex so a pass has work to do.
    if all(f != FREE for f in fixture):
        fixture[0] = FREE
    return fixture


@pytest.mark.parametrize("policy", ["lifo", "fifo", "clip"])
@pytest.mark.parametrize("fraction", FIXED_FRACTIONS)
@given(instance=kernel_instances())
@settings(max_examples=25, deadline=None)
def test_fm_kernel_matches_reference(policy, fraction, instance):
    """Kernel and reference produce identical move logs, pass records
    and final cuts for every policy and fixed fraction.

    The reference runs under both forms of each of its two parameters:
    the area window as a scalar or a one-resource vector balance, and
    the objective as ``model=None`` or the explicit min-cut model.  All
    four runs must match the kernel."""
    graph, seed = instance
    rng = random.Random(seed)
    fixture = _random_fixture(graph, fraction, 2, rng)
    balance = relative_bipartition_balance(
        graph.total_area, rng.choice([0.1, 0.3, 0.8])
    )
    config = FMConfig(
        policy=policy,
        pass_move_limit_fraction=rng.choice([1.0, 0.5]),
        record_moves=True,
    )
    parts = [rng.randint(0, 1) for _ in range(graph.num_vertices)]

    kernel = FMBipartitioner(
        graph, balance, fixture=fixture, config=config
    )
    want = _fm_fingerprint(kernel.run(list(parts)))
    for reference_balance in (
        balance,
        MultiBalanceConstraint(constraints=[balance]),
    ):
        for model in (None, min_cut_cost_model(graph)):
            reference = ReferenceFMBipartitioner(
                graph,
                reference_balance,
                fixture=fixture,
                config=config,
                model=model,
            )
            assert _fm_fingerprint(reference.run(list(parts))) == want


@given(instance=kernel_instances())
@settings(max_examples=30, deadline=None)
def test_fm_kernel_engine_reuse(instance):
    """A single kernel engine re-run over many starts matches a fresh
    reference every time -- the persistent buffers carry no state across
    runs."""
    graph, seed = instance
    rng = random.Random(seed)
    policy = rng.choice(["lifo", "fifo", "clip"])
    balance = relative_bipartition_balance(graph.total_area, 0.3)
    config = FMConfig(policy=policy, record_moves=True)
    kernel = FMBipartitioner(graph, balance, config=config)
    reference = ReferenceFMBipartitioner(graph, balance, config=config)
    for _ in range(4):
        parts = [rng.randint(0, 1) for _ in range(graph.num_vertices)]
        assert _fm_fingerprint(
            reference.run(list(parts))
        ) == _fm_fingerprint(kernel.run(list(parts)))


@pytest.mark.parametrize("engine", ["fm", "reference", "kway"])
def test_run_with_no_movable_vertex_derives_the_fixture_cut(engine):
    """With every vertex fixed, a run forces the fixture over initial
    parts that disagree with it everywhere, makes no pass, and reports
    the fixture's own cut as both its initial and final cut."""
    k = 3 if engine == "kway" else 2
    graph = _equal_area_graph(random.Random(5), 20, 30)
    fixture = [v % k for v in range(graph.num_vertices)]
    parts = [(f + 1) % k for f in fixture]
    if engine == "kway":
        result = KWayFMRefiner(
            graph, relative_balance(40.0, k, 0.2), fixture=fixture
        ).run(parts)
        got_parts, passes, cut = result.parts, result.num_passes, result.cut
    else:
        cls = FMBipartitioner if engine == "fm" else ReferenceFMBipartitioner
        result = cls(
            graph, relative_bipartition_balance(40.0, 0.2), fixture=fixture
        ).run(parts)
        got_parts = result.solution.parts
        passes, cut = result.num_passes, result.solution.cut
    assert list(got_parts) == fixture
    assert passes == 0
    assert cut_size(graph, fixture) > 0
    assert result.initial_cut == cut == cut_size(graph, fixture)


@pytest.mark.parametrize("fraction", FIXED_FRACTIONS)
@given(instance=kernel_instances())
@settings(max_examples=20, deadline=None)
def test_kway_kernel_matches_reference(fraction, instance):
    """The k-way kernel matches its reference over random instances,
    block counts and fixtures."""
    graph, seed = instance
    rng = random.Random(seed)
    k = rng.choice([2, 3, 4])
    fixture = _random_fixture(graph, fraction, k, rng)
    balance = relative_balance(
        graph.total_area, k, rng.choice([0.2, 0.5])
    )
    config = KWayFMConfig(record_moves=True)
    parts = [rng.randrange(k) for _ in range(graph.num_vertices)]
    pass_seed = rng.getrandbits(32)

    reference = ReferenceKWayFMRefiner(
        graph, balance, fixture=fixture, config=config
    )
    kernel = KWayFMRefiner(
        graph, balance, fixture=fixture, config=config
    )
    assert _kway_fingerprint(
        reference.run(list(parts), seed=pass_seed)
    ) == _kway_fingerprint(kernel.run(list(parts), seed=pass_seed))


def _derived_2way_state(graph, parts, movable):
    """Per-side pin counts, per-side pin-id sums and movable-vertex
    gains of ``parts``, recomputed with plain loops over the nets."""
    num_nets = graph.num_nets
    cnt = ([0] * num_nets, [0] * num_nets)
    ids = ([0] * num_nets, [0] * num_nets)
    for e in range(num_nets):
        for v in graph.net_pins(e):
            cnt[parts[v]][e] += 1
            ids[parts[v]][e] += v
    gain = {v: 0 for v in movable}
    for e in range(num_nets):
        w = graph.net_weights[e]
        for v in graph.net_pins(e):
            if v in gain:
                s = parts[v]
                if cnt[s][e] == 1:
                    gain[v] += w
                if cnt[1 - s][e] == 0:
                    gain[v] -= w
    return cnt, ids, gain


def _assert_2way_state_exact(kernel, graph, parts):
    """The 2-way kernel invariant: ``pair[e]`` is the pin-id sum of each
    two-pin net of positive weight and -1 for every other net; cnt/ids
    are exact for every net with ``pair[e] < 0`` (the kernel keeps no
    counts for the others), and gains are exact for every movable
    vertex."""
    movable = [v for v, f in enumerate(kernel.fixture) if f == FREE]
    cnt, ids, gain = _derived_2way_state(graph, parts, movable)
    pair = []
    for e in range(graph.num_nets):
        pins = graph.net_pins(e)
        two_pin = len(pins) == 2 and graph.net_weights[e] > 0
        pair.append(sum(pins) if two_pin else -1)
    assert kernel._pair == pair
    counted = [e for e in range(graph.num_nets) if pair[e] < 0]
    for buf, want in (
        (kernel._cnt0, cnt[0]),
        (kernel._cnt1, cnt[1]),
        (kernel._ids0, ids[0]),
        (kernel._ids1, ids[1]),
    ):
        assert len(buf) == graph.num_nets
        assert [buf[e] for e in counted] == [want[e] for e in counted]
    assert {v: kernel._gain[v] for v in movable} == gain


@pytest.mark.parametrize("policy", ["lifo", "fifo", "clip"])
@pytest.mark.parametrize("fraction", FIXED_FRACTIONS)
@given(first=kernel_instances(), second=kernel_instances())
@settings(max_examples=10, deadline=None)
def test_fm_kernel_state_matches_derivation(policy, fraction, first, second):
    """After every run -- including runs after ``rebind()`` to another
    graph and back -- the kernel's cnt/ids/gain buffers equal a
    from-scratch derivation from the returned parts, under both pass
    cutoffs and with adaptive stopping on and off."""
    graph, seed = first
    other, other_seed = second
    rng = random.Random(seed)
    fixture = _random_fixture(graph, fraction, 2, rng)
    other_fixture = _random_fixture(
        other, fraction, 2, random.Random(other_seed)
    )
    balance = relative_bipartition_balance(graph.total_area, 0.3)
    for cutoff in (1.0, 0.5):
        for adaptive in (False, True):
            config = FMConfig(
                policy=policy,
                pass_move_limit_fraction=cutoff,
                adaptive_stop=adaptive,
            )
            kernel = FMBipartitioner(
                graph, balance, fixture=fixture, config=config
            )
            for g, fix in (
                (graph, fixture),
                (other, other_fixture),
                (graph, fixture),
            ):
                kernel.rebind(g, fix)
                parts = [rng.randint(0, 1) for _ in range(g.num_vertices)]
                result = kernel.run(parts)
                _assert_2way_state_exact(
                    kernel, g, result.solution.parts
                )


@pytest.mark.parametrize(
    "nets, parts, keeps_more",
    [
        # Pass 0 makes 5 moves and keeps 3: the restore unwinds the
        # 2-move undone suffix backwards.
        ([[0, 1, 3], [0, 5], [1, 3], [1, 5]], [1, 1, 1, 1, 1, 0], True),
        # Pass 0 makes 5 moves and keeps 2: the restore copies the
        # pass-start snapshot back and replays the kept prefix.
        ([[0, 1, 4], [0, 2], [1, 4], [2, 5]], [1, 1, 1, 1, 1, 0], False),
    ],
)
def test_fm_kernel_state_exact_in_both_restore_directions(
    nets, parts, keeps_more
):
    """Both restore directions leave the buffers exact and match the
    reference engine."""
    graph = Hypergraph(nets, num_vertices=6)
    balance = relative_bipartition_balance(graph.total_area, 0.5)
    config = FMConfig(record_moves=True)
    kernel = FMBipartitioner(graph, balance, config=config)
    result = kernel.run(list(parts))
    first = result.passes[0]
    assert 0 < first.best_prefix < first.moves_made
    assert (first.best_prefix > first.wasted_moves) == keeps_more
    _assert_2way_state_exact(kernel, graph, result.solution.parts)
    reference = ReferenceFMBipartitioner(graph, balance, config=config)
    assert _fm_fingerprint(reference.run(list(parts))) == _fm_fingerprint(
        result
    )


@pytest.mark.parametrize("fraction", FIXED_FRACTIONS)
@given(instance=kernel_instances())
@settings(max_examples=20, deadline=None)
def test_kway_kernel_state_matches_derivation(fraction, instance):
    """After every run of a reused k-way refiner, its flat pin-count
    and span buffers equal a from-scratch derivation."""
    graph, seed = instance
    rng = random.Random(seed)
    k = rng.choice([2, 3, 4])
    fixture = _random_fixture(graph, fraction, k, rng)
    balance = relative_balance(graph.total_area, k, rng.choice([0.2, 0.5]))
    kernel = KWayFMRefiner(graph, balance, fixture=fixture)
    for _ in range(3):
        parts = [rng.randrange(k) for _ in range(graph.num_vertices)]
        result = kernel.run(parts, seed=rng.getrandbits(32))
        cnt = [0] * (graph.num_nets * k)
        spans = [0] * graph.num_nets
        for e in range(graph.num_nets):
            for v in graph.net_pins(e):
                cnt[e * k + result.parts[v]] += 1
            spans[e] = sum(1 for p in range(k) if cnt[e * k + p])
        assert list(kernel._cnt) == cnt
        assert list(kernel._spans) == spans


def _equal_area_graph(rng, num_vertices, num_nets):
    """Random 2-6 pin nets over vertices of total area 40, so one
    balance window fits every graph an engine is rebound to."""
    nets = [
        rng.sample(range(num_vertices), rng.randint(2, 6))
        for _ in range(num_nets)
    ]
    weights = [rng.randint(1, 3) for _ in range(num_nets)]
    areas = [40.0 / num_vertices] * num_vertices
    return Hypergraph(
        nets, num_vertices=num_vertices, areas=areas, net_weights=weights
    )


def test_fm_kernel_buffers_follow_rebind_to_smaller_and_larger_graphs():
    """One 2-way engine bound to graph A, rebound to a smaller B (fewer
    nets and vertices) and then to a larger C: the in-place list resize
    truncates and zero-fills every kernel buffer, each run leaves the
    buffers equal to a from-scratch derivation, and each result equals
    a fresh engine's (move logs, pass records, cut and parts)."""
    rng = random.Random(17)
    a, b, c = (
        _equal_area_graph(rng, n, m)
        for n, m in ((40, 60), (20, 30), (80, 120))
    )
    assert b.num_nets < a.num_nets < c.num_nets
    assert b.num_vertices < a.num_vertices < c.num_vertices
    balance = relative_bipartition_balance(40.0, 0.2)
    config = FMConfig(record_moves=True)
    engine = None
    for graph in (a, b, c):
        n = graph.num_vertices
        fixture = [v % 2 if v % 7 == 0 else FREE for v in range(n)]
        parts = [rng.randint(0, 1) for _ in range(n)]
        if engine is None:
            engine = FMBipartitioner(
                graph, balance, fixture=fixture, config=config
            )
        else:
            engine.rebind(graph, fixture)
        result = engine.run(list(parts))
        assert result.total_moves > 0
        for buf in (
            engine._cnt0, engine._cnt1, engine._ids0, engine._ids1,
            engine._snap_cnt0, engine._snap_cnt1,
            engine._snap_ids0, engine._snap_ids1,
        ):
            assert len(buf) == graph.num_nets
        assert len(engine._gain) == len(engine._snap_gain) == n
        _assert_2way_state_exact(engine, graph, result.solution.parts)
        fresh = FMBipartitioner(graph, balance, fixture=fixture, config=config)
        assert _fm_fingerprint(fresh.run(list(parts))) == _fm_fingerprint(
            result
        )


@pytest.mark.parametrize("engine", ["fm", "kway"])
def test_engine_binding_copies_no_csr(engine):
    """Binding either FM engine copies none of the graph's CSR: the
    weights and areas ``flatten_graph`` hands the engine are the graph's
    own stored lists.

    perfbench keeps every placer bisection graph of ``table4-ibm01s``
    alive until it re-verifies the placement, so a per-graph copy made
    at binding would live as long as the graph does."""
    rng = random.Random(3)
    graph = _equal_area_graph(rng, 30, 45)
    _, _, _, _, net_weights, areas = graph.csr_lists()
    if engine == "fm":
        bound = FMBipartitioner(
            graph, relative_bipartition_balance(40.0, 0.2)
        )
    else:
        bound = KWayFMRefiner(graph, relative_balance(40.0, 3, 0.2))
    assert bound._eweight is net_weights and bound._areas is areas


# ---------------------------------------------------------------------------
# The kernel's fast paths: two-pin nets as graph edges and the selection's
# area prefilter.  Each case runs kernel and reference with ``record_moves``
# under all three policies and checks the kernel's state afterwards.

POLICIES = ("lifo", "fifo", "clip")

DECIMAL_AREAS = (0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 1.5)
"""Areas whose float sums round, so loads and window bounds meet only
up to rounding."""


def _assert_kernel_matches_reference(
    graph, balance, fixture, policy, parts, cutoff=1.0
):
    config = FMConfig(
        policy=policy, pass_move_limit_fraction=cutoff, record_moves=True
    )
    kernel = FMBipartitioner(graph, balance, fixture=fixture, config=config)
    result = kernel.run(list(parts))
    reference = ReferenceFMBipartitioner(
        graph, balance, fixture=fixture, config=config
    )
    assert _fm_fingerprint(reference.run(list(parts))) == _fm_fingerprint(
        result
    )
    _assert_2way_state_exact(kernel, graph, result.solution.parts)
    return result


def _forced_parts_and_loads(graph, fixture, parts):
    """``parts`` with fixed vertices on their sides, and its side loads
    summed in vertex order, as the engines sum them."""
    forced = [p if f == FREE else f for p, f in zip(parts, fixture)]
    loads = [0.0, 0.0]
    for v, p in enumerate(forced):
        loads[p] += graph.area(v)
    return forced, loads


@st.composite
def two_pin_instances(draw):
    """Graphs made only of two-pin nets: parallel nets allowed, zero
    weights included."""
    n = draw(st.integers(min_value=2, max_value=14))
    num_nets = draw(st.integers(min_value=1, max_value=30))
    nets = [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=2,
                max_size=2,
                unique=True,
            )
        )
        for _ in range(num_nets)
    ]
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=4),
            min_size=num_nets,
            max_size=num_nets,
        )
    )
    areas = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n
        )
    )
    if sum(areas) == 0:
        areas[0] = 1.0
    seed = draw(st.integers(min_value=0, max_value=2**31))
    graph = Hypergraph(nets, num_vertices=n, areas=areas, net_weights=weights)
    return graph, seed


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("fraction", FIXED_FRACTIONS)
@given(instance=two_pin_instances())
@settings(max_examples=25, deadline=None)
def test_fm_kernel_matches_reference_on_two_pin_graphs(
    policy, fraction, instance
):
    """On graphs of two-pin nets only, every net of positive weight takes
    the kernel's graph-edge path; fixed endpoints (at the larger fixed
    fractions) and zero-weight nets (which take the counted path) are
    included."""
    graph, seed = instance
    rng = random.Random(seed)
    fixture = _random_fixture(graph, fraction, 2, rng)
    balance = relative_bipartition_balance(
        graph.total_area, rng.choice([0.1, 0.3, 0.8])
    )
    parts = [rng.randint(0, 1) for _ in range(graph.num_vertices)]
    _assert_kernel_matches_reference(
        graph, balance, fixture, policy, parts, rng.choice([1.0, 0.5])
    )


@pytest.mark.parametrize("policy", POLICIES)
@given(instance=kernel_instances(area_values=DECIMAL_AREAS))
@settings(max_examples=40, deadline=None)
def test_fm_kernel_matches_reference_with_a_cell_at_the_window_bound(
    policy, instance
):
    """The window's bounds sit exactly where moving one random movable
    cell puts its side (load minus area, and the other side's load plus
    area, in float), so that cell lands on the area prefilter's bound."""
    graph, seed = instance
    rng = random.Random(seed)
    fixture = _random_fixture(graph, 0.2, 2, rng)
    parts, loads = _forced_parts_and_loads(
        graph, fixture, [rng.randint(0, 1) for _ in range(graph.num_vertices)]
    )
    v = rng.choice([u for u, f in enumerate(fixture) if f == FREE])
    s, a = parts[v], graph.area(v)
    min_loads = [0.0, 0.0]
    max_loads = [0.0, 0.0]
    min_loads[s] = loads[s] - a
    max_loads[s] = loads[s] + rng.choice([0.0, a])
    min_loads[1 - s] = rng.choice([0.0, loads[1 - s]])
    max_loads[1 - s] = loads[1 - s] + a
    balance = BalanceConstraint(min_loads=min_loads, max_loads=max_loads)
    _assert_kernel_matches_reference(graph, balance, fixture, policy, parts)


@pytest.mark.parametrize("policy", POLICIES)
def test_area_prefilter_admits_a_cell_landing_exactly_on_the_min_load(
    policy,
):
    """Moving vertex 0 or 1 (area 0.1) leaves side 0 exactly at its min
    load, but in float ``load - min_load`` rounds below 0.1: the
    prefilter's margin must keep that move admissible."""
    graph = Hypergraph(
        [[0, 3], [1, 3], [2, 3]],
        num_vertices=4,
        areas=[0.1, 0.1, 0.2, 1.0],
    )
    fixture = [FREE, FREE, FREE, 1]
    parts, loads = _forced_parts_and_loads(graph, fixture, [0, 0, 0, 1])
    min_load = loads[0] - 0.1
    assert loads[0] - min_load < 0.1
    balance = BalanceConstraint(
        min_loads=(min_load, 0.0), max_loads=(1.0, 2.0)
    )
    result = _assert_kernel_matches_reference(
        graph, balance, fixture, policy, parts
    )
    assert result.move_logs[0][0] in (0, 1)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("fraction", FIXED_FRACTIONS)
@given(instance=kernel_instances(area_values=DECIMAL_AREAS))
@settings(max_examples=25, deadline=None)
def test_fm_kernel_matches_reference_in_windows_narrower_than_a_cell(
    policy, fraction, instance
):
    """Windows narrower than the smallest movable area: every move
    violates them, so selection relies on the escape hatch."""
    graph, seed = instance
    rng = random.Random(seed)
    fixture = _random_fixture(graph, fraction, 2, rng)
    quantum = min(
        (graph.area(v) for v, f in enumerate(fixture)
         if f == FREE and graph.area(v) > 0),
        default=0.0,
    )
    half = graph.total_area / 2.0
    width = quantum * rng.choice([0.0, 0.25, 0.9])
    balance = BalanceConstraint(
        min_loads=(half - width / 2.0,) * 2,
        max_loads=(half + width / 2.0,) * 2,
    )
    parts = [rng.randint(0, 1) for _ in range(graph.num_vertices)]
    _assert_kernel_matches_reference(graph, balance, fixture, policy, parts)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("fraction", FIXED_FRACTIONS)
@given(instance=kernel_instances(area_values=DECIMAL_AREAS))
@settings(max_examples=25, deadline=None)
def test_fm_kernel_matches_reference_from_infeasible_starts(
    policy, fraction, instance
):
    """Starts with every movable vertex on one side violate the window,
    so selection begins with a positive violation to reduce."""
    graph, seed = instance
    rng = random.Random(seed)
    fixture = _random_fixture(graph, fraction, 2, rng)
    balance = relative_bipartition_balance(
        graph.total_area, rng.choice([0.02, 0.1, 0.3])
    )
    parts, loads = _forced_parts_and_loads(
        graph, fixture, [rng.randint(0, 1)] * graph.num_vertices
    )
    assume(not balance.is_feasible(loads))
    _assert_kernel_matches_reference(graph, balance, fixture, policy, parts)
