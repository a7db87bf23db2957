"""Adaptive FM pass termination (the random-walk stopping rule).

The rule may end a pass early, but the end-of-pass rollback to the best
prefix is unchanged, so every result must stay exact: cut recomputed
from scratch, fixed vertices in place, never worse than the start.
``MultilevelConfig(adaptive_stop=False)`` must still reproduce the
exhaustive engine bit for bit.
"""

import hashlib
import json
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regimes import find_good_solution
from repro.experiments.circuits import load_instance
from repro.hypergraph import Hypergraph
from repro.partition import (
    FREE,
    FMBipartitioner,
    FMConfig,
    MultilevelBipartitioner,
    MultilevelConfig,
    block_loads,
    cut_size,
    random_balanced_bipartition,
    relative_bipartition_balance,
    respect_fixture,
)
from repro.partition import fm as fm_module
from repro.partition.multistart import multilevel_multistart
from repro.runtime.observe import TraceRecorder
from repro.runtime.observe.recorder import use

ALPHAS = (1.0, 3.0, 10.0, 30.0, 50.0, 100.0)


def _random_sides(graph, rng, fixture=None):
    """A uniformly random 2-way start that keeps ``fixture``, with no
    regard for balance: the worst case the FM engine must repair."""
    if fixture is None:
        fixture = [FREE] * graph.num_vertices
    return [f if f != FREE else rng.randrange(2) for f in fixture]


@st.composite
def adaptive_instances(draw):
    """Random (graph, fixture, start) triples large enough for the rule
    to fire (it needs more than ln(movable) steps without improvement)."""
    n = draw(st.integers(min_value=4, max_value=48))
    num_nets = draw(st.integers(min_value=n, max_value=3 * n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    nets = [
        rng.sample(range(n), rng.choice((2, 2, 2, 3, 4)))
        for _ in range(num_nets)
    ]
    weights = [rng.choice((1, 1, 2, 3)) for _ in range(num_nets)]
    areas = [rng.choice((0.0, 1.0, 1.0, 2.0, 3.0)) for _ in range(n)]
    if sum(areas) == 0:
        areas[0] = 1.0
    fixed_frac = draw(st.sampled_from((0.0, 0.1, 0.3)))
    fixture = [
        rng.randrange(2) if rng.random() < fixed_frac else FREE
        for _ in range(n)
    ]
    if all(f != FREE for f in fixture):
        fixture[0] = FREE
    graph = Hypergraph(nets, num_vertices=n, areas=areas, net_weights=weights)
    tolerance = draw(st.sampled_from((0.05, 0.3)))
    balance = relative_bipartition_balance(graph.total_area, tolerance)
    if draw(st.booleans()):
        start = random_balanced_bipartition(
            graph, balance, fixture=fixture, rng=rng
        )
    else:
        start = _random_sides(graph, rng, fixture)
    policy = draw(st.sampled_from(["lifo", "fifo", "clip"]))
    alpha = draw(st.sampled_from(ALPHAS))
    return graph, balance, fixture, start, policy, alpha


@given(adaptive_instances())
@settings(max_examples=150, deadline=None)
def test_adaptive_fm_results_stay_exact(instance):
    graph, balance, fixture, start, policy, alpha = instance
    engine = FMBipartitioner(
        graph,
        balance,
        fixture=fixture,
        config=FMConfig(policy=policy, adaptive_stop=True),
    )
    with mock.patch.object(fm_module, "ADAPTIVE_STOP_ALPHA", alpha):
        result = engine.run(start)

    forced = [f if f != FREE else p for p, f in zip(start, fixture)]
    parts = result.solution.parts
    assert result.solution.cut == cut_size(graph, parts)
    assert respect_fixture(parts, fixture)
    # FM trades cut for balance only while repairing an infeasible
    # start; otherwise the cut never rises.
    before = balance.violation(block_loads(graph, forced, 2))
    after = balance.violation(block_loads(graph, parts, 2))
    assert after <= before
    if after == before:
        assert result.solution.cut <= cut_size(graph, forced)
    for record in result.passes:
        assert 0 <= record.best_prefix <= record.moves_made <= record.movable


def _tiny01():
    circuit, balance = load_instance("tiny01")
    return circuit.graph, balance


def _flat_runs(adaptive):
    graph, balance = _tiny01()
    engine = FMBipartitioner(
        graph, balance, config=FMConfig(policy="clip", adaptive_stop=adaptive)
    )
    return [
        engine.run(_random_sides(graph, random.Random(seed)))
        for seed in range(4)
    ]


class TestFlatRule:
    def test_off_by_default(self):
        assert FMConfig().adaptive_stop is False

    def test_rule_ends_passes_and_saves_moves(self):
        exhaustive = _flat_runs(adaptive=False)
        adaptive = _flat_runs(adaptive=True)
        stopped = [
            p for r in adaptive for p in r.passes if p.adaptive_stopped
        ]
        assert stopped
        assert all(p.moves_made < p.movable for p in stopped)
        assert not any(
            p.adaptive_stopped for r in exhaustive for p in r.passes
        )
        assert sum(r.total_moves for r in adaptive) < sum(
            r.total_moves for r in exhaustive
        )

    def test_adaptive_stops_counter_only_when_nonzero(self):
        graph, balance = _tiny01()
        start = _random_sides(graph, random.Random(3))
        counters = {}
        for adaptive in (False, True):
            recorder = TraceRecorder()
            engine = FMBipartitioner(
                graph,
                balance,
                config=FMConfig(policy="clip", adaptive_stop=adaptive),
            )
            with use(recorder):
                result = engine.run(list(start))
            counters[adaptive] = dict(recorder.counters)
            assert counters[adaptive].get("fm.adaptive_stops", 0) == sum(
                p.adaptive_stopped for p in result.passes
            )
        assert "fm.adaptive_stops" not in counters[False]
        assert counters[True]["fm.adaptive_stops"] > 0


# multilevel_multistart(tiny01, num_starts=6, seed=11) cuts and a SHA-256
# of json.dumps([(cut, parts), ...]), recorded from the exhaustive engine
# before the adaptive rule existed; the fixed instance fixes every ninth
# vertex v to side v % 2.
EXHAUSTIVE_FINGERPRINT = {
    "free": (
        [76, 72, 82, 70, 85, 74],
        "2293918dea88c87e23a6e0188c0a5ef3a05d8f198f584c116486bf07b3acad50",
    ),
    "fixed": (
        [94, 97, 101, 98, 95, 99],
        "31cf68ec5f3ca237780df850d2f64f087c698454bbe8f0e38ed89d8dd7f6c078",
    ),
}


def _fingerprint(config):
    graph, balance = _tiny01()
    fixture = [
        v % 2 if v % 9 == 0 else FREE for v in range(graph.num_vertices)
    ]
    out = {}
    for name, fx in (("free", None), ("fixed", fixture)):
        batch = multilevel_multistart(
            graph, balance, fixture=fx, config=config, num_starts=6, seed=11
        )
        rows = [(s.cut, list(s.parts)) for s in batch.starts]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        out[name] = ([cut for cut, _ in rows], digest)
    return out


class TestMultilevelDefault:
    def test_on_by_default(self):
        assert MultilevelConfig().adaptive_stop is True

    def test_exhaustive_config_reproduces_the_exhaustive_engine(self):
        config = MultilevelConfig(adaptive_stop=False)
        assert _fingerprint(config) == EXHAUSTIVE_FINGERPRINT

    def test_every_stage_uses_the_rule(self):
        # Initial partitioning, refinement and V-cycles all draw their
        # FM engines from the one depth-keyed pool.
        graph, balance = _tiny01()
        engine = MultilevelBipartitioner(
            graph, balance=balance, config=MultilevelConfig(vcycles=1)
        )
        result = engine.run(seed=2)
        assert result.vcycles_run == 1
        assert result.solution.verify_cut(graph)
        assert engine._engine_pool
        for pooled in engine._engine_pool.values():
            assert pooled.config.adaptive_stop

    def test_infeasible_result_is_counted(self):
        # Two heavy vertices fixed on side 0 overload it beyond any
        # 10% window, so every start returns an infeasible solution.
        graph = Hypergraph(
            [[i, i + 1] for i in range(11)],
            num_vertices=12,
            areas=[10.0, 10.0] + [1.0] * 10,
        )
        balance = relative_bipartition_balance(graph.total_area, 0.1)
        fixture = [0, 0] + [FREE] * 10
        engine = MultilevelBipartitioner(
            graph, balance=balance, fixture=fixture,
            config=MultilevelConfig(coarsest_size=4),
        )
        recorder = TraceRecorder()
        with use(recorder):
            engine.run(seed=0)
        assert recorder.counters["multilevel.infeasible"] == 1

    def test_feasible_result_emits_no_infeasible_counter(self):
        graph, balance = _tiny01()
        recorder = TraceRecorder()
        with use(recorder):
            MultilevelBipartitioner(graph, balance=balance).run(seed=0)
        assert "multilevel.infeasible" not in recorder.counters


def test_reference_search_stays_exhaustive():
    # find_good_solution anchors the good regime of Figs. 1-2 and Tables
    # II-III, so it runs the exhaustive engine whatever the default.
    # alpha = 1 makes the adaptive default differ on tiny01.
    graph, balance = _tiny01()
    exhaustive = multilevel_multistart(
        graph, balance, config=MultilevelConfig(adaptive_stop=False),
        num_starts=4, seed=5,
    )
    with mock.patch.object(fm_module, "ADAPTIVE_STOP_ALPHA", 1.0):
        good = find_good_solution(graph, balance, starts=4, seed=5)
        adaptive = multilevel_multistart(graph, balance, num_starts=4, seed=5)
    best = exhaustive.best()
    assert (good.cut, good.parts) == (best.cut, list(best.parts))
    assert [s.cut for s in adaptive.starts] != [
        s.cut for s in exhaustive.starts
    ]
