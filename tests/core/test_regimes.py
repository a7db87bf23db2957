"""Unit tests for fixed-vertex regimes and schedules."""

import pytest

from repro.core import (
    PAPER_PERCENTS,
    find_good_solution,
    good_fixture,
    make_schedule,
    pad_schedule,
    rand_fixture,
    regime_fixture,
)
from repro.hypergraph import CircuitSpec, generate_circuit
from repro.partition import (
    FREE,
    cut_size,
    relative_balance,
    relative_bipartition_balance,
)


def _num_fixed(fixture):
    return sum(1 for f in fixture if f != FREE)


@pytest.fixture(scope="module")
def circuit():
    return generate_circuit(CircuitSpec(num_cells=200, name="r200"), seed=61)


class TestSchedule:
    def test_counts(self, circuit):
        schedule = make_schedule(circuit.graph, seed=1)
        n = circuit.graph.num_vertices
        assert schedule.count_at(0.0) == 0
        assert schedule.count_at(50.0) == round(0.5 * n)
        assert schedule.count_at(0.1) == round(0.001 * n)

    def test_incremental_nesting(self, circuit):
        schedule = make_schedule(circuit.graph, seed=2)
        previous = set()
        for percent in PAPER_PERCENTS:
            current = set(schedule.fixed_at(percent))
            assert previous <= current
            previous = current

    def test_out_of_range_percent_rejected(self, circuit):
        schedule = make_schedule(circuit.graph, seed=3)
        with pytest.raises(ValueError):
            schedule.count_at(-1.0)
        with pytest.raises(ValueError):
            schedule.count_at(101.0)

    def test_undeclared_percent_accepted(self, circuit):
        schedule = make_schedule(circuit.graph, seed=3)
        n = circuit.graph.num_vertices
        assert schedule.count_at(25.0) == round(0.25 * n)

    def test_deterministic(self, circuit):
        a = make_schedule(circuit.graph, seed=4)
        b = make_schedule(circuit.graph, seed=4)
        assert a.order == b.order

    def test_pad_schedule_limited_by_pads(self, circuit):
        schedule = pad_schedule(
            circuit.graph, circuit.pad_vertices, seed=5
        )
        fixed = schedule.fixed_at(50.0)
        assert set(fixed) <= set(circuit.pad_vertices)
        assert len(fixed) == len(circuit.pad_vertices)


class TestFixtures:
    def test_good_fixture_consistent(self, circuit):
        schedule = make_schedule(circuit.graph, seed=6)
        reference = [v % 2 for v in range(circuit.graph.num_vertices)]
        fixture = good_fixture(schedule, 20.0, reference)
        assert _num_fixed(fixture) == schedule.count_at(20.0)
        for v, f in enumerate(fixture):
            if f != FREE:
                assert f == reference[v]

    def test_rand_fixture_incremental_sides(self, circuit):
        schedule = make_schedule(circuit.graph, seed=7)
        f10 = rand_fixture(schedule, 10.0, seed=9)
        f30 = rand_fixture(schedule, 30.0, seed=9)
        for v in schedule.fixed_at(10.0):
            assert f10[v] == f30[v]

    def test_rand_fixture_uses_both_sides(self, circuit):
        schedule = make_schedule(circuit.graph, seed=8)
        fixture = rand_fixture(schedule, 50.0, seed=10)
        assert 0 in fixture and 1 in fixture

    def test_regime_dispatch(self, circuit):
        schedule = make_schedule(circuit.graph, seed=11)
        reference = [0] * circuit.graph.num_vertices
        good = regime_fixture("good", schedule, 10.0, reference)
        rand = regime_fixture("rand", schedule, 10.0, seed=1)
        assert _num_fixed(good) == _num_fixed(rand)
        with pytest.raises(ValueError):
            regime_fixture("bad", schedule, 10.0)
        with pytest.raises(ValueError):
            regime_fixture("good", schedule, 10.0)  # missing reference

    def test_zero_percent_all_free(self, circuit):
        schedule = make_schedule(circuit.graph, seed=12)
        fixture = rand_fixture(schedule, 0.0, seed=0)
        assert _num_fixed(fixture) == 0


class TestFindGoodSolution:
    def test_returns_verified_cut(self, circuit):
        balance = relative_bipartition_balance(
            circuit.graph.total_area, 0.02
        )
        good = find_good_solution(circuit.graph, balance, starts=2, seed=1)
        assert good.verify_cut(circuit.graph)

    def test_more_starts_never_worse(self, circuit):
        balance = relative_bipartition_balance(
            circuit.graph.total_area, 0.02
        )
        one = find_good_solution(circuit.graph, balance, starts=1, seed=2)
        four = find_good_solution(circuit.graph, balance, starts=4, seed=2)
        assert four.cut <= one.cut

    def test_kway_balance_returns_block_ids(self, circuit):
        balance = relative_balance(circuit.graph.total_area, 3, 0.1)
        good = find_good_solution(circuit.graph, balance, starts=2, seed=3)
        assert len(good.parts) == circuit.graph.num_vertices
        assert set(good.parts) <= set(range(3))
        assert cut_size(circuit.graph, good.parts) == good.cut
