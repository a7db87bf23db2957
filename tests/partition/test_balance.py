"""Unit tests for balance constraints."""

import pytest

from repro.partition import (
    BalanceConstraint,
    MultiBalanceConstraint,
    relative_balance,
    relative_bipartition_balance,
)


class TestBalanceConstraint:
    def test_feasibility(self):
        c = BalanceConstraint(min_loads=[4, 4], max_loads=[6, 6])
        assert c.is_feasible([5, 5])
        assert c.is_feasible([4, 6])
        assert not c.is_feasible([3, 7])

    def test_violation(self):
        c = BalanceConstraint(min_loads=[4, 4], max_loads=[6, 6])
        assert c.violation([5, 5]) == 0.0
        assert c.violation([3, 7]) == pytest.approx(2.0)
        assert c.violation([2, 8]) == pytest.approx(4.0)

    def test_num_parts(self):
        c = BalanceConstraint(min_loads=[0, 0, 0], max_loads=[1, 2, 3])
        assert c.num_parts == 3

    def test_invalid_windows(self):
        with pytest.raises(ValueError):
            BalanceConstraint(min_loads=[5], max_loads=[4])
        with pytest.raises(ValueError):
            BalanceConstraint(min_loads=[0, 0], max_loads=[1])
        with pytest.raises(ValueError):
            BalanceConstraint(min_loads=[-2], max_loads=[-1])

    def test_allows_move_basic(self):
        c = BalanceConstraint(min_loads=[4, 4], max_loads=[6, 6])
        loads = [5.0, 5.0]
        assert c.allows_move(loads, 1.0, 0, 1)
        assert not c.allows_move(loads, 2.0, 0, 1)  # 3/7 infeasible

    def test_allows_move_repairs_infeasible(self):
        c = BalanceConstraint(min_loads=[4, 4], max_loads=[6, 6])
        loads = [8.0, 2.0]  # violation 4
        # Moving 2.0 from 0 to 1 -> [6, 4]: feasible, allowed.
        assert c.allows_move(loads, 2.0, 0, 1)
        # Moving 1.0 -> [7, 3]: still infeasible but strictly better.
        assert c.allows_move(loads, 1.0, 0, 1)
        # Moving the wrong way is rejected.
        assert not c.allows_move(loads, 1.0, 1, 0)

    def test_allows_move_same_block(self):
        c = BalanceConstraint(min_loads=[0], max_loads=[1])
        assert c.allows_move([5.0], 3.0, 0, 0)


class TestFactories:
    def test_relative_bipartition(self):
        c = relative_bipartition_balance(100.0, 0.02)
        assert c.min_loads[0] == pytest.approx(49.0)
        assert c.max_loads[1] == pytest.approx(51.0)

    def test_relative_bipartition_bad_tolerance(self):
        with pytest.raises(ValueError):
            relative_bipartition_balance(100.0, 1.5)

    def test_relative_kway(self):
        c = relative_balance(90.0, 3, 0.1)
        assert c.num_parts == 3
        assert c.min_loads[2] == pytest.approx(27.0)
        assert c.max_loads[0] == pytest.approx(33.0)

    def test_relative_kway_bad_parts(self):
        with pytest.raises(ValueError):
            relative_balance(10.0, 0, 0.1)


class TestMultiBalance:
    def _multi(self):
        area = BalanceConstraint(min_loads=[4, 4], max_loads=[6, 6])
        power = BalanceConstraint(min_loads=[0, 0], max_loads=[10, 10])
        return MultiBalanceConstraint(constraints=[area, power])

    def test_counts(self):
        m = self._multi()
        assert m.num_parts == 2
        assert m.num_resources == 2

    def test_feasible_requires_all(self):
        m = self._multi()
        assert m.is_feasible([[5, 5], [9, 9]])
        assert not m.is_feasible([[5, 5], [11, 9]])
        assert not m.is_feasible([[3, 7], [9, 9]])

    def test_resource_count_mismatch(self):
        m = self._multi()
        with pytest.raises(ValueError):
            m.is_feasible([[5, 5]])

    def test_allows_move_requires_all(self):
        m = self._multi()
        loads = [[5.0, 5.0], [10.0, 0.0]]
        # Area move of 1.0 fine; power move of 1.0 repairs nothing but
        # stays feasible (10 -> 9, 0 -> 1).
        assert m.allows_move(loads, [1.0, 1.0], 0, 1)
        # An area move of 2.0 breaks resource 0 even if power is fine.
        assert not m.allows_move(loads, [2.0, 0.0], 0, 1)

    def test_mismatched_parts_rejected(self):
        a = BalanceConstraint(min_loads=[0], max_loads=[1])
        b = BalanceConstraint(min_loads=[0, 0], max_loads=[1, 1])
        with pytest.raises(ValueError):
            MultiBalanceConstraint(constraints=[a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultiBalanceConstraint(constraints=[])
