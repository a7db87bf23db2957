"""Balance constraints for partitioning.

The paper's experiments use a 2% deviation from exact bisection on actual
cell areas.  Section IV additionally proposes benchmark formats with
*absolute* capacity semantics and *multi-balanced* problems where every
vertex carries ``k > 1`` resources (area, pin count, power, ...), each of
which must be balanced.  All three styles are modelled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class BalanceConstraint:
    """Per-block load windows for one resource.

    ``min_loads[i] <= load(block i) <= max_loads[i]`` must hold for a
    solution to be feasible.
    """

    min_loads: Sequence[float]
    max_loads: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.min_loads) != len(self.max_loads):
            raise ValueError("min/max load vectors differ in length")
        for i, (lo, hi) in enumerate(zip(self.min_loads, self.max_loads)):
            if lo > hi:
                raise ValueError(
                    f"block {i}: min load {lo} exceeds max load {hi}"
                )
            if hi < 0:
                raise ValueError(f"block {i}: negative max load {hi}")

    @property
    def num_parts(self) -> int:
        """Number of blocks."""
        return len(self.min_loads)

    def is_feasible(self, loads: Sequence[float]) -> bool:
        """Whether ``loads`` satisfies every block window."""
        return all(
            lo <= load <= hi
            for lo, load, hi in zip(self.min_loads, loads, self.max_loads)
        )

    def violation(self, loads: Sequence[float]) -> float:
        """Total amount by which ``loads`` exceeds the windows (0 when
        feasible); a useful objective for balance-repair moves."""
        total = 0.0
        for lo, load, hi in zip(self.min_loads, loads, self.max_loads):
            if load < lo:
                total += lo - load
            elif load > hi:
                total += load - hi
        return total

    def allows_move(
        self,
        loads: Sequence[float],
        weight: float,
        source: int,
        target: int,
    ) -> bool:
        """Whether moving ``weight`` from block ``source`` to ``target``
        keeps (or restores) feasibility for those two blocks.

        A move is also allowed when it strictly reduces the violation of
        an infeasible block pair -- FM needs this to escape an unbalanced
        initial solution.
        """
        if source == target:
            return True
        new_src = loads[source] - weight
        new_tgt = loads[target] + weight
        src_ok = self.min_loads[source] <= new_src <= self.max_loads[source]
        tgt_ok = self.min_loads[target] <= new_tgt <= self.max_loads[target]
        if src_ok and tgt_ok:
            return True
        before = self._pair_violation(loads[source], source) + (
            self._pair_violation(loads[target], target)
        )
        after = self._pair_violation(new_src, source) + (
            self._pair_violation(new_tgt, target)
        )
        return after < before

    def _pair_violation(self, load: float, block: int) -> float:
        lo, hi = self.min_loads[block], self.max_loads[block]
        if load < lo:
            return lo - load
        if load > hi:
            return load - hi
        return 0.0


def relative_bipartition_balance(
    total: float, tolerance: float
) -> BalanceConstraint:
    """The paper's constraint: each side within ``tolerance`` (e.g. 0.02)
    of exact bisection of ``total``."""
    if not 0 <= tolerance < 1:
        raise ValueError("tolerance must lie in [0, 1)")
    half = total / 2.0
    slack = half * tolerance
    return BalanceConstraint(
        min_loads=(half - slack, half - slack),
        max_loads=(half + slack, half + slack),
    )


def relative_balance(
    total: float, num_parts: int, tolerance: float
) -> BalanceConstraint:
    """Equal targets for ``num_parts`` blocks with relative tolerance."""
    if num_parts < 1:
        raise ValueError("need at least one block")
    if not 0 <= tolerance < 1:
        raise ValueError("tolerance must lie in [0, 1)")
    share = total / num_parts
    slack = share * tolerance
    return BalanceConstraint(
        min_loads=[share - slack] * num_parts,
        max_loads=[share + slack] * num_parts,
    )


@dataclass(frozen=True)
class MultiBalanceConstraint:
    """One :class:`BalanceConstraint` per resource type.

    The paper's proposed multi-area benchmarks require each of ``k``
    resources (area, pins, power, ...) to be evenly distributed, so a
    solution is feasible only when *every* per-resource constraint holds.
    """

    constraints: Sequence[BalanceConstraint]

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ValueError("need at least one resource constraint")
        parts = {c.num_parts for c in self.constraints}
        if len(parts) != 1:
            raise ValueError(
                "all resource constraints must cover the same blocks"
            )

    @property
    def num_parts(self) -> int:
        """Number of blocks."""
        return self.constraints[0].num_parts

    @property
    def num_resources(self) -> int:
        """Number of balanced resource types."""
        return len(self.constraints)

    def is_feasible(self, loads_per_resource: Sequence[Sequence[float]]) -> bool:
        """``loads_per_resource[r][i]`` is block i's load of resource r."""
        if len(loads_per_resource) != len(self.constraints):
            raise ValueError("loads/constraints resource-count mismatch")
        return all(
            c.is_feasible(loads)
            for c, loads in zip(self.constraints, loads_per_resource)
        )

    def violation(
        self, loads_per_resource: Sequence[Sequence[float]]
    ) -> float:
        """Window violation summed over every resource (0 when
        feasible)."""
        return sum(
            c.violation(loads)
            for c, loads in zip(self.constraints, loads_per_resource)
        )

    def allows_move(
        self,
        loads_per_resource: Sequence[List[float]],
        weights: Sequence[float],
        source: int,
        target: int,
    ) -> bool:
        """Move is allowed only if allowed for every resource."""
        return all(
            c.allows_move(loads, w, source, target)
            for c, loads, w in zip(
                self.constraints, loads_per_resource, weights
            )
        )
