"""Pass-cutoff heuristic study (Table III).

Section III's proposal: after the first pass, cut every FM pass off once
50% / 25% / 10% / 5% of the movable vertices have moved.  Table III
reports average cut (average CPU seconds) for single LIFO-FM starts per
(cutoff, fixed-percentage) cell.  The expected shape: cutoffs hurt cut
quality without terminals, are harmless with >= 20% terminals, and cut
runtime everywhere.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.regimes import (
    find_good_solution,
    make_schedule,
    regime_fixture,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.fm import FMConfig
from repro.partition.multistart import FlatFMStartTask
from repro.runtime import Quarantined, parallel_map

PAPER_CUTOFFS = (1.0, 0.5, 0.25, 0.10, 0.05)
"""Move-limit fractions: 1.0 is the uncut baseline column."""


@dataclass(frozen=True)
class CutoffCell:
    """One (percent, cutoff) cell: avg cut, wall and CPU seconds.

    ``avg_seconds`` is per-run wall clock of the FM run itself;
    ``avg_cpu_seconds`` is per-run ``time.process_time``, which is what
    the table reports (it stays meaningful when runs execute in a pool).
    """

    percent: float
    cutoff: float
    avg_cut: float
    avg_seconds: float
    avg_moves: float
    avg_cpu_seconds: float = 0.0

    def format_cell(self) -> str:
        """Paper-style "cut (CPU seconds)" cell."""
        return f"{self.avg_cut:8.1f} ({self.avg_cpu_seconds:6.3f}s)"


class _CutoffRunTask(FlatFMStartTask):
    """One LIFO-FM run at a fixed cutoff per init seed (picklable).

    The initial solution is reconstructed inside the worker from the
    init seed; seeds are shared across cutoff columns, so columns stay
    paired samples exactly as in the serial protocol.  Timing covers
    only ``engine.run`` -- construction of the initial partition is
    protocol overhead, not part of the measured heuristic.
    """

    def __init__(
        self,
        graph: Hypergraph,
        balance: BalanceConstraint,
        fixture: Sequence[int],
        cutoff: float,
    ) -> None:
        super().__init__(
            graph,
            balance,
            fixture,
            FMConfig(policy="lifo", pass_move_limit_fraction=cutoff),
        )

    def __call__(self, init_seed: int):
        engine = self.engine  # built once, outside the timed region
        init = self.initial(init_seed)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        result = engine.run(init)
        seconds = time.perf_counter() - t0
        cpu_seconds = time.process_time() - cpu0
        return (result.solution.cut, seconds, cpu_seconds, result.total_moves)


@dataclass
class CutoffStudy:
    """Table III for one circuit."""

    circuit_name: str
    regime: str
    cutoffs: Sequence[float]
    percents: Sequence[float]
    cells: List[CutoffCell] = field(default_factory=list)

    def cell(self, percent: float, cutoff: float) -> CutoffCell:
        """Look up one table cell."""
        for c in self.cells:
            if c.percent == percent and c.cutoff == cutoff:
                return c
        raise KeyError((percent, cutoff))

    def format_table(self) -> str:
        """Text rendering: one row per fixed%, one column per cutoff."""
        lines = [
            f"Pass-cutoff study: {self.circuit_name} "
            f"({self.regime} regime); cells are avg cut (avg CPU)"
        ]
        header = f"{'fixed%':>7s}" + "".join(
            f" | {'no cutoff' if c >= 1.0 else f'{c:.0%} moves':>18s}"
            for c in self.cutoffs
        )
        lines.append(header)
        for percent in self.percents:
            row = [f"{percent:>7.1f}"]
            for cutoff in self.cutoffs:
                row.append(f" | {self.cell(percent, cutoff).format_cell()}")
            lines.append("".join(row))
        return "\n".join(lines)


class _CutoffGridTask:
    """Every run of one study: item ``(percent_index, cutoff_index,
    init_seed)`` (picklable).

    Ships the graph, balance, per-percent fixtures and cutoffs to each
    worker once.  The :class:`_CutoffRunTask` of the last cell a process
    ran is cached, so a run of items from one cell builds its FM engine
    once; the cache never crosses the pickle boundary.
    """

    def __init__(
        self,
        graph: Hypergraph,
        balance: BalanceConstraint,
        fixtures: Sequence[Sequence[int]],
        cutoffs: Sequence[float],
    ) -> None:
        self.graph = graph
        self.balance = balance
        self.fixtures = [list(f) for f in fixtures]
        self.cutoffs = tuple(cutoffs)
        self._cell: Optional[Tuple[int, int]] = None
        self._run: Optional[_CutoffRunTask] = None

    def __getstate__(self):
        return (self.graph, self.balance, self.fixtures, self.cutoffs)

    def __setstate__(self, state):
        self.graph, self.balance, self.fixtures, self.cutoffs = state
        self._cell = None
        self._run = None

    def __call__(self, item: Tuple[int, int, int]):
        p, c, init_seed = item
        if self._cell != (p, c):
            self._run = _CutoffRunTask(
                self.graph, self.balance, self.fixtures[p], self.cutoffs[c]
            )
            self._cell = (p, c)
        return self._run(init_seed)


def run_cutoff_study(
    graph: Hypergraph,
    balance: BalanceConstraint,
    circuit_name: str = "circuit",
    percents: Sequence[float] = (0.0, 10.0, 20.0, 30.0),
    cutoffs: Sequence[float] = PAPER_CUTOFFS,
    regime: str = "good",
    runs: int = 10,
    seed: int = 0,
    jobs: int = 1,
    policy=None,
    journal=None,
) -> CutoffStudy:
    """Run Table III's measurement (single-start LIFO FM per run).

    All cutoffs share the same per-run initial solutions so the columns
    are paired samples -- differences come from the cutoff alone.
    The whole ``percents x cutoffs x runs`` grid is one ``parallel_map``
    (after the good regime's reference search), submitted heaviest cell
    first: uncut columns first, then fewest fixed vertices, so the
    longest runs do not end the map on an idle worker.  ``jobs > 1``
    fans it over a process pool; cuts and moves are identical to the
    serial run.

    ``policy`` (an :class:`repro.runtime.ExecutionPolicy`) and ``journal``
    (a :class:`repro.runtime.CheckpointJournal` or namespace view) opt
    into the fault-tolerant runtime; quarantined runs are dropped from
    the cell averages rather than aborting the table.
    """
    rng = random.Random(seed)
    schedule = make_schedule(graph, seed=rng.getrandbits(32))
    good_solution = None
    if regime == "good":
        good_solution = find_good_solution(
            graph, balance, seed=rng.getrandbits(32), jobs=jobs,
            policy=policy,
            checkpoint=(
                journal.batch("reference") if journal is not None else None
            ),
        ).parts
    rand_fix_seed = rng.getrandbits(32)

    fixtures = []
    grid: List[Tuple[int, int, int]] = []
    for p, percent in enumerate(percents):
        fixtures.append(
            regime_fixture(
                regime,
                schedule,
                percent,
                good_solution=good_solution,
                seed=rand_fix_seed,
            )
        )
        init_seeds = [rng.getrandbits(32) for _ in range(runs)]
        grid.extend((p, c, s) for c in range(len(cutoffs)) for s in init_seeds)

    order = sorted(
        range(len(grid)),
        key=lambda i: (-cutoffs[grid[i][1]], percents[grid[i][0]]),
    )
    outcomes = parallel_map(
        _CutoffGridTask(graph, balance, fixtures, cutoffs),
        [grid[i] for i in order],
        jobs=jobs,
        policy=policy,
        checkpoint=journal.batch("cutoff") if journal is not None else None,
    )
    by_run: List[object] = [None] * len(grid)
    for i, outcome in zip(order, outcomes):
        by_run[i] = outcome

    study = CutoffStudy(
        circuit_name=circuit_name,
        regime=regime,
        cutoffs=tuple(cutoffs),
        percents=tuple(percents),
    )
    for p, percent in enumerate(percents):
        for c, cutoff in enumerate(cutoffs):
            first = (p * len(cutoffs) + c) * runs
            cell = [
                o for o in by_run[first:first + runs]
                if not isinstance(o, Quarantined)
            ]
            cuts: List[int] = []
            seconds: List[float] = []
            cpu_seconds: List[float] = []
            moves: List[int] = []
            for cut, secs, cpu, total_moves in cell:
                cuts.append(cut)
                seconds.append(secs)
                cpu_seconds.append(cpu)
                moves.append(total_moves)
            study.cells.append(
                CutoffCell(
                    percent=percent,
                    cutoff=cutoff,
                    avg_cut=sum(cuts) / len(cuts),
                    avg_seconds=sum(seconds) / len(seconds),
                    avg_moves=sum(moves) / len(moves),
                    avg_cpu_seconds=sum(cpu_seconds) / len(cpu_seconds),
                )
            )
    return study
