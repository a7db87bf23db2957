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
from typing import List, Optional, Sequence

from repro.core.regimes import (
    FixedVertexSchedule,
    find_good_solution,
    make_schedule,
    regime_fixture,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.fm import FMBipartitioner, FMConfig
from repro.partition.initial import random_balanced_bipartition
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


class _CutoffRunTask:
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
        self.graph = graph
        self.balance = balance
        self.fixture = list(fixture)
        self.cutoff = cutoff
        self._engine: Optional[FMBipartitioner] = None

    def __getstate__(self):
        return (self.graph, self.balance, self.fixture, self.cutoff)

    def __setstate__(self, state):
        self.graph, self.balance, self.fixture, self.cutoff = state
        self._engine = None

    def __call__(self, init_seed: int):
        if self._engine is None:
            self._engine = FMBipartitioner(
                self.graph,
                self.balance,
                fixture=self.fixture,
                config=FMConfig(
                    policy="lifo",
                    pass_move_limit_fraction=self.cutoff,
                ),
            )
        init = random_balanced_bipartition(
            self.graph,
            self.balance,
            fixture=self.fixture,
            rng=random.Random(init_seed),
        )
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        result = self._engine.run(init)
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


def run_cutoff_study(
    graph: Hypergraph,
    balance: BalanceConstraint,
    circuit_name: str = "circuit",
    percents: Sequence[float] = (0.0, 10.0, 20.0, 30.0),
    cutoffs: Sequence[float] = PAPER_CUTOFFS,
    regime: str = "good",
    runs: int = 10,
    seed: int = 0,
    schedule: Optional[FixedVertexSchedule] = None,
    good_solution: Optional[Sequence[int]] = None,
    jobs: int = 1,
    policy=None,
    journal=None,
) -> CutoffStudy:
    """Run Table III's measurement (single-start LIFO FM per run).

    All cutoffs share the same per-run initial solutions so the columns
    are paired samples -- differences come from the cutoff alone.
    ``jobs > 1`` fans the runs of each column over a process pool; cuts
    and CPU seconds are identical to the serial run.

    ``policy`` (an :class:`repro.runtime.ExecutionPolicy`) and ``journal``
    (a :class:`repro.runtime.CheckpointJournal` or namespace view) opt
    into the fault-tolerant runtime; quarantined runs are dropped from
    the cell averages rather than aborting the table.
    """
    rng = random.Random(seed)
    if schedule is None:
        schedule = make_schedule(graph, seed=rng.getrandbits(32))
    if regime == "good" and good_solution is None:
        good_solution = find_good_solution(
            graph, balance, seed=rng.getrandbits(32), jobs=jobs,
            policy=policy,
            checkpoint=(
                journal.batch("reference") if journal is not None else None
            ),
        ).parts
    rand_fix_seed = rng.getrandbits(32)

    study = CutoffStudy(
        circuit_name=circuit_name,
        regime=regime,
        cutoffs=tuple(cutoffs),
        percents=tuple(percents),
    )
    for percent in percents:
        fixture = regime_fixture(
            regime,
            schedule,
            percent,
            good_solution=good_solution,
            seed=rand_fix_seed,
        )
        init_seeds = [rng.getrandbits(32) for _ in range(runs)]
        for cutoff in cutoffs:
            task = _CutoffRunTask(graph, balance, fixture, cutoff)
            outcomes = parallel_map(
                task,
                init_seeds,
                jobs=jobs,
                policy=policy,
                checkpoint=(
                    journal.batch(f"cutoff:{percent}:{cutoff}")
                    if journal is not None
                    else None
                ),
            )
            outcomes = [o for o in outcomes if not isinstance(o, Quarantined)]
            cuts: List[int] = []
            seconds: List[float] = []
            cpu_seconds: List[float] = []
            moves: List[int] = []
            for cut, secs, cpu, total_moves in outcomes:
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
