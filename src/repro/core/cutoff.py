"""Section III's flat-FM grid and the pass-cutoff study (Table III).

Section III measures one protocol twice: single-start LIFO-FM runs from
random balanced starts over a nested fixed-vertex schedule.
:func:`run_flat_grid` runs it once for a whole ``percents x cutoffs``
grid; Table II (:mod:`repro.core.pass_stats`) reads its uncut column's
pass records, and Table III averages every cell here.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.regimes import (
    find_good_solution,
    make_schedule,
    regime_fixture,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.fm import FMConfig, PassRecord
from repro.partition.multistart import FlatFMStartTask
from repro.runtime import Quarantined, parallel_map
from repro.runtime.observe import recorder as _observe

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


class GridRun(NamedTuple):
    """One single-start LIFO-FM run of a Section III grid.

    ``seconds`` and ``cpu_seconds`` time ``engine.run`` alone --
    construction of the initial partition is protocol overhead, not part
    of the measured heuristic.
    """

    cut: int
    seconds: float
    cpu_seconds: float
    passes: Tuple[PassRecord, ...]

    @property
    def moves(self) -> int:
        """Moves attempted across all passes."""
        return sum(p.moves_made for p in self.passes)


class _GridTask:
    """Every run of one grid: item ``(percent_index, cutoff_index,
    init_seed)`` (picklable).

    Ships the graph, balance, per-percent fixtures and cutoffs to each
    worker once.  The engine of the last cell a process ran is cached,
    so a run of items from one cell builds its FM engine once; the cache
    never crosses the pickle boundary.  Each run is traced as a
    ``study.run`` span carrying its cell.
    """

    def __init__(
        self,
        graph: Hypergraph,
        balance: BalanceConstraint,
        percents: Sequence[float],
        fixtures: Sequence[Sequence[int]],
        cutoffs: Sequence[float],
    ) -> None:
        self.graph = graph
        self.balance = balance
        self.percents = tuple(percents)
        self.fixtures = [list(f) for f in fixtures]
        self.cutoffs = tuple(cutoffs)
        self._cell: Optional[Tuple[int, int]] = None
        self._start: Optional[FlatFMStartTask] = None

    def __getstate__(self):
        return {**self.__dict__, "_cell": None, "_start": None}

    def __call__(self, item: Tuple[int, int, int]) -> GridRun:
        p, c, init_seed = item
        if self._cell != (p, c):
            config = FMConfig(
                policy="lifo", pass_move_limit_fraction=self.cutoffs[c]
            )
            self._start = FlatFMStartTask(
                self.graph, self.balance, self.fixtures[p], config
            )
            self._cell = (p, c)
        engine = self._start.engine  # built once, outside the timed region
        init = self._start.initial(init_seed)
        with _observe.active().span(
            "study.run", percent=self.percents[p], cutoff=self.cutoffs[c]
        ):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            result = engine.run(init)
            seconds = time.perf_counter() - t0
            cpu_seconds = time.process_time() - cpu0
        return GridRun(
            result.solution.cut, seconds, cpu_seconds, tuple(result.passes)
        )


def run_flat_grid(
    graph: Hypergraph,
    balance: BalanceConstraint,
    percents: Sequence[float],
    cutoffs: Sequence[float],
    regime: str = "good",
    runs: int = 10,
    seed: int = 0,
    jobs: int = 1,
    policy=None,
    journal=None,
) -> Dict[Tuple[float, float], List[GridRun]]:
    """Section III's protocol: ``runs`` single-start LIFO-FM runs from
    random balanced starts per ``(percent, cutoff)`` cell.

    Returns each cell's healthy runs, in init-seed order.  Every cutoff
    of a percent shares that percent's fixture and init seeds, so the
    columns are paired samples -- differences come from the cutoff
    alone.  Seeds come from ``random.Random(seed)`` in a fixed order:
    the fixed-vertex schedule, the good regime's reference search (run
    first, inside a ``study.reference`` span, because its solution
    defines the fixtures), the rand fixture, then per percent ``runs``
    init seeds.  The whole grid is then one ``parallel_map``, submitted
    heaviest cell first: uncut columns first, then fewest fixed
    vertices, so the longest runs do not end the map on an idle worker.
    ``jobs > 1`` fans it over a process pool; cuts and pass records are
    identical to the serial run.

    ``policy`` (an :class:`repro.runtime.ExecutionPolicy`) and ``journal``
    (a :class:`repro.runtime.CheckpointJournal` or namespace view) opt
    into the fault-tolerant runtime: the grid is the journal's ``grid``
    batch, and quarantined runs are dropped from their cell.  A cell
    whose every run was quarantined has nothing to report, so it raises
    :class:`RuntimeError` naming the cell and the quarantine reasons.
    """
    rng = random.Random(seed)
    schedule = make_schedule(graph, seed=rng.getrandbits(32))
    good_solution = None
    if regime == "good":
        # The reference run's spans sit under their own span so trace
        # consumers never confuse them with the measured runs.
        with _observe.active().span("study.reference"):
            good_solution = find_good_solution(
                graph, balance, seed=rng.getrandbits(32), jobs=jobs,
                policy=policy,
                checkpoint=(
                    journal.batch("reference")
                    if journal is not None
                    else None
                ),
            ).parts
    rand_fix_seed = rng.getrandbits(32)

    fixtures = []
    grid: List[Tuple[int, int, int]] = []
    for p, percent in enumerate(percents):
        fixtures.append(
            regime_fixture(
                regime, schedule, percent,
                good_solution=good_solution, seed=rand_fix_seed,
            )
        )
        init_seeds = [rng.getrandbits(32) for _ in range(runs)]
        grid.extend((p, c, s) for c in range(len(cutoffs)) for s in init_seeds)

    # Heaviest cell first; the stable sort keeps each cell's runs in
    # init-seed order.
    grid.sort(key=lambda item: (-cutoffs[item[1]], percents[item[0]]))
    outcomes = parallel_map(
        _GridTask(graph, balance, percents, fixtures, cutoffs),
        grid,
        jobs=jobs,
        policy=policy,
        checkpoint=journal.batch("grid") if journal is not None else None,
    )
    by_cell: Dict[Tuple[float, float], list] = {}
    for (p, c, _), outcome in zip(grid, outcomes):
        by_cell.setdefault((percents[p], cutoffs[c]), []).append(outcome)
    cells: Dict[Tuple[float, float], List[GridRun]] = {}
    for (percent, cutoff), cell in by_cell.items():
        healthy = [o for o in cell if not isinstance(o, Quarantined)]
        if not healthy:
            raise RuntimeError(
                f"every run of cell (percent={percent}, cutoff={cutoff}) "
                f"was quarantined: {[o.reason for o in cell]}"
            )
        cells[(percent, cutoff)] = healthy
    return cells


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
    """Run Table III's measurement: :func:`run_flat_grid`, averaged per
    cell.

    ``jobs`` fans the grid over a process pool without changing any cut
    or move count.  ``policy`` and ``journal`` opt into the
    fault-tolerant runtime; quarantined runs are dropped from the cell
    averages, and a cell with no healthy run left raises
    :class:`RuntimeError` rather than print a made-up average.
    """
    cells = run_flat_grid(
        graph, balance, percents, cutoffs, regime=regime, runs=runs,
        seed=seed, jobs=jobs, policy=policy, journal=journal,
    )
    study = CutoffStudy(
        circuit_name=circuit_name,
        regime=regime,
        cutoffs=tuple(cutoffs),
        percents=tuple(percents),
    )
    for percent in percents:
        for cutoff in cutoffs:
            cell = cells[(percent, cutoff)]
            study.cells.append(
                CutoffCell(
                    percent=percent,
                    cutoff=cutoff,
                    avg_cut=sum(r.cut for r in cell) / len(cell),
                    avg_seconds=sum(r.seconds for r in cell) / len(cell),
                    avg_moves=sum(r.moves for r in cell) / len(cell),
                    avg_cpu_seconds=(
                        sum(r.cpu_seconds for r in cell) / len(cell)
                    ),
                )
            )
    return study
