"""FM pass statistics in the fixed-terminals regime (Table II).

Section III's motivating measurement: run flat LIFO-FM from random
starts and record, per run, the number of passes, and per pass (beyond
the first) the percentage of movable vertices moved, where in the pass
the best prefix occurred, and how many moves were wasted (undone by the
rollback).  The paper's headline: with more fixed terminals, the best
prefix occurs earlier -- ever more of each pass is wasted work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from repro.core.cutoff import run_flat_grid
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.fm import PassRecord
from repro.runtime.observe import recorder as _observe


@dataclass(frozen=True)
class PassStatsRow:
    """Aggregated pass statistics at one fixed percentage."""

    percent: float
    runs: int
    avg_passes_per_run: float
    avg_moved_percent: float
    avg_best_prefix_percent: float
    avg_wasted_percent: float
    avg_final_cut: float

    def format_row(self) -> str:
        """Fixed-width text row."""
        return (
            f"{self.percent:>7.1f} {self.avg_passes_per_run:>7.2f} "
            f"{self.avg_moved_percent:>8.1f} "
            f"{self.avg_best_prefix_percent:>10.1f} "
            f"{self.avg_wasted_percent:>9.1f} {self.avg_final_cut:>9.1f}"
        )


TABLE_II_HEADER = (
    f"{'fixed%':>7s} {'passes':>7s} {'moved%':>8s} "
    f"{'bestpref%':>10s} {'wasted%':>9s} {'cut':>9s}"
)


@dataclass
class PassStatsStudy:
    """Table II for one circuit."""

    circuit_name: str
    regime: str
    rows: List[PassStatsRow] = field(default_factory=list)

    def row(self, percent: float) -> PassStatsRow:
        """Row at one percentage."""
        for r in self.rows:
            if r.percent == percent:
                return r
        raise KeyError(percent)

    def format_table(self) -> str:
        """Text rendering."""
        return "\n".join(
            [
                f"Pass statistics: {self.circuit_name} "
                f"({self.regime} regime)",
                TABLE_II_HEADER,
            ]
            + [r.format_row() for r in self.rows]
        )


def run_pass_stats_study(
    graph: Hypergraph,
    balance: BalanceConstraint,
    circuit_name: str = "circuit",
    percents: Sequence[float] = (0.0, 10.0, 20.0, 30.0),
    regime: str = "good",
    runs: int = 20,
    seed: int = 0,
    jobs: int = 1,
    policy=None,
    journal=None,
) -> PassStatsStudy:
    """Run Table II's measurement: the uncut column of
    :func:`repro.core.cutoff.run_flat_grid`, one row per percent.

    Per-pass percentages exclude the first pass of each run ("excluding
    the first pass"), which always moves many vertices because it starts
    from a random partitioning.  Runs whose FM took a single pass
    contribute to the pass count but not to the per-pass averages.
    ``jobs > 1`` fans the independent runs over a process pool without
    changing any statistic.

    ``policy`` (an :class:`repro.runtime.ExecutionPolicy`) and ``journal``
    (a :class:`repro.runtime.CheckpointJournal` or namespace view) opt
    into the fault-tolerant runtime; quarantined runs are dropped from
    the averages, and a percent with no healthy run left raises
    :class:`RuntimeError` rather than print a row of zeros.
    """
    with _observe.active().span(
        "study.pass_stats",
        circuit=circuit_name,
        regime=regime,
        policy="lifo",
        runs=runs,
        percents=list(percents),
    ):
        cells = run_flat_grid(
            graph, balance, percents, (1.0,), regime=regime, runs=runs,
            seed=seed, jobs=jobs, policy=policy, journal=journal,
        )
    study = PassStatsStudy(circuit_name=circuit_name, regime=regime)
    for percent in percents:
        uncut = cells[(percent, 1.0)]
        study.rows.append(
            pass_stats_row(percent, runs, [(r.cut, r.passes) for r in uncut])
        )
    return study


def pass_stats_row(
    percent: float,
    runs: int,
    outcomes: Iterable[Tuple[int, Sequence[PassRecord]]],
) -> PassStatsRow:
    """Aggregate one Table II row from ``(final_cut, pass_records)`` run
    outcomes.

    Per-pass percentages exclude each run's first pass and passes with
    nothing movable.  The study driver and the trace summarizer
    (:mod:`repro.runtime.observe.summarize`) both build their rows here,
    so a table rebuilt from a trace is byte-for-byte the driver's.
    """
    passes_per_run: List[int] = []
    moved: List[float] = []
    best_prefix: List[float] = []
    wasted: List[float] = []
    cuts: List[int] = []
    for cut, records in outcomes:
        passes_per_run.append(len(records))
        cuts.append(cut)
        for record in records[1:]:
            if record.movable == 0:
                continue
            moved.append(100.0 * record.moved_fraction)
            if record.moves_made:
                best_prefix.append(100.0 * record.best_prefix_fraction)
                wasted.append(
                    100.0 * record.wasted_moves / record.moves_made
                )
    return PassStatsRow(
        percent=percent,
        runs=runs,
        avg_passes_per_run=_mean(passes_per_run),
        avg_moved_percent=_mean(moved),
        avg_best_prefix_percent=_mean(best_prefix),
        avg_wasted_percent=_mean(wasted),
        avg_final_cut=_mean(cuts),
    )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
