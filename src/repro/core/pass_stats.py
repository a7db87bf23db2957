"""FM pass statistics in the fixed-terminals regime (Table II).

Section III's motivating measurement: run flat LIFO-FM from random
starts and record, per run, the number of passes, and per pass (beyond
the first) the percentage of movable vertices moved, where in the pass
the best prefix occurred, and how many moves were wasted (undone by the
rollback).  The paper's headline: with more fixed terminals, the best
prefix occurs earlier -- ever more of each pass is wasted work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.regimes import (
    FixedVertexSchedule,
    find_good_solution,
    make_schedule,
    regime_fixture,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.fm import FMBipartitioner, FMConfig, PassRecord
from repro.partition.initial import random_balanced_bipartition
from repro.runtime import Quarantined, parallel_map
from repro.runtime.observe import recorder as _observe


class _PassStatsRunTask:
    """One random-start FM run per init seed (picklable for pools).

    Returns ``(num_passes, final_cut, pass_records)`` -- everything the
    aggregation needs, without shipping the parts vector back.
    """

    def __init__(
        self,
        graph: Hypergraph,
        balance: BalanceConstraint,
        fixture: Sequence[int],
        policy: str,
    ) -> None:
        self.graph = graph
        self.balance = balance
        self.fixture = list(fixture)
        self.policy = policy
        self._engine: Optional[FMBipartitioner] = None

    def __getstate__(self):
        return (self.graph, self.balance, self.fixture, self.policy)

    def __setstate__(self, state):
        self.graph, self.balance, self.fixture, self.policy = state
        self._engine = None

    def __call__(
        self, init_seed: int
    ) -> Tuple[int, int, Tuple[PassRecord, ...]]:
        if self._engine is None:
            self._engine = FMBipartitioner(
                self.graph,
                self.balance,
                fixture=self.fixture,
                config=FMConfig(policy=self.policy),
            )
        init = random_balanced_bipartition(
            self.graph,
            self.balance,
            fixture=self.fixture,
            rng=random.Random(init_seed),
        )
        result = self._engine.run(init)
        return (
            result.num_passes,
            result.solution.cut,
            tuple(result.passes),
        )


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
    schedule: Optional[FixedVertexSchedule] = None,
    good_solution: Optional[Sequence[int]] = None,
    policy: str = "lifo",
    jobs: int = 1,
    exec_policy=None,
    journal=None,
) -> PassStatsStudy:
    """Run Table II's measurement.

    Per-pass percentages exclude the first pass of each run ("excluding
    the first pass"), which always moves many vertices because it starts
    from a random partitioning.  Runs whose FM took a single pass
    contribute to the pass count but not to the per-pass averages.
    ``jobs > 1`` fans the independent runs over a process pool without
    changing any statistic.

    ``exec_policy`` (an :class:`repro.runtime.ExecutionPolicy`; named to
    avoid the FM ``policy`` knob) and ``journal`` (a
    :class:`repro.runtime.CheckpointJournal` or namespace view) opt into
    the fault-tolerant runtime; quarantined runs are dropped from the
    averages rather than aborting the table.
    """
    recorder = _observe.active()
    rng = random.Random(seed)
    if schedule is None:
        schedule = make_schedule(graph, seed=rng.getrandbits(32))
    with recorder.span(
        "study.pass_stats",
        circuit=circuit_name,
        regime=regime,
        policy=policy,
        runs=runs,
    ):
        if regime == "good" and good_solution is None:
            # The reference run's fm.run spans are quarantined under
            # their own span so trace consumers never confuse them with
            # the measured runs of a ``study.percent``.
            with recorder.span("study.reference"):
                good_solution = find_good_solution(
                    graph, balance, seed=rng.getrandbits(32), jobs=jobs,
                    policy=exec_policy,
                    checkpoint=(
                        journal.batch("reference")
                        if journal is not None
                        else None
                    ),
                ).parts
        rand_fix_seed = rng.getrandbits(32)

        study = PassStatsStudy(circuit_name=circuit_name, regime=regime)
        for percent in percents:
            fixture = regime_fixture(
                regime,
                schedule,
                percent,
                good_solution=good_solution,
                seed=rand_fix_seed,
            )
            task = _PassStatsRunTask(graph, balance, fixture, policy)
            init_seeds = [rng.getrandbits(32) for _ in range(runs)]
            with recorder.span(
                "study.percent", percent=percent, runs=runs
            ):
                outcomes = parallel_map(
                    task,
                    init_seeds,
                    jobs=jobs,
                    policy=exec_policy,
                    checkpoint=(
                        journal.batch(f"pass_stats:{percent}")
                        if journal is not None
                        else None
                    ),
                )
            study.rows.append(
                pass_stats_row(
                    percent,
                    runs,
                    [o for o in outcomes if not isinstance(o, Quarantined)],
                )
            )
    return study


def pass_stats_row(
    percent: float,
    runs: int,
    outcomes: Iterable[Tuple[int, int, Sequence[PassRecord]]],
) -> PassStatsRow:
    """Aggregate one Table II row from ``(num_passes, final_cut,
    pass_records)`` run outcomes.

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
    for num_passes, cut, records in outcomes:
        passes_per_run.append(num_passes)
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


def wasted_move_trend(study: PassStatsStudy) -> List[Tuple[float, float]]:
    """(percent, wasted%) series -- the paper's headline trend, which
    should increase with the fixed percentage."""
    return [(r.percent, r.avg_wasted_percent) for r in study.rows]
