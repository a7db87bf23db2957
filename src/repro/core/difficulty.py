"""Instance-difficulty study (Figs. 1 and 2 of the paper).

For each fixed percentage and regime, the multilevel partitioner is run
for up to ``max(starts)`` independent starts per trial; the best cut of
the first 1, 2, 4 and 8 starts yields the four traces of each plot, and
per-start CPU time yields the right-hand column.  Raw best cuts,
normalized best cuts and CPU seconds are all averaged over trials.
A k-way balance (k > 2) runs the same protocol with the direct k-way FM
engine -- Section V's open question whether multiway partitioning is as
affected by fixed terminals.

Normalization follows the paper: in the *good* regime every percentage
shares the same reference (the good solution's cut, since all fixtures
are consistent with it); in the *rand* regime each percentage is a
distinct instance, normalized to the best cut seen across *all* starts
and trials of that instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.regimes import (
    PAPER_PERCENTS,
    find_good_solution,
    make_schedule,
    regime_fixture,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.multistart import (
    MultistartResult,
    kway_multistart,
    multilevel_multistart,
)
from repro.runtime import derive_start_seeds


@dataclass(frozen=True)
class DifficultyPoint:
    """One (regime, percent, starts) data point, averaged over trials."""

    regime: str
    percent: float
    starts: int
    raw_cut: float
    normalized_cut: float
    cpu_seconds: float


@dataclass
class DifficultyStudy:
    """All data behind one figure (one circuit, k = ``num_parts``)."""

    circuit_name: str
    num_parts: int
    percents: Sequence[float]
    starts_list: Sequence[int]
    trials: int
    good_cut: int
    points: List[DifficultyPoint] = field(default_factory=list)
    best_seen: Dict[Tuple[str, float], int] = field(default_factory=dict)

    def point(
        self, regime: str, percent: float, starts: int
    ) -> DifficultyPoint:
        """Look up one data point."""
        for p in self.points:
            if (
                p.regime == regime
                and p.percent == percent
                and p.starts == starts
            ):
                return p
        raise KeyError((regime, percent, starts))

    def trace(
        self, regime: str, starts: int, column: str = "normalized_cut"
    ) -> List[Tuple[float, float]]:
        """(percent, value) series for one plot trace."""
        if column not in ("raw_cut", "normalized_cut", "cpu_seconds"):
            raise ValueError(f"unknown column {column!r}")
        series = [
            (p.percent, getattr(p, column))
            for p in self.points
            if p.regime == regime and p.starts == starts
        ]
        return sorted(series)


def run_difficulty_study(
    graph: Hypergraph,
    balance: BalanceConstraint,
    circuit_name: str = "circuit",
    percents: Sequence[float] = PAPER_PERCENTS,
    starts_list: Sequence[int] = (1, 2, 4, 8),
    trials: int = 5,
    seed: int = 0,
    regimes: Sequence[str] = ("good", "rand"),
    reference_starts: Optional[int] = None,
    jobs: int = 1,
    policy=None,
    journal=None,
) -> DifficultyStudy:
    """Run the Section II experiment on one circuit.

    The number of blocks k comes from ``balance``: a 2-way balance runs
    the multilevel partitioner, a k-way one (k > 2) the direct k-way FM
    engine, and "rand" fixtures spread their vertices over all k blocks.

    The paper uses 50 trials; the default here is 5 (pure-Python engine),
    which preserves every qualitative shape.  All randomness derives from
    ``seed``.  The good-regime reference is found with
    ``reference_starts`` starts (default: at least 8, as the
    paper fixes vertices per "the best min-cut solution we could find" --
    a weak reference makes good-regime fixtures self-inconsistent).

    Each ``(regime, percent)`` point is one multistart call of
    ``trials * max(starts_list)`` starts against its fixture; ``jobs >
    1`` fans them over one process pool.  Cuts and the CPU-time column
    are identical to the serial run (per-start CPU time is measured with
    ``time.process_time`` inside the worker).

    ``policy`` (an :class:`repro.runtime.ExecutionPolicy`) adds
    per-start timeouts/retries/quarantine; ``journal`` (a
    :class:`repro.runtime.CheckpointJournal` or namespace view) makes
    the ``reference`` batch and every ``{regime}:{percent}`` batch
    resumable -- a re-run with the same journal skips completed starts
    and reproduces the study bit for bit (see ``docs/robustness.md``).
    """
    if not starts_list or sorted(starts_list) != list(starts_list):
        raise ValueError("starts_list must be non-empty and ascending")
    max_starts = starts_list[-1]
    if reference_starts is None:
        reference_starts = max(8, max_starts)
    num_parts = balance.num_parts
    multistart = (
        multilevel_multistart if num_parts == 2 else kway_multistart
    )
    rng = random.Random(seed)

    schedule = make_schedule(graph, seed=rng.getrandbits(32))
    good = find_good_solution(
        graph, balance, starts=reference_starts, seed=rng.getrandbits(32),
        jobs=jobs, policy=policy,
        checkpoint=journal.batch("reference") if journal is not None else None,
    )

    study = DifficultyStudy(
        circuit_name=circuit_name,
        num_parts=num_parts,
        percents=tuple(percents),
        starts_list=tuple(starts_list),
        trials=trials,
        good_cut=good.cut,
    )

    # raw accumulation: (regime, percent, starts) -> [best cuts per trial]
    cuts: Dict[Tuple[str, float, int], List[int]] = {}
    secs: Dict[Tuple[str, float, int], List[float]] = {}
    rand_fix_seed = rng.getrandbits(32)

    for regime in regimes:
        for percent in percents:
            fixture = regime_fixture(
                regime,
                schedule,
                percent,
                good_solution=good.parts,
                seed=rand_fix_seed,
                num_parts=num_parts,
            )
            # Every trial of this point runs against the same fixture, so
            # its batches go out as one multistart call: trial t's starts
            # are the slice [t * max_starts, (t + 1) * max_starts), each
            # seeded exactly as its own per-trial call would have been.
            batch_seeds = [rng.getrandbits(32) for _ in range(trials)]
            result = multistart(
                graph,
                balance,
                fixture=fixture,
                num_starts=trials * max_starts,
                seeds=[
                    start_seed
                    for batch_seed in batch_seeds
                    for start_seed in derive_start_seeds(
                        batch_seed, max_starts
                    )
                ],
                jobs=jobs,
                policy=policy,
                checkpoint=(
                    journal.batch(f"{regime}:{percent}")
                    if journal is not None
                    else None
                ),
            )
            best_instance = None
            for trial in range(trials):
                batch = MultistartResult(
                    result.starts[
                        trial * max_starts:(trial + 1) * max_starts
                    ]
                )
                for starts in starts_list:
                    key = (regime, percent, starts)
                    outcome = batch.best_of_first(starts)
                    cuts.setdefault(key, []).append(outcome.cut)
                    secs.setdefault(key, []).append(
                        batch.cpu_seconds_of_first(starts)
                    )
                trial_best = batch.best().cut
                if best_instance is None or trial_best < best_instance:
                    best_instance = trial_best
            assert best_instance is not None
            study.best_seen[(regime, percent)] = best_instance

    for regime in regimes:
        for percent in percents:
            if regime == "good":
                reference = max(1, good.cut)
            else:
                reference = max(1, study.best_seen[(regime, percent)])
            for starts in starts_list:
                key = (regime, percent, starts)
                raw = sum(cuts[key]) / len(cuts[key])
                cpu = sum(secs[key]) / len(secs[key])
                study.points.append(
                    DifficultyPoint(
                        regime=regime,
                        percent=percent,
                        starts=starts,
                        raw_cut=raw,
                        normalized_cut=raw / reference,
                        cpu_seconds=cpu,
                    )
                )
    return study


def format_study(study: DifficultyStudy) -> str:
    """Text rendering of one figure's data (six logical plots)."""
    title = "Difficulty study"
    if study.num_parts > 2:
        title = f"Multiway ({study.num_parts}-way) difficulty study"
    lines = [
        f"{title}: {study.circuit_name} "
        f"(good cut = {study.good_cut}, {study.trials} trials)"
    ]
    for regime in ("good", "rand"):
        present = [p for p in study.points if p.regime == regime]
        if not present:
            continue
        lines.append(f"-- regime: {regime}")
        lines.append(
            f"{'fixed%':>7s} "
            + " ".join(
                f"{f'raw@{s}':>9s} {f'norm@{s}':>8s} {f'cpu@{s}':>8s}"
                for s in study.starts_list
            )
        )
        for percent in study.percents:
            row = [f"{percent:>7.1f}"]
            for starts in study.starts_list:
                p = study.point(regime, percent, starts)
                row.append(
                    f"{p.raw_cut:>9.1f} {p.normalized_cut:>8.3f} "
                    f"{p.cpu_seconds:>8.3f}"
                )
            lines.append(" ".join(row))
    return "\n".join(lines)
