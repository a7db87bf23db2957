"""Reference Section II loop: one multistart call per trial, kept verbatim.

This is how :func:`repro.core.difficulty.run_difficulty_study` ran
before each ``(regime, percent)`` point became one multistart call over
all of its trials: per trial, one ``multilevel_multistart`` (k = 2) or
``kway_multistart`` (k > 2) call of ``max(starts_list)`` starts seeded
by one ``rng.getrandbits(32)``.  Only the journal and policy plumbing
were dropped.  The engines are looked up by module-global name, so a
test can wrap them here to read or replace each start's CPU seconds.

``tests/core/test_difficulty_grid.py`` holds the study to this
reference.  Do not optimize this module.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.difficulty import DifficultyPoint, DifficultyStudy
from repro.core.regimes import (
    PAPER_PERCENTS,
    find_good_solution,
    make_schedule,
    regime_fixture,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.multistart import kway_multistart, multilevel_multistart


def reference_difficulty_study(
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
) -> DifficultyStudy:
    """The study, one multistart call per trial."""
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
        jobs=jobs,
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
            best_instance = None
            for trial in range(trials):
                batch = multistart(
                    graph,
                    balance,
                    fixture=fixture,
                    num_starts=max_starts,
                    seed=rng.getrandbits(32),
                    jobs=jobs,
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
