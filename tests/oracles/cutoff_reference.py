"""Reference Table III loop: one ``parallel_map`` per cell, kept verbatim.

This is how :func:`repro.core.cutoff.run_cutoff_study` ran its grid
before the whole grid became one heaviest-first map: per percent, the
fixture and ``runs`` init seeds, then one :class:`_CutoffRunTask` and
one ``parallel_map`` per cutoff column, in grid order.  Only the journal
and policy plumbing were dropped, and the init seeds of every cell are
returned too.

``tests/core/test_cutoff_grid.py`` holds the study to this reference.
Do not optimize this module.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.core.cutoff import CutoffCell, CutoffStudy, _CutoffRunTask
from repro.core.regimes import (
    find_good_solution,
    make_schedule,
    regime_fixture,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.runtime import parallel_map


def reference_cutoff_study(
    graph: Hypergraph,
    balance: BalanceConstraint,
    percents: Sequence[float],
    cutoffs: Sequence[float],
    regime: str = "good",
    runs: int = 10,
    seed: int = 0,
    jobs: int = 1,
) -> Tuple[CutoffStudy, Dict[Tuple[float, float], List[int]]]:
    """The study and each cell's init seeds, one map per cell."""
    rng = random.Random(seed)
    schedule = make_schedule(graph, seed=rng.getrandbits(32))
    good_solution = None
    if regime == "good":
        good_solution = find_good_solution(
            graph, balance, seed=rng.getrandbits(32), jobs=jobs
        ).parts
    rand_fix_seed = rng.getrandbits(32)

    study = CutoffStudy(
        circuit_name="circuit",
        regime=regime,
        cutoffs=tuple(cutoffs),
        percents=tuple(percents),
    )
    seeds: Dict[Tuple[float, float], List[int]] = {}
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
            outcomes = parallel_map(task, init_seeds, jobs=jobs)
            seeds[(percent, cutoff)] = list(init_seeds)
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
    return study, seeds
