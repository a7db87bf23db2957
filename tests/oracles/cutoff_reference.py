"""Reference Table III loop: one ``parallel_map`` per cell, kept verbatim.

This is how :func:`repro.core.cutoff.run_cutoff_study` ran its grid
before the whole grid became one heaviest-first map: per percent, the
fixture and ``runs`` init seeds, then one :class:`_CutoffRunTask` and
one ``parallel_map`` per cutoff column, in grid order.  Only the journal
and policy plumbing were dropped, and the init seeds of every cell are
returned too.  :class:`_CutoffRunTask` is the library's old per-cell
task, moved here unchanged.

``tests/core/test_cutoff_grid.py`` holds the study to this reference.
Do not optimize this module.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.core.cutoff import CutoffCell, CutoffStudy
from repro.core.regimes import (
    find_good_solution,
    make_schedule,
    regime_fixture,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.fm import FMConfig
from repro.partition.multistart import FlatFMStartTask
from repro.runtime import parallel_map


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
