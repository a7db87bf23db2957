"""Reference Table II loop: one ``parallel_map`` per percent, kept verbatim.

This is how :func:`repro.core.pass_stats.run_pass_stats_study` ran
before Table II became the uncut column of the Section III grid
(:func:`repro.core.cutoff.run_flat_grid`): per percent, the fixture and
``runs`` init seeds, then one :class:`_PassStatsRunTask` and one
``parallel_map``.  Only the journal, policy and trace plumbing were
dropped.  :class:`_PassStatsRunTask` is the library's old per-percent
task, moved here unchanged; rows still go through the library's
:func:`~repro.core.pass_stats.pass_stats_row`, which counts a run's
passes from its pass records.

``tests/core/test_cutoff_grid.py`` holds the study to this reference.
Do not optimize this module.
"""

from __future__ import annotations

import random
from typing import Sequence, Tuple

from repro.core.pass_stats import PassStatsStudy, pass_stats_row
from repro.core.regimes import (
    find_good_solution,
    make_schedule,
    regime_fixture,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.fm import FMConfig, PassRecord
from repro.partition.multistart import FlatFMStartTask
from repro.runtime import parallel_map


class _PassStatsRunTask(FlatFMStartTask):
    """One random-start LIFO-FM run per init seed (picklable for pools).

    Returns ``(num_passes, final_cut, pass_records)`` -- everything the
    aggregation needs, without shipping the parts vector back.
    """

    def __init__(
        self,
        graph: Hypergraph,
        balance: BalanceConstraint,
        fixture: Sequence[int],
    ) -> None:
        super().__init__(graph, balance, fixture, FMConfig(policy="lifo"))

    def __call__(
        self, init_seed: int
    ) -> Tuple[int, int, Tuple[PassRecord, ...]]:
        result = self.engine.run(self.initial(init_seed))
        return (
            result.num_passes,
            result.solution.cut,
            tuple(result.passes),
        )


def reference_pass_stats_study(
    graph: Hypergraph,
    balance: BalanceConstraint,
    circuit_name: str = "circuit",
    percents: Sequence[float] = (0.0, 10.0, 20.0, 30.0),
    regime: str = "good",
    runs: int = 20,
    seed: int = 0,
    jobs: int = 1,
) -> PassStatsStudy:
    """The study, one map per percent."""
    rng = random.Random(seed)
    schedule = make_schedule(graph, seed=rng.getrandbits(32))
    good_solution = None
    if regime == "good":
        good_solution = find_good_solution(
            graph, balance, seed=rng.getrandbits(32), jobs=jobs
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
        task = _PassStatsRunTask(graph, balance, fixture)
        init_seeds = [rng.getrandbits(32) for _ in range(runs)]
        outcomes = parallel_map(task, init_seeds, jobs=jobs)
        study.rows.append(
            pass_stats_row(
                percent,
                runs,
                [(cut, records) for _, cut, records in outcomes],
            )
        )
    return study
