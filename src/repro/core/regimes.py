"""Fixed-vertex assignment regimes (the Section II protocol).

The paper's experiments fix a random subset of vertices either

* consistently with the best known free-hypergraph solution ("good"), or
* into independently random partitions ("rand"),

at 0%, 0.1%, 0.5%, 1%, 2%, 5%, 10%, 15%, 20%, 30%, 40% and 50% of the
vertices -- *incrementally*: every vertex fixed at 1% is still fixed at
2%.  A third regime fixes identified pads only (the paper found it
indistinguishable from random selection at the achievable percentages).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.multilevel import MultilevelConfig
from repro.partition.multistart import kway_multistart, multilevel_multistart
from repro.partition.solution import FREE, Bipartition

PAPER_PERCENTS = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0)
"""The paper's fixed-percentage schedule."""

REGIMES = ("good", "rand")


@dataclass(frozen=True)
class FixedVertexSchedule:
    """An incremental schedule of fixed-vertex sets.

    ``order`` is a random permutation prefix: the set fixed at percent
    ``q`` is the first ``round(q% * n)`` entries, so schedules are nested
    exactly as in the paper ("we incrementally fix additional vertices").
    """

    num_vertices: int
    order: Sequence[int]

    def count_at(self, percent: float) -> int:
        """Number of vertices fixed at ``percent``.

        Any percentage in [0, 100] is accepted -- the incremental
        property is a prefix property, so it holds for every
        percentage.  The count saturates at the candidate-pool size
        (relevant for pad-restricted schedules).
        """
        if not 0.0 <= percent <= 100.0:
            raise ValueError(f"percent {percent} outside [0, 100]")
        return min(
            len(self.order), round(percent / 100.0 * self.num_vertices)
        )

    def fixed_at(self, percent: float) -> List[int]:
        """The vertices fixed at ``percent`` (a prefix of ``order``)."""
        return list(self.order[: self.count_at(percent)])


def make_schedule(
    graph: Hypergraph,
    seed: int = 0,
    candidates: Optional[Sequence[int]] = None,
) -> FixedVertexSchedule:
    """Draw the incremental fixing order.

    ``candidates`` restricts the pool (e.g. to pads for the pad regime);
    by default every vertex is eligible, matching the paper's main
    experiments.
    """
    rng = random.Random(seed)
    pool = list(candidates) if candidates is not None else list(
        range(graph.num_vertices)
    )
    rng.shuffle(pool)
    return FixedVertexSchedule(
        num_vertices=graph.num_vertices,
        order=tuple(pool),
    )


def good_fixture(
    schedule: FixedVertexSchedule,
    percent: float,
    good_solution: Sequence[int],
) -> List[int]:
    """Fixture fixing the scheduled vertices as in ``good_solution``."""
    fixture = [FREE] * schedule.num_vertices
    for v in schedule.fixed_at(percent):
        fixture[v] = good_solution[v]
    return fixture


def rand_fixture(
    schedule: FixedVertexSchedule,
    percent: float,
    seed: int = 0,
    num_parts: int = 2,
) -> List[int]:
    """Fixture fixing the scheduled vertices into random partitions.

    Sides are drawn per-vertex from a hash-stable stream keyed by
    ``seed`` so the assignment of a vertex does not change as the
    percentage grows (the incremental property holds across percents).
    """
    fixture = [FREE] * schedule.num_vertices
    for v in schedule.fixed_at(percent):
        fixture[v] = random.Random(f"{seed}:{v}").randrange(num_parts)
    return fixture


def pad_schedule(
    graph: Hypergraph,
    pad_vertices: Sequence[int],
    seed: int = 0,
) -> FixedVertexSchedule:
    """Schedule restricted to identified pads.

    The achievable percentage is capped by the pad count ("when the
    fixed vertices are chosen from pads, the percentage is limited by
    the total number of pads, and we do not fix any further vertices").
    :meth:`FixedVertexSchedule.fixed_at` saturates automatically.
    """
    return make_schedule(graph, seed=seed, candidates=pad_vertices)


def find_good_solution(
    graph: Hypergraph,
    balance: BalanceConstraint,
    starts: int = 8,
    seed: int = 0,
    jobs: int = 1,
    policy=None,
    checkpoint=None,
) -> Bipartition:
    """Best free-hypergraph solution over ``starts`` independent starts.

    This is the reference the "good" regime fixes vertices against, and
    the normaliser of the good-regime traces in Figs. 1-2.  It is the
    experiments' ground truth, not a timed measurement, so for 2-way
    balances it runs the exhaustive multilevel engine
    (``adaptive_stop=False``): a weaker reference would shift every
    good-regime fixture and normalised cut of Figs. 1-2 and Tables
    II-III.  A balance with ``k > 2`` blocks runs the direct k-way FM
    engine instead, and ``parts`` then holds block ids ``0..k-1``.

    ``policy`` (an :class:`repro.runtime.ExecutionPolicy`) and
    ``checkpoint`` (a :class:`repro.runtime.CheckpointBatch`) opt into
    the fault-tolerant runtime; the reference must come out of healthy
    starts, so a fully-quarantined batch raises rather than silently
    anchoring the good regime to nothing.
    """
    if balance.num_parts == 2:
        result = multilevel_multistart(
            graph, balance, num_starts=starts, seed=seed,
            config=MultilevelConfig(adaptive_stop=False),
            jobs=jobs, policy=policy, checkpoint=checkpoint,
        )
    else:
        result = kway_multistart(
            graph, balance, num_starts=starts, seed=seed,
            jobs=jobs, policy=policy, checkpoint=checkpoint,
        )
    best = result.best()
    return Bipartition(parts=best.parts, cut=best.cut)


def regime_fixture(
    regime: str,
    schedule: FixedVertexSchedule,
    percent: float,
    good_solution: Optional[Sequence[int]] = None,
    seed: int = 0,
    num_parts: int = 2,
) -> List[int]:
    """Dispatch on the regime name ("good" or "rand").

    ``num_parts`` is the number of blocks a "rand" fixture spreads its
    vertices over.
    """
    if regime == "good":
        if good_solution is None:
            raise ValueError("good regime needs a reference solution")
        return good_fixture(schedule, percent, good_solution)
    if regime == "rand":
        return rand_fixture(schedule, percent, seed=seed, num_parts=num_parts)
    raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
