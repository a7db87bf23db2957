"""Multistart driver.

The paper's protocol applies the partitioner for 1, 2, 4 or 8 independent
starts and reports the best cut of each prefix.  Running 8 starts once
and reading off best-of-first-{1,2,4,8} reproduces all four traces of a
figure from a single batch, which is how :class:`MultistartResult` is
meant to be consumed.

Starts are independent, so the driver fans them out over a process pool
when ``jobs > 1`` (see :mod:`repro.runtime`).  Per-start seeds are
materialised up front from the same ``random.Random(seed)`` stream the
serial loop always drew, and results are collected in seed order, so
``jobs=N`` returns bit-identical cuts and parts to ``jobs=1``.  Only the
clock readings differ between pool sizes -- which is why every outcome
carries both wall-clock ``seconds`` and pool-size-invariant
``cpu_seconds``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.fm import FMBipartitioner, FMConfig
from repro.partition.initial import random_balanced_bipartition
from repro.partition.kwayfm import KWayFMConfig, KWayFMRefiner
from repro.partition.multilevel import (
    MultilevelBipartitioner,
    MultilevelConfig,
)
from repro.partition.solution import Bipartition
from repro.runtime import (
    CheckpointBatch,
    ExecutionPolicy,
    Quarantined,
    derive_start_seeds,
    parallel_map,
)
from repro.runtime.observe import recorder as _observe


@dataclass
class StartOutcome:
    """Cut, solution and timing of one independent start.

    ``seconds`` is wall-clock time; ``cpu_seconds`` is the executing
    process's ``time.process_time`` and is what CPU-cost reporting
    should use -- it does not change with the pool size.

    A start that was quarantined by the fault-tolerant runtime (see
    ``docs/robustness.md``) carries ``cut=None``, empty ``parts`` and
    the quarantine reason; such null rows are excluded from
    best-of/CPU aggregation instead of aborting the batch.
    """

    cut: Optional[int]
    parts: List[int]
    seconds: float
    cpu_seconds: float = 0.0
    quarantined: Optional[str] = None

    @property
    def healthy(self) -> bool:
        """True unless this start was quarantined."""
        return self.quarantined is None


@dataclass
class MultistartResult:
    """Outcomes of a batch of independent starts, in execution order."""

    starts: List[StartOutcome] = field(default_factory=list)

    @property
    def num_starts(self) -> int:
        """Number of starts executed."""
        return len(self.starts)

    @property
    def num_quarantined(self) -> int:
        """Number of starts that came back as quarantined null rows."""
        return sum(1 for s in self.starts if not s.healthy)

    def best_of_first(self, n: int) -> StartOutcome:
        """Best healthy outcome among the first ``n`` starts."""
        if not 1 <= n <= len(self.starts):
            raise ValueError(
                f"need 1 <= n <= {len(self.starts)}, got {n}"
            )
        healthy = [s for s in self.starts[:n] if s.healthy]
        if not healthy:
            reasons = [s.quarantined for s in self.starts[:n]]
            raise RuntimeError(
                f"all of the first {n} start(s) were quarantined: "
                f"{reasons}"
            )
        return min(healthy, key=lambda s: s.cut)

    def best(self) -> StartOutcome:
        """Best outcome overall."""
        return self.best_of_first(len(self.starts))

    def total_cpu_seconds(self) -> float:
        """Total CPU time of all starts (pool-size-invariant)."""
        return sum(s.cpu_seconds for s in self.starts)

    def cpu_seconds_of_first(self, n: int) -> float:
        """CPU time of the first ``n`` starts (pool-size-invariant)."""
        if not 1 <= n <= len(self.starts):
            raise ValueError(
                f"need 1 <= n <= {len(self.starts)}, got {n}"
            )
        return sum(s.cpu_seconds for s in self.starts[:n])


def run_multistart(
    run_one: Callable[[int], Bipartition],
    num_starts: int,
    seed: int = 0,
    jobs: int = 1,
    seeds: Optional[Sequence[int]] = None,
    policy: Optional[ExecutionPolicy] = None,
    checkpoint: Optional[CheckpointBatch] = None,
) -> MultistartResult:
    """Execute ``run_one(seed_i)`` for ``num_starts`` derived seeds.

    ``run_one`` must be deterministic in its seed; seeds are drawn from a
    ``random.Random(seed)`` stream so batches are reproducible yet
    independent across starts.  ``seeds`` overrides the stream with an
    explicit per-start seed list (the CLI uses this to preserve its
    historical ``seed + i`` convention).

    ``jobs > 1`` fans the starts over a process pool; ``run_one`` must
    then be picklable (the engine wrappers below are).  Results are
    identical to ``jobs=1`` by construction -- task ``i`` always runs
    with seed ``i`` and outcomes are collected in seed order.

    ``policy`` turns on the fault-tolerant runtime (timeouts, retries,
    quarantine); ``checkpoint`` journals every start so a killed batch
    resumes past its completed starts.  A start the policy quarantines
    becomes a null :class:`StartOutcome` carrying the reason.
    """
    if num_starts < 1:
        raise ValueError("num_starts must be positive")
    if seeds is None:
        start_seeds: Sequence[int] = derive_start_seeds(seed, num_starts)
    else:
        if len(seeds) != num_starts:
            raise ValueError(
                f"seeds has length {len(seeds)}, expected {num_starts}"
            )
        start_seeds = list(seeds)

    recorder = _observe.active()
    with recorder.span("multistart", starts=num_starts, jobs=jobs) as sp:
        calls = parallel_map(
            run_one,
            start_seeds,
            jobs=jobs,
            timed=True,
            policy=policy,
            checkpoint=checkpoint,
        )
        result = MultistartResult()
        for call in calls:
            if isinstance(call, Quarantined):
                result.starts.append(
                    StartOutcome(
                        cut=None,
                        parts=[],
                        seconds=0.0,
                        cpu_seconds=0.0,
                        quarantined=call.reason,
                    )
                )
                continue
            solution = call.value
            result.starts.append(
                StartOutcome(
                    cut=solution.cut,
                    parts=list(solution.parts),
                    seconds=call.seconds,
                    cpu_seconds=call.cpu_seconds,
                )
            )
        if recorder.enabled:
            recorder.count("multistart.batches")
            recorder.count("multistart.starts", result.num_starts)
            quarantined = result.num_quarantined
            if quarantined:
                recorder.count("multistart.quarantined", quarantined)
            healthy = [s.cut for s in result.starts if s.healthy]
            if healthy:
                sp.set(best_cut=min(healthy))
    return result


class _EngineStartTask:
    """Base for picklable per-seed start tasks.

    The heavyweight engine is built lazily and cached per process --
    once in the caller for the serial path, once per worker after the
    pool initializer deserializes the task (the cache never crosses the
    pickle boundary).
    """

    def __init__(
        self,
        graph: Hypergraph,
        balance: BalanceConstraint,
        fixture: Optional[Sequence[int]],
        config: object,
    ) -> None:
        self.graph = graph
        self.balance = balance
        self.fixture = list(fixture) if fixture is not None else None
        self.config = config
        self._engine = None

    def __getstate__(self):
        return (self.graph, self.balance, self.fixture, self.config)

    def __setstate__(self, state):
        self.graph, self.balance, self.fixture, self.config = state
        self._engine = None

    def _build_engine(self):  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def engine(self):
        """The cached engine, built on first use."""
        if self._engine is None:
            self._engine = self._build_engine()
        return self._engine


class MultilevelStartTask(_EngineStartTask):
    """One multilevel start per seed (picklable for process pools)."""

    def _build_engine(self) -> MultilevelBipartitioner:
        return MultilevelBipartitioner(
            self.graph,
            balance=self.balance,
            fixture=self.fixture,
            config=self.config,
        )

    def __call__(self, start_seed: int) -> Bipartition:
        return self.engine.run(seed=start_seed).solution


class FlatFMStartTask(_EngineStartTask):
    """One flat-FM start from a random balanced construction per seed."""

    def _build_engine(self) -> FMBipartitioner:
        return FMBipartitioner(
            self.graph,
            self.balance,
            fixture=self.fixture,
            config=self.config,
        )

    def initial(self, start_seed: int) -> List[int]:
        """The random balanced start of ``start_seed``."""
        return random_balanced_bipartition(
            self.graph,
            self.balance,
            fixture=self.fixture,
            rng=random.Random(start_seed),
        )

    def __call__(self, start_seed: int) -> Bipartition:
        return self.engine.run(self.initial(start_seed)).solution


class KWayStartTask(_EngineStartTask):
    """One construct-and-refine k-way start per seed.

    The :class:`KWayFMRefiner` is reusable (its kernel buffers are
    re-derived per run), so one cached refiner per process serves every
    start instead of rebuilding the engine -- adjacency flattening and
    buffer allocation happen once.  Each start is the refiner's own
    :meth:`~KWayFMRefiner.construct_and_refine`, the same call
    :func:`kway_fm_partition` makes on a fresh refiner, so results stay
    bit-identical.
    """

    def _build_engine(self) -> KWayFMRefiner:
        return KWayFMRefiner(
            self.graph,
            self.balance,
            fixture=self.fixture,
            config=self.config,
        )

    def __call__(self, start_seed: int):
        return self.engine.construct_and_refine(start_seed)


def multilevel_multistart(
    graph: Hypergraph,
    balance: BalanceConstraint,
    fixture: Optional[Sequence[int]] = None,
    config: Optional[MultilevelConfig] = None,
    num_starts: int = 1,
    seed: int = 0,
    jobs: int = 1,
    seeds: Optional[Sequence[int]] = None,
    policy: Optional[ExecutionPolicy] = None,
    checkpoint: Optional[CheckpointBatch] = None,
) -> MultistartResult:
    """Multistart over the multilevel engine."""
    task = MultilevelStartTask(graph, balance, fixture, config)
    return run_multistart(
        task, num_starts, seed=seed, jobs=jobs, seeds=seeds,
        policy=policy, checkpoint=checkpoint,
    )


def flat_fm_multistart(
    graph: Hypergraph,
    balance: BalanceConstraint,
    fixture: Optional[Sequence[int]] = None,
    config: Optional[FMConfig] = None,
    num_starts: int = 1,
    seed: int = 0,
    jobs: int = 1,
    seeds: Optional[Sequence[int]] = None,
    policy: Optional[ExecutionPolicy] = None,
    checkpoint: Optional[CheckpointBatch] = None,
) -> MultistartResult:
    """Multistart over flat FM from random balanced constructions."""
    task = FlatFMStartTask(graph, balance, fixture, config)
    return run_multistart(
        task, num_starts, seed=seed, jobs=jobs, seeds=seeds,
        policy=policy, checkpoint=checkpoint,
    )


def kway_multistart(
    graph: Hypergraph,
    balance: BalanceConstraint,
    fixture: Optional[Sequence[int]] = None,
    config: Optional[KWayFMConfig] = None,
    num_starts: int = 1,
    seed: int = 0,
    jobs: int = 1,
    seeds: Optional[Sequence[int]] = None,
    policy: Optional[ExecutionPolicy] = None,
    checkpoint: Optional[CheckpointBatch] = None,
) -> MultistartResult:
    """Multistart over the flat k-way construct-and-refine engine."""
    task = KWayStartTask(graph, balance, fixture, config)
    return run_multistart(
        task, num_starts, seed=seed, jobs=jobs, seeds=seeds,
        policy=policy, checkpoint=checkpoint,
    )
