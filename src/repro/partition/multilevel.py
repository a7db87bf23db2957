"""Multilevel FM hypergraph bipartitioner.

The paper's experimental engine: heavy-edge-matching coarsening with a
clustering-ratio stop, randomized FM initial partitioning at the coarsest
level, and CLIP-FM refinement at every level of the uncoarsening.
V-cycling is implemented but off by default ("we have determined that
V-cycling is a net loss in terms of overall cost-runtime profile of our
partitioner").  Fixed vertices survive every level: coarsening never
merges vertices fixed in different blocks, and refinement never moves a
fixed cluster.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import (
    BalanceConstraint,
    relative_bipartition_balance,
)
from repro.partition.fm import FMBipartitioner, FMConfig, FMResult
from repro.partition.initial import (
    random_balanced_bipartition,
    terminal_seeded_bipartition,
)
from repro.partition.matching import (
    CoarseLevel,
    coarsen,
    heavy_edge_matching,
    random_matching,
)
from repro.partition.solution import (
    FREE,
    Bipartition,
    block_loads,
    validate_fixture,
)
from repro.runtime.observe import recorder as _observe

MATCHING_SCHEMES = ("heavy", "random")

CLUSTERING_RATIO = 0.9
"""Largest coarse/fine vertex-count ratio a matching round may produce;
a round that shrinks less stops the coarsening (the matcher has run out
of signal)."""

MAX_CLUSTER_AREA_FRACTION = 0.04
"""Cap on a cluster's area, as a fraction of the graph's total area."""

MAX_LEVELS = 40
"""Safety bound on coarsening levels."""

REFINE_POLICY = "clip"
"""FM selection policy at every level: the paper's CLIP FM."""


@dataclass(frozen=True)
class MultilevelConfig:
    """Parameters of the multilevel engine.

    ``coarsest_size`` stops coarsening once few enough movable vertices
    remain.  ``adaptive_stop`` turns on the flat engine's random-walk
    pass termination (:data:`repro.partition.fm.ADAPTIVE_STOP_ALPHA`)
    for initial partitioning, refinement at every level and V-cycles;
    most moves of an exhaustive pass are rolled back anyway.  ``False``
    reproduces the exhaustive engine bit for bit.  Every level refines
    with :data:`REFINE_POLICY` FM and exhaustive-length passes.
    """

    coarsest_size: int = 120
    matching: str = "heavy"
    initial_starts: int = 4
    terminal_seeded_starts: bool = True
    adaptive_stop: bool = True
    vcycles: int = 0

    def __post_init__(self) -> None:
        if self.matching not in MATCHING_SCHEMES:
            raise ValueError(
                f"unknown matching {self.matching!r}; "
                f"expected one of {MATCHING_SCHEMES}"
            )
        if self.coarsest_size < 2:
            raise ValueError("coarsest_size must be at least 2")
        if self.initial_starts < 1:
            raise ValueError("initial_starts must be positive")
        if self.vcycles < 0:
            raise ValueError("vcycles must be non-negative")


@dataclass
class MultilevelResult:
    """Outcome of one multilevel run."""

    solution: Bipartition
    num_levels: int
    coarsest_vertices: int
    refinement_passes: int = 0
    vcycles_run: int = 0


class MultilevelBipartitioner:
    """Multilevel engine bound to one (graph, balance, fixture) triple."""

    def __init__(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        fixture: Optional[Sequence[int]] = None,
        config: Optional[MultilevelConfig] = None,
    ) -> None:
        self.graph = graph
        self.config = config or MultilevelConfig()
        self.balance = balance or relative_bipartition_balance(
            graph.total_area, 0.02
        )
        if self.balance.num_parts != 2:
            raise ValueError("MultilevelBipartitioner is strictly 2-way")
        n = graph.num_vertices
        if fixture is None:
            fixture = [FREE] * n
        validate_fixture(fixture, n, 2)
        self.fixture = list(fixture)
        # FM engines pooled by hierarchy depth (0 = the input graph):
        # refinement at every level of every start/V-cycle rebinds the
        # engine of its depth (buffers resized in place) instead of
        # allocating a fresh one, so the pool never outgrows the deepest
        # hierarchy, however many starts the engine runs.
        self._engine_pool: Dict[int, FMBipartitioner] = {}

    # ------------------------------------------------------------------
    def run(self, seed: int = 0) -> MultilevelResult:
        """One full multilevel start, deterministic in ``seed``.

        With an active trace recorder the run is wrapped in a
        ``multilevel`` span (coarsening, initial partitioning, and
        per-level refinement appear as child spans); with the default
        null recorder this delegates straight to the engine.
        """
        recorder = _observe.active()
        if not recorder.enabled:
            return self._run(seed)
        with recorder.span("multilevel", seed=seed) as span:
            result = self._run(seed)
            span.set(
                levels=result.num_levels,
                coarsest_vertices=result.coarsest_vertices,
                passes=result.refinement_passes,
                final_cut=result.solution.cut,
            )
            recorder.count("multilevel.runs")
            recorder.count("multilevel.levels", result.num_levels)
            loads = block_loads(self.graph, result.solution.parts, 2)
            if not self.balance.is_feasible(loads):
                recorder.count("multilevel.infeasible")
        return result

    def _run(self, seed: int = 0) -> MultilevelResult:
        """The uninstrumented engine (see :meth:`run`)."""
        rec = _observe.active()
        rng = random.Random(seed)
        levels = self._build_hierarchy(rng)
        coarsest_graph = levels[-1].coarse if levels else self.graph
        coarsest_fixture = levels[-1].fixture if levels else self.fixture

        with rec.span(
            "initial_partition", vertices=coarsest_graph.num_vertices
        ) as sp:
            solution, passes = self._initial_partition(
                coarsest_graph, coarsest_fixture, len(levels), rng
            )
            sp.set(cut=solution.cut)
        solution, passes = self._uncoarsen(levels, solution, passes)

        for index in range(self.config.vcycles):
            with rec.span("vcycle", index=index) as sp:
                solution, passes = self._vcycle(solution, passes, rng)
                sp.set(cut=solution.cut)

        return MultilevelResult(
            solution=solution,
            num_levels=len(levels),
            coarsest_vertices=coarsest_graph.num_vertices,
            refinement_passes=passes,
            vcycles_run=self.config.vcycles,
        )

    # ------------------------------------------------------------------
    def _build_hierarchy(
        self,
        rng: random.Random,
        partition_guard: Optional[Sequence[int]] = None,
    ) -> List[CoarseLevel]:
        """Coarsen until the movable count or the shrink rate bottoms out.

        ``partition_guard`` (used by V-cycling) restricts matching to
        vertex pairs inside the same block of an existing partition, so
        the current solution stays representable at every coarse level.
        """
        cfg = self.config
        rec = _observe.active()
        levels: List[CoarseLevel] = []
        graph = self.graph
        fixture = self.fixture
        guard = list(partition_guard) if partition_guard is not None else None
        max_cluster_area = MAX_CLUSTER_AREA_FRACTION * graph.total_area

        while len(levels) < MAX_LEVELS:
            movable = fixture.count(FREE)
            if movable <= cfg.coarsest_size:
                break
            # With a guard, merging is restricted to same-block pairs by
            # handing the matcher the guard as a pseudo-fixture; the true
            # fixture is still what propagates to the coarse level.  Any
            # guard-legal merge is fixture-legal because fixed vertices
            # always sit inside their own block.
            matcher_fixture = guard if guard is not None else fixture
            with rec.span(
                "coarsen",
                level=len(levels),
                fine_vertices=graph.num_vertices,
            ) as sp:
                labels = self._match(
                    graph, matcher_fixture, rng, max_cluster_area
                )
                coarse_n = max(labels) + 1
                sp.set(coarse_vertices=coarse_n)
                if coarse_n >= CLUSTERING_RATIO * graph.num_vertices:
                    sp.set(stopped=True)
                    break
                level = self._coarsen(graph, fixture, labels)
            levels.append(level)
            graph = level.coarse
            fixture = level.fixture
            if guard is not None:
                new_guard = [0] * coarse_n
                for v, c in enumerate(labels):
                    new_guard[c] = guard[v]
                guard = new_guard
        return levels

    def _match(
        self,
        graph: Hypergraph,
        fixture: Sequence[int],
        rng: random.Random,
        max_cluster_area: float,
    ) -> List[int]:
        """One matching round (seam for benchmarks swapping in the
        reference matchers)."""
        if self.config.matching == "heavy":
            return heavy_edge_matching(
                graph,
                fixture=fixture,
                rng=rng,
                max_cluster_area=max_cluster_area,
                num_parts=2,
            )
        return random_matching(
            graph,
            fixture=fixture,
            rng=rng,
            max_cluster_area=max_cluster_area,
            num_parts=2,
        )

    def _coarsen(
        self,
        graph: Hypergraph,
        fixture: Sequence[int],
        labels: Sequence[int],
    ) -> CoarseLevel:
        """One contraction (seam for benchmarks swapping in the
        reference contraction)."""
        return coarsen(graph, fixture, labels)

    def _initial_partition(
        self,
        graph: Hypergraph,
        fixture: List[int],
        depth: int,
        rng: random.Random,
    ) -> Tuple[Bipartition, int]:
        """Best of ``initial_starts`` FM runs, as (solution, passes).

        Constructions alternate between random balanced assignments and
        (when the coarsest level carries fixed vertices) the
        terminal-seeded propagation construction -- the fixed-terminals
        regime rewards starting from what the terminals dictate rather
        than from noise.
        """
        engine = self._flat_engine(graph, fixture, depth)
        has_terminals = self.config.terminal_seeded_starts and any(
            f != FREE for f in fixture
        )
        best: Optional[Bipartition] = None
        passes = 0
        for start in range(self.config.initial_starts):
            if has_terminals and start % 2 == 0:
                init = terminal_seeded_bipartition(
                    graph, self.balance, fixture, rng=rng
                )
            else:
                init = random_balanced_bipartition(
                    graph, self.balance, fixture=fixture, rng=rng
                )
            result = engine.run(init)
            passes += result.num_passes
            if best is None or result.solution.cut < best.cut:
                best = result.solution
        assert best is not None
        return best, passes

    def _uncoarsen(
        self, levels: List[CoarseLevel], solution: Bipartition, passes: int
    ) -> Tuple[Bipartition, int]:
        """Project ``solution`` from the coarsest graph of ``levels`` down
        to the input graph, refining at every depth on the way.

        ``levels[i]`` maps the graph of depth ``i`` onto
        ``levels[i].coarse`` (depth ``i + 1``).  Returns the refined
        solution and ``passes`` plus the passes spent; every cut comes
        from the engine of its depth, derived from the projected parts.
        """
        for depth in range(len(levels) - 1, -1, -1):
            result = self._refine(
                levels, depth, levels[depth].project(solution.parts)
            )
            solution = result.solution
            passes += result.num_passes
        return solution, passes

    def _refine(
        self, levels: List[CoarseLevel], depth: int, parts: List[int]
    ) -> FMResult:
        """One FM run on the graph of ``depth``, in a ``refine`` span."""
        graph = levels[depth - 1].coarse if depth else self.graph
        fixture = levels[depth - 1].fixture if depth else self.fixture
        with _observe.active().span(
            "refine", level=depth, vertices=graph.num_vertices
        ) as sp:
            result = self._flat_engine(graph, fixture, depth).run(parts)
            sp.set(cut=result.solution.cut)
        return result

    def _vcycle(
        self, solution: Bipartition, passes: int, rng: random.Random
    ) -> Tuple[Bipartition, int]:
        """One V-cycle: re-coarsen restricted to the current partition,
        refine the coarsest graph, then uncoarsen as a start does.

        Returns the refined solution and ``passes`` plus the passes
        spent.  The guard keeps every cluster inside one block, so the
        current partition projects onto every coarse level unchanged.
        """
        levels = self._build_hierarchy(rng, partition_guard=solution.parts)
        coarse_parts = solution.parts
        for level in levels:
            projected = [0] * level.coarse.num_vertices
            for v, c in enumerate(level.contraction.fine_to_coarse):
                projected[c] = coarse_parts[v]
            coarse_parts = projected
        result = self._refine(levels, len(levels), coarse_parts)
        return self._uncoarsen(
            levels, result.solution, passes + result.num_passes
        )

    def _flat_engine(
        self, graph: Hypergraph, fixture: Sequence[int], depth: int
    ) -> FMBipartitioner:
        """The pooled FM engine of ``depth``, bound to ``(graph, fixture)``.

        ``depth`` is the graph's place in the hierarchy: 0 for the input
        graph, ``len(levels)`` for the coarsest.  A rebind resizes the
        pooled engine's buffers in place and recomputes every
        graph-derived member, so reuse across graphs is a pure
        allocation win, never a correctness hazard; at depth 0 the graph
        never changes and ``rebind`` returns at once.
        """
        engine = self._engine_pool.get(depth)
        if engine is not None:
            return engine.rebind(graph, fixture)
        engine = FMBipartitioner(
            graph,
            self.balance,
            fixture=fixture,
            config=FMConfig(
                policy=REFINE_POLICY, adaptive_stop=self.config.adaptive_stop
            ),
        )
        self._engine_pool[depth] = engine
        return engine
