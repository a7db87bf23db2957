"""Flat Fiduccia--Mattheyses bipartitioning with fixed vertices.

This is the paper's workhorse: pass-based iterative improvement where
every movable vertex moves at most once per pass, the best prefix of the
move sequence is restored at pass end, and passes repeat until one fails
to improve.  Three selection policies are provided:

* ``lifo``  -- classic FM; the most recently inserted vertex of the best
  gain bucket moves first;
* ``fifo``  -- the oldest vertex of the best bucket moves first;
* ``clip``  -- CLIP (Dutt--Deng): buckets are keyed by accumulated gain
  *updates* since the start of the pass, so cells adjacent to recent
  moves float to the top, sweeping out clusters.

Fixed vertices (the paper's subject) never enter the buckets but still
contribute to net pin counts, so they anchor the gains of their
neighbours exactly as propagated terminals do in top-down placement.
Section III's pass-cutoff heuristic is the ``pass_move_limit_fraction``
knob: every pass after the first stops once that fraction of the movable
vertices has moved.  ``adaptive_stop`` is the random-walk stopping rule
of n-level partitioners (see :data:`ADAPTIVE_STOP_ALPHA`): a pass ends
once the gains since its last improvement make a further improvement
improbable.

Kernel layout
-------------

The inner loop is a flat-array kernel.  The engine owns persistent
plain-list buffers -- per-side net pin counts (``_cnt0/_cnt1``),
per-side pin-id sums (``_ids0/_ids1``) and the per-vertex exact gains
(``_gain``) -- the per-net ``_pair`` list, and one reusable
:class:`GainBucket` per side.  Lists, not :mod:`array` buffers: list
subscripts return the stored int object and the interpreter
specializes them, where every ``array`` access boxes or unboxes a
fresh int (docs/performance.md, "Buffer layout").  The invariants:

* ``pair[e]`` is the pin-id sum of net ``e`` if it has two pins and
  positive weight, and -1 otherwise.  Such a net is a graph edge to the
  kernel: when ``v`` moves, the other pin ``u = pair[e] - v`` gains
  ``2w`` if it shares ``v``'s side (the net becomes cut) and loses
  ``2w`` otherwise, in one bucket relink, and the net's pin counts are
  never touched.
* Between passes, ``cnt``/``ids`` are exact with respect to ``parts``
  for every net with ``pair[e] < 0`` (for the others they hold stale
  values nothing reads), and ``gain`` is exact for every movable
  vertex.  A pass mutates them move by move, and the end-of-pass
  rollback restores them *incrementally*: one replay loop flips each
  vertex of either the undone suffix (backwards, on the end-of-pass
  state) or the kept prefix (forwards, on the copied-back pass-start
  snapshot), whichever is shorter, with the same delta-gain formulas.
  Pass setup is therefore O(movable) bucket inserts instead of an
  O(pins) count-and-gain rebuild.
* ``ids0[e]``/``ids1[e]`` hold the sum of pin ids of net ``e`` on each
  side; when a side's pin count is 1 the id sum *is* the unique pin, so
  the single-pin gain update is O(1) instead of a scan of ``epins[e]``.
* A whole-net gain update touches pins of one side only: before a move
  from ``s`` to ``t`` a net with no pin on ``t`` has every pin on ``s``,
  and after it a net with no pin on ``s`` has every pin on ``t``.  So
  each of the six bucket relink sites of a move (the two-pin edge, once
  per side of ``u``; the whole-net and single-pin updates, before and
  after the counts change) reads a single side's bucket views, guarded
  by that side's ``present`` flag (locked pins only need their gain
  scalar kept current for the next pass).
* Selection skips, before its float balance test, every vertex whose
  area exceeds a per-side bound the balance gate would reject it by
  anyway (see the selection comment in :meth:`FMBipartitioner._run_pass`).

The kernel preserves the *exact* move sequence of the straightforward
implementation retained in :mod:`repro.partition.fm_reference`: same
moves in the same order, same pass records, same cuts, bit for bit.
``tests/partition/test_fm_kernel_differential.py`` enforces this and
``benchmarks/fm_kernel.py`` measures the speedup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.gainbucket import GainBucket
from repro.runtime.observe import recorder as _observe
from repro.partition.solution import (
    FREE,
    Bipartition,
    validate_fixture,
)

POLICIES = ("lifo", "fifo", "clip")

_HARD_PASS_CAP = 200
"""Safety bound on passes per run; a run otherwise ends at the first
pass that does not improve.

FM converges in well under 20 passes on every instance in the
literature (the paper's Table II reports ~6); the cap only guards
against pathological non-termination.
"""

_NIL = -2
"""GainBucket link terminator, mirrored here for the inlined hot loop."""

ADAPTIVE_STOP_ALPHA = 50.0
"""Variance weight ``alpha`` of the adaptive pass-stopping rule.

The rule (Schlag et al., *k-way Hypergraph Partitioning via n-Level
Recursive Bisection*) models the gains of the moves made since the last
best-prefix improvement as a random walk with running mean ``mu`` and
variance ``sigma2`` over ``p`` steps.  While the best prefix is
balance-feasible, the pass stops once ``p > beta``, ``mu < 0`` and
``p * mu**2 > alpha * sigma2 + beta`` with ``beta = ln(movable)``: the
walk drifts downward faster than its noise could plausibly undo.  A
larger ``alpha`` tolerates noisier walks and stops later.  50 is the
smallest of {1, 3, 10, 30, 50, 100} that keeps every EXPERIMENTS.md
shape check passing and the mean cut within +1% of exhaustive passes on
the full-profile Fig. 1, Fig. 2 and Table III sweeps; see
docs/performance.md, "Adaptive pass termination", for the evidence.
"""


@dataclass(frozen=True)
class FMConfig:
    """Tuning knobs of the flat FM engine.

    ``pass_move_limit_fraction`` below 1.0 enables the paper's Section III
    cutoff: passes after the first stop once ``fraction * movable`` moves
    have been made.  Passes repeat until one fails to improve.
    ``record_moves`` keeps the full per-pass move sequence on the result
    (used by the differential tests and the kernel benchmark).
    ``adaptive_stop`` ends a pass early by the random-walk rule of
    :data:`ADAPTIVE_STOP_ALPHA`; off by default, so flat FM (Tables
    II/III) makes every move the reference engine makes.
    """

    policy: str = "lifo"
    pass_move_limit_fraction: float = 1.0
    record_moves: bool = False
    adaptive_stop: bool = False

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of {POLICIES}"
            )
        if not 0.0 < self.pass_move_limit_fraction <= 1.0:
            raise ValueError("pass_move_limit_fraction must be in (0, 1]")


@dataclass(frozen=True)
class PassRecord:
    """Statistics of one FM pass (the raw material of Table II)."""

    pass_index: int
    movable: int
    moves_made: int
    best_prefix: int
    cut_before: int
    cut_after: int
    feasible_after: bool
    adaptive_stopped: bool = False
    """True when the adaptive stopping rule ended the pass."""

    @property
    def moved_fraction(self) -> float:
        """Moves made / movable vertices (0 when nothing is movable)."""
        return self.moves_made / self.movable if self.movable else 0.0

    @property
    def wasted_moves(self) -> int:
        """Moves undone by the end-of-pass rollback."""
        return self.moves_made - self.best_prefix

    @property
    def best_prefix_fraction(self) -> float:
        """Position of the restored best solution within the pass."""
        return self.best_prefix / self.moves_made if self.moves_made else 0.0


@dataclass
class FMResult:
    """Outcome of an FM run."""

    solution: Bipartition
    passes: List[PassRecord] = field(default_factory=list)
    initial_cut: int = 0
    move_logs: List[List[int]] = field(default_factory=list)
    """Per-pass move sequences (pre-rollback); filled only when the
    config sets ``record_moves``."""

    @property
    def num_passes(self) -> int:
        """Passes executed (including the final non-improving one)."""
        return len(self.passes)

    @property
    def total_moves(self) -> int:
        """Moves attempted across all passes."""
        return sum(p.moves_made for p in self.passes)


# Lexicographic solution-quality key: a feasible solution always beats an
# infeasible one; among feasible ones lower cut wins, then tighter
# balance; among infeasible ones lower violation wins (so FM repairs
# balance first), then lower cut.
_QualityKey = Tuple[int, float, float]


def _resize_zeroed(buf: List[int], length: int) -> None:
    """Resize an int list in place, zero-filling any growth."""
    del buf[length:]
    buf.extend([0] * (length - len(buf)))


def flatten_graph(graph: Hypergraph, fixture: Sequence[int]) -> tuple:
    """The per-graph adjacency both FM engines bind to.

    Returns ``(vnets, epins, eweight, areas, movable, max_gain,
    escape_slack)``: per-vertex net lists, per-net pin lists, net
    weights and vertex areas as plain lists, the free vertices, the
    largest total net weight of a free vertex, and the escape slack
    (the smallest positive free-vertex area).  The adjacency lists are
    sliced from the graph's stored :meth:`Hypergraph.csr_lists`; the
    weights and areas are those stored lists themselves, so binding an
    engine copies no CSR.
    """
    net_ptr, net_pins, vtx_ptr, vtx_nets, eweight, areas = graph.csr_lists()
    vnets = [vtx_nets[a:b] for a, b in zip(vtx_ptr, vtx_ptr[1:])]
    epins = [net_pins[a:b] for a, b in zip(net_ptr, net_ptr[1:])]
    movable = [v for v, f in enumerate(fixture) if f == FREE]
    max_gain = max(
        (sum(eweight[e] for e in vnets[v]) for v in movable), default=0
    )
    # Escape slack for balance windows narrower than one cell: the
    # smallest positive movable area is the quantum by which loads can
    # change, so transient violations up to it must be passable or FM
    # deadlocks on tight tolerances (e.g. 2% of a tiny block).
    escape_slack = min(
        (areas[v] for v in movable if areas[v] > 0), default=0.0
    )
    return vnets, epins, eweight, areas, movable, max_gain, escape_slack


def _record_fm_run(recorder, span, config: FMConfig, result: FMResult) -> None:
    """Emit the trace of one completed FM run (enabled recorders only).

    Everything here is read off the result's pass records, so the
    kernel's hot loop carries zero instrumentation.  Bucket traffic is
    derived rather than counted in the loop: each pass inserts every
    movable vertex once and each executed move pops one entry.  A pass
    "triggers the cutoff" when its move count reached the Section III
    limit while movable vertices remained and the adaptive rule did not
    end it first.  ``fm.adaptive_stops`` is emitted only when nonzero, so
    traces of exhaustive runs keep their shape.
    """
    span.set(
        initial_cut=result.initial_cut,
        final_cut=result.solution.cut,
        passes=result.num_passes,
    )
    recorder.count("fm.runs")
    recorder.count("fm.passes", result.num_passes)
    recorder.count("fm.moves", result.total_moves)
    fraction = config.pass_move_limit_fraction
    adaptive_stops = 0
    for record in result.passes:
        recorder.event(
            "fm.pass",
            pass_index=record.pass_index,
            movable=record.movable,
            moves_made=record.moves_made,
            best_prefix=record.best_prefix,
            cut_before=record.cut_before,
            cut_after=record.cut_after,
            feasible_after=record.feasible_after,
        )
        recorder.count("fm.best_prefix_moves", record.best_prefix)
        recorder.count("fm.wasted_moves", record.wasted_moves)
        recorder.count("fm.bucket.inserts", record.movable)
        recorder.count("fm.bucket.pops", record.moves_made)
        recorder.hist("fm.pass.moves", record.moves_made)
        recorder.hist("fm.pass.best_prefix", record.best_prefix)
        if record.adaptive_stopped:
            adaptive_stops += 1
        elif (
            record.pass_index > 0
            and fraction < 1.0
            and record.moves_made < record.movable
            and record.moves_made == max(1, int(fraction * record.movable))
        ):
            recorder.count("fm.cutoff_triggers")
    if adaptive_stops:
        recorder.count("fm.adaptive_stops", adaptive_stops)


class FMBipartitioner:
    """Reusable FM engine bound to one (graph, balance, fixture) triple.

    The engine carries persistent pass state (see the module docstring);
    every :meth:`run` re-derives that state from its initial assignment,
    so one engine instance can serve any number of runs -- including
    interleaved runs from multistart drivers -- as long as they are
    sequential.
    """

    def __init__(
        self,
        graph: Hypergraph,
        balance: BalanceConstraint,
        fixture: Optional[Sequence[int]] = None,
        config: Optional[FMConfig] = None,
    ) -> None:
        if balance.num_parts != 2:
            raise ValueError("FMBipartitioner is strictly 2-way")
        self.balance = balance
        self.config = config or FMConfig()

        # Persistent kernel buffers.  _bind sizes them to the bound
        # graph; rebind() re-shapes them in place instead of
        # reallocating, which is what makes one engine serve a whole
        # multilevel hierarchy.
        self._cnt0: List[int] = []
        self._cnt1: List[int] = []
        self._ids0: List[int] = []
        self._ids1: List[int] = []
        self._gain: List[int] = []
        self._snap_cnt0: List[int] = []
        self._snap_cnt1: List[int] = []
        self._snap_ids0: List[int] = []
        self._snap_ids1: List[int] = []
        self._snap_gain: List[int] = []
        self._snap_parts: List[int] = []
        self._buckets: Optional[Tuple[GainBucket, GainBucket]] = None

        self.graph: Optional[Hypergraph] = None
        self.fixture: Optional[List[int]] = None
        self._bind(graph, fixture)

    def rebind(
        self,
        graph: Hypergraph,
        fixture: Optional[Sequence[int]] = None,
    ) -> "FMBipartitioner":
        """Re-target the engine at a new ``(graph, fixture)`` pair.

        All graph-derived state is recomputed, but every kernel buffer and
        both gain buckets are resized in place rather than reallocated --
        the engine-pool fast path for multilevel drivers that refine a
        stack of similarly-shaped graphs.  Returns ``self``.
        """
        new_fixture = (
            list(fixture)
            if fixture is not None
            else [FREE] * graph.num_vertices
        )
        if graph is self.graph and new_fixture == self.fixture:
            return self
        self._bind(graph, new_fixture)
        return self

    def _bind(
        self,
        graph: Hypergraph,
        fixture: Optional[Sequence[int]],
    ) -> None:
        """Derive all per-graph state; reuse buffer allocations."""
        n = graph.num_vertices
        if fixture is None:
            fixture = [FREE] * n
        validate_fixture(fixture, n, 2)
        self.graph = graph
        self.fixture = list(fixture)

        # Flatten adjacency into plain lists once; the inner loop must not
        # pay slice/reconstruction costs on every access.
        (
            self._vnets,
            self._epins,
            self._eweight,
            self._areas,
            self._movable,
            self._max_gain,
            self._escape_slack,
        ) = flatten_graph(graph, self.fixture)
        self._free_mask: List[bool] = [f == FREE for f in self.fixture]
        # Two-pin nets of positive weight are plain graph edges to the
        # kernel: pair[e] is the pin-id sum, so the other pin of v is
        # pair[e] - v.  Every other net (wider, single-pin or of zero
        # weight) reads -1 and takes the counted path.
        self._pair: List[int] = [
            pins[0] + pins[1] if len(pins) == 2 and w else -1
            for pins, w in zip(self._epins, self._eweight)
        ]

        # Kernel buffers, resized in place.  cnt/ids are fully rewritten
        # by _init_run_state and gain is set per movable vertex, so stale
        # tails from a previous binding are never read.
        num_nets = graph.num_nets
        _resize_zeroed(self._cnt0, num_nets)
        _resize_zeroed(self._cnt1, num_nets)
        _resize_zeroed(self._ids0, num_nets)
        _resize_zeroed(self._ids1, num_nets)
        _resize_zeroed(self._gain, n)

        # Pass-start snapshots for the cheaper-direction restore: when a
        # pass keeps no more moves than it undoes, copying the snapshot
        # back (C-speed slice copies) and replaying the kept prefix
        # beats replaying the undone suffix.
        _resize_zeroed(self._snap_cnt0, num_nets)
        _resize_zeroed(self._snap_cnt1, num_nets)
        _resize_zeroed(self._snap_ids0, num_nets)
        _resize_zeroed(self._snap_ids1, num_nets)
        _resize_zeroed(self._snap_gain, n)
        if len(self._snap_parts) != n:
            self._snap_parts = [0] * n

        # One reusable bucket per side; reset() per pass instead of two
        # fresh allocations.  CLIP keys are accumulated updates, whose
        # magnitude is bounded by 2 * max_gain (see GainBucket.adjust).
        limit = (
            2 * self._max_gain
            if self.config.policy == "clip"
            else self._max_gain
        )
        if self._buckets is None:
            self._buckets = (GainBucket(n, limit), GainBucket(n, limit))
        else:
            self._buckets[0].resize(n, limit)
            self._buckets[1].resize(n, limit)
        self._bucket_limit = limit

    # ------------------------------------------------------------------
    def run(self, initial_parts: Sequence[int]) -> FMResult:
        """Improve ``initial_parts`` and return the best solution found.

        Fixed vertices are forced onto their mandated side before the
        first pass, so any initial assignment for them is tolerated.
        The starting cut is counted in the pin walk that derives the run
        state, so every cut the engine reports is derived from the
        assignment, never handed in.

        With a :mod:`repro.runtime.observe` recorder active, the run is
        wrapped in an ``fm.run`` span carrying one ``fm.pass`` event per
        pass -- emitted *after* the kernel returns, from the pass records
        it produces anyway, so the move sequence is untouched and traced
        runs stay bit-identical to untraced ones.
        """
        recorder = _observe.active()
        if not recorder.enabled:
            return self._run(initial_parts)
        with recorder.span(
            "fm.run",
            policy=self.config.policy,
            movable=len(self._movable),
        ) as span:
            result = self._run(initial_parts)
            _record_fm_run(recorder, span, self.config, result)
        return result

    def _run(self, initial_parts: Sequence[int]) -> FMResult:
        """The uninstrumented engine (see :meth:`run`)."""
        graph = self.graph
        n = graph.num_vertices
        if len(initial_parts) != n:
            raise ValueError("initial_parts length mismatch")
        parts = [
            f if f != FREE else int(p)
            for p, f in zip(initial_parts, self.fixture)
        ]
        for v, p in enumerate(parts):
            if p not in (0, 1):
                raise ValueError(f"vertex {v} assigned to invalid side {p}")

        loads = [0.0, 0.0]
        for v in range(n):
            loads[parts[v]] += self._areas[v]
        cut = self._init_run_state(parts)
        result = FMResult(
            solution=Bipartition(parts=parts, cut=cut), initial_cut=cut
        )
        if not self._movable:
            return result

        record_moves = self.config.record_moves
        pass_index = 0
        while pass_index < _HARD_PASS_CAP:
            key_before = self._progress_key(cut, loads)
            record, cut, move_log = self._run_pass(
                parts, loads, cut, pass_index
            )
            result.passes.append(record)
            if record_moves:
                result.move_logs.append(move_log)
            pass_index += 1
            # Another pass is justified only by a cut improvement (or a
            # violation reduction while infeasible).  Imbalance alone is
            # a within-pass tie-breaker: chaining passes on epsilon
            # imbalance gains could run for an astronomically long time
            # without ever touching the cut.
            if not self._progress_key(cut, loads) < key_before:
                break
        result.solution = Bipartition(parts=parts, cut=cut)
        return result

    # ------------------------------------------------------------------
    def _init_run_state(self, parts: List[int]) -> int:
        """Derive cnt/ids/gain from ``parts`` (once per run); return the
        cut of ``parts``, read off the side counts of the same pin walk.

        Subsequent passes keep these buffers exact incrementally (the
        counts and id sums of counted nets, ``pair[e] < 0``, and every
        movable gain): moves update them forward and the rollback
        replays moves to the best prefix, so no per-pass rebuild is
        needed.
        """
        cnt0 = self._cnt0
        cnt1 = self._cnt1
        ids0 = self._ids0
        ids1 = self._ids1
        epins = self._epins
        eweight = self._eweight
        cut = 0
        for e in range(len(epins)):
            c0 = 0
            s0 = 0
            c1 = 0
            s1 = 0
            for v in epins[e]:
                if parts[v]:
                    c1 += 1
                    s1 += v
                else:
                    c0 += 1
                    s0 += v
            cnt0[e] = c0
            cnt1[e] = c1
            ids0[e] = s0
            ids1[e] = s1
            if c0 and c1:
                cut += eweight[e]

        vnets = self._vnets
        gain = self._gain
        for v in self._movable:
            cs_, ct_ = (cnt1, cnt0) if parts[v] else (cnt0, cnt1)
            g = 0
            for e in vnets[v]:
                w = eweight[e]
                if cs_[e] == 1:
                    g += w
                if ct_[e] == 0:
                    g -= w
            gain[v] = g
        return cut

    # ------------------------------------------------------------------
    def _run_pass(
        self,
        parts: List[int],
        loads: List[float],
        cut: int,
        pass_index: int,
    ) -> Tuple[PassRecord, int, List[int]]:
        """One FM pass; leaves ``parts``/``loads`` at the best prefix.

        This is the kernel: bucket links, pin counts and gains are
        manipulated through pre-bound local references, and the
        single-pin / whole-net gain updates use the id-sum buffers and
        the one-side rule described in the module docstring.
        """
        epins = self._epins
        eweight = self._eweight
        vnets = self._vnets
        areas = self._areas
        gain = self._gain
        free = self._free_mask
        cnt0 = self._cnt0
        cnt1 = self._cnt1
        ids0 = self._ids0
        ids1 = self._ids1
        clip = self.config.policy == "clip"
        fifo = self.config.policy == "fifo"

        # Snapshot the pass-start net/gain state (C-speed slice copies)
        # for the cheaper-direction restore at pass end.  Final passes
        # keep nothing, so their restore collapses to the copies alone.
        snap_cnt0 = self._snap_cnt0
        snap_cnt1 = self._snap_cnt1
        snap_ids0 = self._snap_ids0
        snap_ids1 = self._snap_ids1
        snap_gain = self._snap_gain
        snap_parts = self._snap_parts
        snap_cnt0[:] = cnt0
        snap_cnt1[:] = cnt1
        snap_ids0[:] = ids0
        snap_ids1[:] = ids1
        snap_gain[:] = gain
        snap_parts[:] = parts

        b0, b1 = self._buckets
        b0.reset()
        b1.reset()

        # Local views of the bucket internals for the inlined hot loop.
        # Writes go through these shared lists; the scalar max/count
        # state lives in the two small lists below and is written back
        # to the bucket objects before returning.
        limit = self._bucket_limit
        h0, t0, p0, n0 = b0._head, b0._tail, b0._prev, b0._next
        k0, pr0 = b0._key, b0._present
        h1, t1, p1, n1 = b1._head, b1._tail, b1._prev, b1._next
        k1, pr1 = b1._key, b1._present
        maxi = [-1, -1]
        counts = [0, 0]
        NIL = _NIL

        # Pass-start inserts, inlined (fresh LIFO head pushes into the
        # just-reset buckets).  CLIP keys start at 0, inserted in
        # ascending actual-gain order so the LIFO head of the zero
        # bucket pops best-gain-first.
        if clip:
            order = sorted(self._movable, key=gain.__getitem__)
        else:
            order = self._movable
        c0 = 0
        c1 = 0
        for v in order:
            if clip:
                key = 0
                idx = limit
            else:
                key = gain[v]
                idx = key + limit
            if parts[v]:
                oh = h1[idx]
                n1[v] = oh
                p1[v] = NIL
                if oh != NIL:
                    p1[oh] = v
                else:
                    t1[idx] = v
                h1[idx] = v
                k1[v] = key
                pr1[v] = True
                c1 += 1
                if idx > maxi[1]:
                    maxi[1] = idx
            else:
                oh = h0[idx]
                n0[v] = oh
                p0[v] = NIL
                if oh != NIL:
                    p0[oh] = v
                else:
                    t0[idx] = v
                h0[idx] = v
                k0[v] = key
                pr0[v] = True
                c0 += 1
                if idx > maxi[0]:
                    maxi[0] = idx
        counts[0] = c0
        counts[1] = c1

        movable_count = len(self._movable)
        if pass_index == 0 or self.config.pass_move_limit_fraction >= 1.0:
            move_limit = movable_count
        else:
            move_limit = max(
                1, int(self.config.pass_move_limit_fraction * movable_count)
            )

        balance = self.balance
        mn0, mn1 = balance.min_loads[0], balance.min_loads[1]
        mx0, mx1 = balance.max_loads[0], balance.max_loads[1]

        slack = self._escape_slack
        start0 = t0 if fifo else h0
        start1 = t1 if fifo else h1
        nav0 = p0 if fifo else n0
        nav1 = p1 if fifo else n1
        pair = self._pair

        cut_before = cut
        move_log: List[int] = []
        log_append = move_log.append
        nmoves = 0
        best_prefix = 0
        best_cut = cut
        # Scalar-decomposed _QualityKey of the best prefix so far (the
        # per-move comparison avoids tuple allocation).
        bk_state, bk_a, bk_b = self._quality_key(cut, loads)
        l0 = loads[0]
        l1 = loads[1]
        # Total balance violation of the current loads, summed in
        # BalanceConstraint.violation's order; the best-prefix tracking
        # recomputes it after every move.
        viol = 0.0
        if l0 < mn0:
            viol = mn0 - l0
        elif l0 > mx0:
            viol = l0 - mx0
        if l1 < mn1:
            viol += mn1 - l1
        elif l1 > mx1:
            viol += l1 - mx1
        # Margin of the selection's area prefilter: far above the float
        # rounding of any load, area or bound of the pass, so the
        # prefilter never skips a vertex the balance gate would admit.
        eps = 1e-9 * (
            abs(l0) + abs(l1) + abs(mn0) + abs(mn1) + abs(mx0) + abs(mx1)
        )

        # Adaptive stopping state (see ADAPTIVE_STOP_ALPHA): Welford
        # running mean/sum of squared deviations of the move gains since
        # the last best-prefix improvement, over ``walk`` steps.
        adaptive = self.config.adaptive_stop
        alpha = ADAPTIVE_STOP_ALPHA
        beta = math.log(movable_count)
        walk = 0
        walk_mean = 0.0
        walk_m2 = 0.0
        stopped = False

        while nmoves < move_limit:
            # ---- selection: first allowed vertex of the best bucket ---
            # The balance gate admits a move that is strictly feasible
            # or reduces the total violation ``viol``
            # (BalanceConstraint.allows_move), plus an escape hatch: a
            # move off the heavier (or equal) side whose resulting
            # violation stays within the escape slack.  With a balance
            # window narrower than one cell *every* move transiently
            # violates it, and without the hatch FM would deadlock at
            # the first tight bisection.  The rollback still restores
            # the best *feasible* prefix, so final solutions never rely
            # on it.
            #
            # Area prefilter: moving a vertex of area a leaves its
            # source at load - a, which the gate rejects once the
            # source's shortfall alone, min_load - (load - a), exceeds
            # every violation it forgives: viol, and the slack when the
            # hatch applies.  So a vertex with a > hi skips the float
            # test.
            best_v = -1
            s = 0
            lo = 0
            # Side 0 scan (first feasible vertex of the best bucket).
            idx = maxi[0]
            if idx >= 0:
                hatch_ok = l0 >= l1
                hi = l0 - mn0 + eps + (
                    slack if hatch_ok and slack > viol else viol
                )
                while idx >= 0:
                    v = start0[idx]
                    while v != NIL:
                        av = areas[v]
                        if av <= hi:
                            ns = l0 - av
                            nt = l1 + av
                            if mn0 <= ns <= mx0 and mn1 <= nt <= mx1:
                                break
                            after = 0.0
                            if ns < mn0:
                                after = mn0 - ns
                            elif ns > mx0:
                                after = ns - mx0
                            if nt < mn1:
                                after += mn1 - nt
                            elif nt > mx1:
                                after += nt - mx1
                            if after < viol or (hatch_ok and after <= slack):
                                break
                        v = nav0[v]
                    if v != NIL:
                        best_v = v
                        lo = idx
                        break
                    idx -= 1
            # Side 1 scan; buckets strictly below side 0's best index
            # ``lo`` are pruned, equal keys tie-break to the heavier
            # source side.
            idx = maxi[1]
            if idx >= lo:
                hatch_ok = l1 >= l0
                hi = l1 - mn1 + eps + (
                    slack if hatch_ok and slack > viol else viol
                )
                while idx >= lo:
                    v = start1[idx]
                    while v != NIL:
                        av = areas[v]
                        if av <= hi:
                            ns = l1 - av
                            nt = l0 + av
                            if mn1 <= ns <= mx1 and mn0 <= nt <= mx0:
                                break
                            after = 0.0
                            if ns < mn1:
                                after = mn1 - ns
                            elif ns > mx1:
                                after = ns - mx1
                            if nt < mn0:
                                after += mn0 - nt
                            elif nt > mx0:
                                after += nt - mx0
                            if after < viol or (hatch_ok and after <= slack):
                                break
                        v = nav1[v]
                    if v != NIL:
                        if best_v < 0 or idx > lo or l1 > l0:
                            best_v = v
                            s = 1
                        break
                    idx -= 1
            if best_v < 0:
                break
            v = best_v
            t = 1 - s

            # Per-side views for the remove and the delta propagation
            # (source-side bucket arrays unsuffixed, target-side with a
            # trailing underscore).
            if s:
                hd, tl, pv, nx, ky = h1, t1, p1, n1, k1
                ht_, tt_, pt_, nt_, kt_ = h0, t0, p0, n0, k0
                cs_, ct_ = cnt1, cnt0
                iss_, ist_ = ids1, ids0
                pres_s, pres_t = pr1, pr0
            else:
                hd, tl, pv, nx, ky = h0, t0, p0, n0, k0
                ht_, tt_, pt_, nt_, kt_ = h1, t1, p1, n1, k1
                cs_, ct_ = cnt0, cnt1
                iss_, ist_ = ids0, ids1
                pres_s, pres_t = pr0, pr1

            # ---- lock v: inlined bucket remove ----------------------
            idx = ky[v] + limit
            pu = pv[v]
            nu = nx[v]
            if pu != NIL:
                nx[pu] = nu
            else:
                hd[idx] = nu
            if nu != NIL:
                pv[nu] = pu
            else:
                tl[idx] = pu
            pres_s[v] = False
            c = counts[s] - 1
            counts[s] = c
            if c == 0:
                maxi[s] = -1
            elif idx == maxi[s] and hd[idx] == NIL:
                m = idx
                while m >= 0 and hd[m] == NIL:
                    m -= 1
                maxi[s] = m

            gv = gain[v]
            cut -= gv

            # ---- delta-gain propagation around each net of v --------
            # ``v`` is locked and its gain flips sign exactly (the move
            # reverses every one of its net contributions), so the
            # whole-net scans need not skip it: ``gain[v] = -gv`` below
            # overwrites whatever they add.  Every + update is to a
            # source-side pin and every - update to a target-side pin,
            # so each relink reads one side's bucket views.  Bucket
            # adjusts are inlined and sign-specialized: a + adjust can
            # only raise the max index (if the source bucket was the
            # max, the destination is higher still), a - adjust can
            # only lower it (walk down when the max bucket empties).
            for e in vnets[v]:
                u = pair[e]
                if u >= 0:
                    # Two-pin net: the other pin u = pair[e] - v gains
                    # 2w if it shares v's side (the net becomes cut)
                    # and loses 2w otherwise (it becomes uncut).  One
                    # relink by 2w leaves the same bucket lists and max
                    # index as two consecutive relinks by w; the net's
                    # cnt/ids are not kept.
                    u -= v
                    if free[u]:
                        w = 2 * eweight[e]
                        if parts[u] == s:
                            gain[u] += w
                            if pres_s[u]:
                                kk = ky[u]
                                idxo = kk + limit
                                pu = pv[u]
                                nu = nx[u]
                                if pu != NIL:
                                    nx[pu] = nu
                                else:
                                    hd[idxo] = nu
                                if nu != NIL:
                                    pv[nu] = pu
                                else:
                                    tl[idxo] = pu
                                idx2 = idxo + w
                                oh = hd[idx2]
                                nx[u] = oh
                                pv[u] = NIL
                                if oh != NIL:
                                    pv[oh] = u
                                else:
                                    tl[idx2] = u
                                hd[idx2] = u
                                ky[u] = kk + w
                                if idx2 > maxi[s]:
                                    maxi[s] = idx2
                        else:
                            gain[u] -= w
                            if pres_t[u]:
                                kk = kt_[u]
                                idxo = kk + limit
                                pu = pt_[u]
                                nu = nt_[u]
                                if pu != NIL:
                                    nt_[pu] = nu
                                else:
                                    ht_[idxo] = nu
                                if nu != NIL:
                                    pt_[nu] = pu
                                else:
                                    tt_[idxo] = pu
                                idx2 = idxo - w
                                oh = ht_[idx2]
                                nt_[u] = oh
                                pt_[u] = NIL
                                if oh != NIL:
                                    pt_[oh] = u
                                else:
                                    tt_[idx2] = u
                                ht_[idx2] = u
                                kt_[u] = kk - w
                                if idxo == maxi[t] and ht_[idxo] == NIL:
                                    m = idxo
                                    while ht_[m] == NIL:
                                        m -= 1
                                    maxi[t] = m
                    continue
                # Counted net: cs/ct are the pin counts after the move.
                w = eweight[e]
                cs = cs_[e] - 1
                ct = ct_[e] + 1
                cs_[e] = cs
                ct_[e] = ct
                if w:
                    if ct == 1:
                        # Every pin was on the source side: each gains w.
                        for u in epins[e]:
                            if free[u]:
                                gain[u] += w
                                if pres_s[u]:
                                    kk = ky[u]
                                    idxo = kk + limit
                                    pu = pv[u]
                                    nu = nx[u]
                                    if pu != NIL:
                                        nx[pu] = nu
                                    else:
                                        hd[idxo] = nu
                                    if nu != NIL:
                                        pv[nu] = pu
                                    else:
                                        tl[idxo] = pu
                                    idx2 = idxo + w
                                    oh = hd[idx2]
                                    nx[u] = oh
                                    pv[u] = NIL
                                    if oh != NIL:
                                        pv[oh] = u
                                    else:
                                        tl[idx2] = u
                                    hd[idx2] = u
                                    ky[u] = kk + w
                                    if idx2 > maxi[s]:
                                        maxi[s] = idx2
                    elif ct == 2:
                        # One pin was on the target side (its id sum
                        # before v joins): it loses w.
                        u = ist_[e]
                        if free[u]:
                            gain[u] -= w
                            if pres_t[u]:
                                kk = kt_[u]
                                idxo = kk + limit
                                pu = pt_[u]
                                nu = nt_[u]
                                if pu != NIL:
                                    nt_[pu] = nu
                                else:
                                    ht_[idxo] = nu
                                if nu != NIL:
                                    pt_[nu] = pu
                                else:
                                    tt_[idxo] = pu
                                idx2 = idxo - w
                                oh = ht_[idx2]
                                nt_[u] = oh
                                pt_[u] = NIL
                                if oh != NIL:
                                    pt_[oh] = u
                                else:
                                    tt_[idx2] = u
                                ht_[idx2] = u
                                kt_[u] = kk - w
                                if idxo == maxi[t] and ht_[idxo] == NIL:
                                    m = idxo
                                    while ht_[m] == NIL:
                                        m -= 1
                                    maxi[t] = m
                    if cs == 0:
                        # Every pin is now on the target side: each
                        # loses w.
                        for u in epins[e]:
                            if free[u]:
                                gain[u] -= w
                                if pres_t[u]:
                                    kk = kt_[u]
                                    idxo = kk + limit
                                    pu = pt_[u]
                                    nu = nt_[u]
                                    if pu != NIL:
                                        nt_[pu] = nu
                                    else:
                                        ht_[idxo] = nu
                                    if nu != NIL:
                                        pt_[nu] = pu
                                    else:
                                        tt_[idxo] = pu
                                    idx2 = idxo - w
                                    oh = ht_[idx2]
                                    nt_[u] = oh
                                    pt_[u] = NIL
                                    if oh != NIL:
                                        pt_[oh] = u
                                    else:
                                        tt_[idx2] = u
                                    ht_[idx2] = u
                                    kt_[u] = kk - w
                                    if idxo == maxi[t] and ht_[idxo] == NIL:
                                        m = idxo
                                        while ht_[m] == NIL:
                                            m -= 1
                                        maxi[t] = m
                    elif cs == 1:
                        # One pin is left on the source side: it gains w.
                        u = iss_[e] - v
                        if free[u]:
                            gain[u] += w
                            if pres_s[u]:
                                kk = ky[u]
                                idxo = kk + limit
                                pu = pv[u]
                                nu = nx[u]
                                if pu != NIL:
                                    nx[pu] = nu
                                else:
                                    hd[idxo] = nu
                                if nu != NIL:
                                    pv[nu] = pu
                                else:
                                    tl[idxo] = pu
                                idx2 = idxo + w
                                oh = hd[idx2]
                                nx[u] = oh
                                pv[u] = NIL
                                if oh != NIL:
                                    pv[oh] = u
                                else:
                                    tl[idx2] = u
                                hd[idx2] = u
                                ky[u] = kk + w
                                if idx2 > maxi[s]:
                                    maxi[s] = idx2
                iss_[e] -= v
                ist_[e] += v

            parts[v] = t
            gain[v] = -gv
            av = areas[v]
            if s:
                l1 -= av
                l0 += av
            else:
                l0 -= av
                l1 += av
            log_append(v)
            nmoves += 1

            # ---- inlined _quality_key + best-prefix tracking --------
            viol = 0.0
            if l0 < mn0:
                viol = mn0 - l0
            elif l0 > mx0:
                viol = l0 - mx0
            if l1 < mn1:
                viol += mn1 - l1
            elif l1 > mx1:
                viol += l1 - mx1
            if viol == 0.0:
                state = 0
                a = cut
                b = l0 - l1 if l0 >= l1 else l1 - l0
            else:
                state = 1
                a = viol
                b = cut
            if state < bk_state or (
                state == bk_state
                and (a < bk_a or (a == bk_a and b < bk_b))
            ):
                bk_state = state
                bk_a = a
                bk_b = b
                best_cut = cut
                best_prefix = nmoves
                walk = 0
                walk_mean = 0.0
                walk_m2 = 0.0
            elif adaptive and bk_state == 0:
                walk += 1
                delta = gv - walk_mean
                walk_mean += delta / walk
                walk_m2 += delta * (gv - walk_mean)
                if (
                    walk > beta
                    and walk_mean < 0.0
                    and walk * walk_mean * walk_mean
                    > alpha * (walk_m2 / (walk - 1) if walk > 1 else 0.0)
                    + beta
                ):
                    stopped = True
                    break

        # Write the scalar bucket state back so reset() stays coherent.
        b0._max_index, b1._max_index = maxi
        b0._count, b1._count = counts

        # ---- restore the best prefix (cheaper direction) ------------
        # Loads are floats of arbitrary vertex areas, so they are always
        # unwound backwards over the undone suffix, two flops per move in
        # the reference's order (float addition is not associative).
        moves_made = len(move_log)
        undone = move_log[best_prefix:]
        for v in reversed(undone):
            av = areas[v]
            if parts[v]:
                l1 -= av
                l0 += av
            else:
                l0 -= av
                l1 += av
        loads[0] = l0
        loads[1] = l1
        # Each undo is itself a move, so the same delta formulas restore
        # cnt/ids/gain exactly; buckets are left alone (the next pass
        # resets them) so only the gain scalars are updated.  Replay
        # either the undone suffix backwards from the end-of-pass state,
        # or -- when the pass keeps no more moves than it undoes -- the
        # kept prefix forwards from the copied-back pass-start snapshot.
        # Both flip each replayed vertex to its other side.
        if best_prefix <= moves_made - best_prefix:
            cnt0[:] = snap_cnt0
            cnt1[:] = snap_cnt1
            ids0[:] = snap_ids0
            ids1[:] = snap_ids1
            gain[:] = snap_gain
            parts[:] = snap_parts
            replay = move_log[:best_prefix]
        else:
            replay = undone[::-1]
        for v in replay:
            s = parts[v]
            if s:
                cs_, ct_, iss_, ist_ = cnt1, cnt0, ids1, ids0
            else:
                cs_, ct_, iss_, ist_ = cnt0, cnt1, ids0, ids1
            gv = gain[v]
            for e in vnets[v]:
                u = pair[e]
                if u >= 0:
                    u -= v
                    if free[u]:
                        if parts[u] == s:
                            gain[u] += 2 * eweight[e]
                        else:
                            gain[u] -= 2 * eweight[e]
                    continue
                w = eweight[e]
                cs = cs_[e] - 1
                ct = ct_[e] + 1
                cs_[e] = cs
                ct_[e] = ct
                if w:
                    if ct == 1:
                        for u in epins[e]:
                            if free[u]:
                                gain[u] += w
                    elif ct == 2:
                        u = ist_[e]
                        if free[u]:
                            gain[u] -= w
                    if cs == 0:
                        for u in epins[e]:
                            if free[u]:
                                gain[u] -= w
                    elif cs == 1:
                        u = iss_[e] - v
                        if free[u]:
                            gain[u] += w
                iss_[e] -= v
                ist_[e] += v
            parts[v] = 1 - s
            gain[v] = -gv
        cut = best_cut

        record = PassRecord(
            pass_index=pass_index,
            movable=movable_count,
            moves_made=moves_made,
            best_prefix=best_prefix,
            cut_before=cut_before,
            cut_after=cut,
            feasible_after=self.balance.is_feasible(loads),
            adaptive_stopped=stopped,
        )
        return record, cut, move_log

    # ------------------------------------------------------------------
    def _quality_key(self, cut: int, loads: Sequence[float]) -> _QualityKey:
        violation = self.balance.violation(loads)
        if violation == 0.0:
            return (0, float(cut), abs(loads[0] - loads[1]))
        return (1, violation, float(cut))

    def _progress_key(
        self, cut: int, loads: Sequence[float]
    ) -> Tuple[int, float]:
        """Coarser key deciding whether another pass is worthwhile:
        imbalance tie-breaking is dropped (see the run loop)."""
        violation = self.balance.violation(loads)
        if violation == 0.0:
            return (0, float(cut))
        return (1, violation)
