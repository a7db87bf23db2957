"""The readable FM engines: 2-way FM for every objective, and k-way FM.

These are the straightforward per-pass-rebuild engines.  They rebuild
the net pin counts and all gains from scratch at the start of every
pass and allocate fresh gain buckets each time -- clear, slow, and easy
to audit.  The flat-array kernels of :mod:`repro.partition.fm` and
:mod:`repro.partition.kwayfm` are the fast twins of these engines.

:class:`ReferenceFMBipartitioner` is the one readable 2-way FM.  Besides
the paper's min-cut bisection under an area window it runs both of
Section IV's proposed extensions:

* **Multi-balanced benchmarks.**  ``balance`` may be a
  :class:`MultiBalanceConstraint`: every cell supplies ``k`` resources
  (area, pins, power, ...) and each must stay inside its own window.
  Loads are kept as ``loads[r][side]``; a plain
  :class:`BalanceConstraint` is the one-resource case over area.
* **Placement-specific objectives** (footnote 7).  ``model`` is an
  optional :class:`NetCostModel` giving every net a cost for "all on
  side 0", "all on side 1" and "cut"; the default is min-cut.  The
  result's cut fields (``solution.cut``, ``initial_cut``, the pass
  records' ``cut_before``/``cut_after``) then hold that objective.

Gains are exact under any three-state model by the classic critical-net
argument.  A pin's gain contribution on net ``e`` depends only on
whether its own side holds one pin of ``e`` and whether the other side
holds none.  When ``v`` moves ``s -> t``, those two facts change for
some pin only if, before the move, ``cnt[t] <= 1`` or ``cnt[s] <= 2``;
on such a net the free unlocked pins on ``t`` and then those on ``s``
(each in pin order) are re-keyed by their contribution change.  Under
min-cut this reproduces the textbook delta rules update for update.

The engines exist for three reasons:

* **Differential testing.**  The kernels' contract is *bit-identical
  move sequences*: same moves in the same order, same pass records, same
  cuts.  ``tests/partition/test_fm_kernel_differential.py`` drives both
  implementations over random instances and asserts exactly that.
* **Benchmarking.**  ``benchmarks/fm_kernel.py`` measures the kernels'
  speedup against this baseline and refuses to report a speedup unless
  the results are identical.
* **Section IV extensions.**  Multi-resource balance and cost models run
  here only; they are not on any hot path.

Do not optimize this module.  Its value is that it stays simple enough
to be obviously correct; the kernels are the ones allowed to be clever.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple, Union

from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint, MultiBalanceConstraint
from repro.partition.fm import (
    _HARD_PASS_CAP,
    FMConfig,
    FMResult,
    PassRecord,
    _QualityKey,
)
from repro.partition.gainbucket import GainBucket
from repro.partition.kwayfm import _KWAY_PASS_CAP, KWayFMConfig, KWayFMResult
from repro.partition.solution import (
    FREE,
    Bipartition,
    NetCostModel,
    cut_size,
    min_cut_cost_model,
    total_cost,
    validate_fixture,
)

Loads = List[List[float]]
"""``loads[r][side]``: block ``side``'s load of balance resource ``r``."""


class ReferenceFMBipartitioner:
    """Readable 2-way FM: per-pass rebuilds, fresh buckets, linear scans.

    ``balance`` bounds area (a :class:`BalanceConstraint`) or every
    resource at once (a :class:`MultiBalanceConstraint`); ``model`` is
    the objective, min-cut when ``None``.  The engine makes exhaustive
    passes, so ``config.adaptive_stop`` is rejected.
    """

    def __init__(
        self,
        graph: Hypergraph,
        balance: Union[BalanceConstraint, MultiBalanceConstraint],
        fixture: Optional[Sequence[int]] = None,
        config: Optional[FMConfig] = None,
        model: Optional[NetCostModel] = None,
    ) -> None:
        if balance.num_parts != 2:
            raise ValueError("ReferenceFMBipartitioner is strictly 2-way")
        windows = (
            MultiBalanceConstraint(constraints=(balance,))
            if isinstance(balance, BalanceConstraint)
            else balance
        )
        if windows.num_resources > graph.num_resources:
            raise ValueError(
                f"balance names {windows.num_resources} resources but "
                f"the graph carries {graph.num_resources}"
            )
        if model is None:
            model = min_cut_cost_model(graph)
        elif model.num_nets != graph.num_nets:
            raise ValueError(
                f"cost model covers {model.num_nets} nets, graph has "
                f"{graph.num_nets}"
            )
        self.config = config or FMConfig()
        if self.config.adaptive_stop:
            raise ValueError(
                "ReferenceFMBipartitioner makes exhaustive passes; "
                "adaptive_stop is a kernel option"
            )
        self.graph = graph
        self.balance = balance
        self.model = model
        self._windows = windows
        n = graph.num_vertices
        if fixture is None:
            fixture = [FREE] * n
        validate_fixture(fixture, n, 2)
        self.fixture = list(fixture)

        self._vnets: List[List[int]] = [
            list(graph.vertex_nets(v)) for v in range(n)
        ]
        self._epins: List[List[int]] = [
            list(graph.net_pins(e)) for e in range(graph.num_nets)
        ]
        self._side_cost: List[Tuple[int, int]] = [
            (int(c0), int(c1)) for c0, c1 in zip(model.cost0, model.cost1)
        ]
        self._cut_cost: List[int] = [int(c) for c in model.cost_cut]
        resources = windows.num_resources
        self._weights: List[List[float]] = [
            [graph.resource(v, r) for r in range(resources)]
            for v in range(n)
        ]
        self._movable: List[int] = [
            v for v in range(n) if self.fixture[v] == FREE
        ]
        # A pin's gain on net e lies between the net's cheapest and
        # dearest state, so its bucket key is bounded by the spread sum.
        spread = [
            max(c0, c1, cc) - min(c0, c1, cc)
            for (c0, c1), cc in zip(self._side_cost, self._cut_cost)
        ]
        self._max_gain = max(
            (sum(spread[e] for e in self._vnets[v]) for v in self._movable),
            default=0,
        )
        # Escape slack: per resource, the smallest positive quantum by
        # which its loads can change, summed over resources.
        self._escape_slack = sum(
            min(
                (
                    self._weights[v][r]
                    for v in self._movable
                    if self._weights[v][r] > 0
                ),
                default=0.0,
            )
            for r in range(resources)
        )

    @property
    def num_movable(self) -> int:
        """Number of free vertices."""
        return len(self._movable)

    # ------------------------------------------------------------------
    def run(
        self,
        initial_parts: Sequence[int],
        initial_cut: Optional[int] = None,
    ) -> FMResult:
        """Improve ``initial_parts`` and return the best solution found.

        ``initial_cut`` is the objective of ``initial_parts`` when the
        caller already knows it.
        """
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

        loads: Loads = [[0.0, 0.0] for _ in range(self._windows.num_resources)]
        for v in range(n):
            for r, w in enumerate(self._weights[v]):
                loads[r][parts[v]] += w
        cut = (
            total_cost(graph, self.model, parts)
            if initial_cut is None
            else initial_cut
        )
        result = FMResult(
            solution=Bipartition(parts=parts, cut=cut), initial_cut=cut
        )
        if not self._movable:
            return result

        max_passes = self.config.max_passes
        if max_passes < 0:
            max_passes = _HARD_PASS_CAP
        pass_index = 0
        while pass_index < max_passes:
            key_before = self._progress_key(cut, loads)
            record, cut, moves = self._run_pass(parts, loads, cut, pass_index)
            result.passes.append(record)
            if self.config.record_moves:
                result.move_logs.append(moves)
            pass_index += 1
            if not self._progress_key(cut, loads) < key_before:
                break
        result.solution = Bipartition(parts=parts, cut=cut)
        return result

    # ------------------------------------------------------------------
    def _run_pass(
        self,
        parts: List[int],
        loads: Loads,
        cut: int,
        pass_index: int,
    ) -> Tuple[PassRecord, int, List[int]]:
        """One FM pass; leaves ``parts``/``loads`` at the best prefix."""
        graph = self.graph
        epins = self._epins
        vnets = self._vnets
        clip = self.config.policy == "clip"
        fifo = self.config.policy == "fifo"

        # Net pin counts per side, rebuilt from scratch every pass.
        num_nets = graph.num_nets
        cnt = [[0, 0] for _ in range(num_nets)]
        for e in range(num_nets):
            c = cnt[e]
            for v in epins[e]:
                c[parts[v]] += 1

        # Actual gains of all movable vertices, also from scratch.
        gain = [0] * graph.num_vertices
        for v in self._movable:
            s = parts[v]
            gain[v] = sum(
                self._pin_gain(e, s, cnt[e][s], cnt[e][1 - s])
                for e in vnets[v]
            )

        limit = 2 * self._max_gain if clip else self._max_gain
        buckets = (
            GainBucket(graph.num_vertices, limit),
            GainBucket(graph.num_vertices, limit),
        )
        if clip:
            for v in sorted(self._movable, key=lambda u: gain[u]):
                buckets[parts[v]].insert(v, 0)
        else:
            for v in self._movable:
                buckets[parts[v]].insert(v, gain[v])

        movable_count = len(self._movable)
        if pass_index == 0 or self.config.pass_move_limit_fraction >= 1.0:
            move_limit = movable_count
        else:
            move_limit = max(
                1, int(self.config.pass_move_limit_fraction * movable_count)
            )

        cut_before = cut
        move_log: List[int] = []
        best_prefix = 0
        best_cut = cut
        best_key = self._quality_key(cut, loads)

        while len(move_log) < move_limit:
            v = self._select_move(buckets, loads, fifo)
            if v is None:
                break
            s = parts[v]
            t = 1 - s
            buckets[s].remove(v)  # lock v for the rest of the pass
            cut -= gain[v]

            for e in vnets[v]:
                c = cnt[e]
                cs, ct = c[s], c[t]
                c[s] -= 1
                c[t] += 1
                if ct <= 1 or cs <= 2:  # else no pin's gain on e changes
                    self._update_critical_net(
                        e, s, cs, ct, gain, buckets, parts
                    )

            parts[v] = t
            self._shift(loads, v, s, t)
            move_log.append(v)

            key = self._quality_key(cut, loads)
            if key < best_key:
                best_key = key
                best_cut = cut
                best_prefix = len(move_log)

        moves_made = len(move_log)
        for v in reversed(move_log[best_prefix:]):
            t = parts[v]
            parts[v] = 1 - t
            self._shift(loads, v, t, 1 - t)

        record = PassRecord(
            pass_index=pass_index,
            movable=movable_count,
            moves_made=moves_made,
            best_prefix=best_prefix,
            cut_before=cut_before,
            cut_after=best_cut,
            feasible_after=self._windows.is_feasible(loads),
        )
        return record, best_cut, move_log

    # ------------------------------------------------------------------
    def _pin_gain(self, e: int, side: int, own: int, other: int) -> int:
        """Objective drop on net ``e`` when one of its ``own`` pins on
        ``side`` crosses to the side holding ``other`` pins."""
        before = self._cut_cost[e] if other else self._side_cost[e][side]
        after = self._cut_cost[e] if own > 1 else self._side_cost[e][1 - side]
        return before - after

    def _update_critical_net(
        self,
        e: int,
        s: int,
        cs: int,
        ct: int,
        gain: List[int],
        buckets: Tuple[GainBucket, GainBucket],
        parts: List[int],
    ) -> None:
        """Re-key the free unlocked pins of ``e`` after one of its pins
        moved off side ``s``; ``cs``/``ct`` are the source/target pin
        counts before the move.  Target-side pins go first, then
        source-side pins, each in pin order."""
        t = 1 - s
        pin_gain = self._pin_gain
        # Target-side pins gain a neighbour on their side, source-side
        # pins lose one; a side without other pins needs no update.
        delta_t = (
            pin_gain(e, t, ct + 1, cs - 1) - pin_gain(e, t, ct, cs)
            if ct
            else 0
        )
        delta_s = (
            pin_gain(e, s, cs - 1, ct + 1) - pin_gain(e, s, cs, ct)
            if cs > 1
            else 0
        )
        for side, delta in ((t, delta_t), (s, delta_s)):
            if not delta:
                continue
            bucket = buckets[side]
            for u in self._epins[e]:
                if parts[u] == side and u in bucket:
                    gain[u] += delta
                    bucket.adjust(u, delta)

    def _shift(self, loads: Loads, v: int, source: int, target: int) -> None:
        for r, w in enumerate(self._weights[v]):
            loads[r][source] -= w
            loads[r][target] += w

    def _quality_key(self, cut: int, loads: Loads) -> _QualityKey:
        violation = self._windows.violation(loads)
        if violation == 0.0:
            imbalance = sum(abs(l[0] - l[1]) for l in loads)
            return (0, float(cut), imbalance)
        return (1, violation, float(cut))

    def _progress_key(self, cut: int, loads: Loads) -> Tuple[int, float]:
        violation = self._windows.violation(loads)
        if violation == 0.0:
            return (0, float(cut))
        return (1, violation)

    def _select_move(
        self,
        buckets: Tuple[GainBucket, GainBucket],
        loads: Loads,
        fifo: bool,
    ) -> Optional[int]:
        """Best feasible move; gain ties go to the heavier side."""
        totals = [sum(l[0] for l in loads), sum(l[1] for l in loads)]
        violation = self._windows.violation(loads)
        best_v: Optional[int] = None
        best_side = -1
        best_key = 0
        for side in (0, 1):
            bucket = buckets[side]
            for v in bucket.iter_descending(fifo=fifo):
                key = bucket.key_of(v)
                if best_v is not None and key < best_key:
                    break
                if self._move_allowed(loads, totals, violation, v, side):
                    heavier = totals[side] > totals[best_side]
                    if (
                        best_v is None
                        or key > best_key
                        or (key == best_key and heavier)
                    ):
                        best_v, best_side, best_key = v, side, key
                    break
        return best_v

    def _move_allowed(
        self,
        loads: Loads,
        totals: Sequence[float],
        violation: float,
        v: int,
        source: int,
    ) -> bool:
        """Balance gate for moving ``v`` off ``source``; ``totals`` and
        ``violation`` describe ``loads``."""
        target = 1 - source
        if self._windows.allows_move(loads, self._weights[v], source, target):
            return True
        lighter = totals[source] < totals[target]
        if lighter and violation == 0.0:
            return False  # nothing to repair, and no escape off this side
        after = [list(l) for l in loads]
        self._shift(after, v, source, target)
        after_violation = self._windows.violation(after)
        # Repairing the *total* violation is allowed even when a single
        # resource's window worsens: multi-resource repair has to trade
        # one resource against another, which the per-resource gate
        # forbids.  (With one resource the gate already admits it.)
        if after_violation < violation:
            return True
        # Escape hatch: with a window narrower than one cell every move
        # transiently violates it, so a move off the heavier side may
        # land within the summed per-resource quanta.
        return not lighter and after_violation <= self._escape_slack


class ReferenceKWayFMRefiner:
    """Seed k-way FM engine: per-pass rebuilds of counts and spans."""

    def __init__(
        self,
        graph: Hypergraph,
        balance: BalanceConstraint,
        fixture: Optional[Sequence[int]] = None,
        config: Optional[KWayFMConfig] = None,
    ) -> None:
        self.graph = graph
        self.balance = balance
        self.num_parts = balance.num_parts
        if self.num_parts < 2:
            raise ValueError("need at least two blocks")
        self.config = config or KWayFMConfig()
        n = graph.num_vertices
        if fixture is None:
            fixture = [FREE] * n
        validate_fixture(fixture, n, self.num_parts)
        self.fixture = list(fixture)

        self._vnets: List[List[int]] = [
            list(graph.vertex_nets(v)) for v in range(n)
        ]
        self._epins: List[List[int]] = [
            list(graph.net_pins(e)) for e in range(graph.num_nets)
        ]
        self._eweight: List[int] = list(graph.net_weights)
        self._areas: List[float] = list(graph.areas)
        self._movable: List[int] = [
            v for v in range(n) if self.fixture[v] == FREE
        ]
        self._max_gain = max(
            (
                sum(self._eweight[e] for e in self._vnets[v])
                for v in self._movable
            ),
            default=0,
        )
        self._escape_slack = min(
            (
                self._areas[v]
                for v in self._movable
                if self._areas[v] > 0
            ),
            default=0.0,
        )

    # ------------------------------------------------------------------
    def run(
        self, initial_parts: Sequence[int], seed: int = 0
    ) -> KWayFMResult:
        graph = self.graph
        n = graph.num_vertices
        if len(initial_parts) != n:
            raise ValueError("initial_parts length mismatch")
        parts = [
            f if f != FREE else int(p)
            for p, f in zip(initial_parts, self.fixture)
        ]
        for v, p in enumerate(parts):
            if not 0 <= p < self.num_parts:
                raise ValueError(f"vertex {v} in invalid block {p}")

        loads = [0.0] * self.num_parts
        for v in range(n):
            loads[parts[v]] += self._areas[v]
        cut = cut_size(graph, parts)
        result = KWayFMResult(
            parts=parts, cut=cut, initial_cut=cut
        )
        if not self._movable:
            return result

        rng = random.Random(seed)
        max_passes = self.config.max_passes
        if max_passes < 0:
            max_passes = _KWAY_PASS_CAP
        while result.num_passes < max_passes:
            key_before = self._progress_key(cut, loads)
            cut, moves, log = self._run_pass(parts, loads, cut, rng,
                                             result.num_passes)
            result.num_passes += 1
            result.total_moves += moves
            result.pass_moves.append(moves)
            if self.config.record_moves:
                result.move_logs.append(log)
            if not self._progress_key(cut, loads) < key_before:
                break
        result.parts = parts
        result.cut = cut
        return result

    # ------------------------------------------------------------------
    def _progress_key(
        self, cut: int, loads: Sequence[float]
    ) -> Tuple[int, float]:
        violation = self.balance.violation(loads)
        if violation == 0.0:
            return (0, float(cut))
        return (1, violation)

    def _quality_key(
        self, cut: int, loads: Sequence[float]
    ) -> Tuple[int, float, float]:
        violation = self.balance.violation(loads)
        if violation == 0.0:
            return (0, float(cut), max(loads) - min(loads))
        return (1, violation, float(cut))

    def _best_move(
        self,
        v: int,
        parts: List[int],
        cnt: List[List[int]],
        spans: List[int],
        loads: List[float],
    ) -> Tuple[int, int]:
        s = parts[v]
        best_gain = None
        best_target = -1
        for t in range(self.num_parts):
            if t == s:
                continue
            if not self._move_allowed(loads, self._areas[v], s, t):
                continue
            gain = 0
            for e in self._vnets[v]:
                w = self._eweight[e]
                if not w:
                    continue
                c = cnt[e]
                span = spans[e]
                was_cut = span >= 2
                new_span = span
                if c[s] == 1:
                    new_span -= 1
                if c[t] == 0:
                    new_span += 1
                now_cut = new_span >= 2
                if was_cut and not now_cut:
                    gain += w
                elif not was_cut and now_cut:
                    gain -= w
            if best_gain is None or gain > best_gain or (
                gain == best_gain and loads[t] < loads[best_target]
            ):
                best_gain = gain
                best_target = t
        return (best_gain if best_gain is not None else 0, best_target)

    def _move_allowed(
        self, loads: List[float], weight: float, source: int, target: int
    ) -> bool:
        if self.balance.allows_move(loads, weight, source, target):
            return True
        if loads[source] < loads[target]:
            return False
        after = list(loads)
        after[source] -= weight
        after[target] += weight
        return self.balance.violation(after) <= self._escape_slack

    def _run_pass(
        self,
        parts: List[int],
        loads: List[float],
        cut: int,
        rng: random.Random,
        pass_index: int,
    ) -> Tuple[int, int, List[Tuple[int, int, int]]]:
        graph = self.graph
        k = self.num_parts
        num_nets = graph.num_nets
        cnt = [[0] * k for _ in range(num_nets)]
        spans = [0] * num_nets
        for e in range(num_nets):
            c = cnt[e]
            for v in self._epins[e]:
                c[parts[v]] += 1
            spans[e] = sum(1 for x in c if x)

        bucket = GainBucket(graph.num_vertices, self._max_gain)
        stored_target = [-1] * graph.num_vertices
        order = list(self._movable)
        rng.shuffle(order)
        for v in order:
            gain, target = self._best_move(v, parts, cnt, spans, loads)
            if target >= 0:
                bucket.insert(v, gain)
                stored_target[v] = target

        movable_count = len(self._movable)
        if pass_index == 0 or self.config.pass_move_limit_fraction >= 1.0:
            move_limit = movable_count
        else:
            move_limit = max(
                1,
                int(self.config.pass_move_limit_fraction * movable_count),
            )

        move_log: List[Tuple[int, int, int]] = []  # (v, source, target)
        best_prefix = 0
        best_cut = cut
        best_key = self._quality_key(cut, loads)

        while len(move_log) < move_limit and len(bucket):
            v = bucket.pop_max()
            stored_gain = bucket.key_of(v)
            gain, target = self._best_move(v, parts, cnt, spans, loads)
            if target < 0:
                continue  # no longer feasible; drop from this pass
            if gain != stored_gain or target != stored_target[v]:
                current_max = bucket.max_key()
                if current_max is not None and gain < current_max:
                    bucket.insert(v, gain)
                    stored_target[v] = target
                    continue
            s = parts[v]
            for e in self._vnets[v]:
                c = cnt[e]
                c[s] -= 1
                if c[s] == 0:
                    spans[e] -= 1
                if c[target] == 0:
                    spans[e] += 1
                c[target] += 1
            parts[v] = target
            loads[s] -= self._areas[v]
            loads[target] += self._areas[v]
            cut -= gain
            move_log.append((v, s, target))
            key = self._quality_key(cut, loads)
            if key < best_key:
                best_key = key
                best_cut = cut
                best_prefix = len(move_log)

        for v, s, t in reversed(move_log[best_prefix:]):
            parts[v] = s
            loads[t] -= self._areas[v]
            loads[s] += self._areas[v]
        return best_cut, len(move_log), move_log
