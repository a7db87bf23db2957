"""Readable k-way FM, the oracle of the flat-array k-way kernel.

This is the straightforward engine behind
:class:`repro.partition.kwayfm.KWayFMRefiner`: it rebuilds the net pin
counts and spans at the start of every pass, allocates a fresh gain
bucket each time and scores every target with a linear scan.  The
kernel promises the same move sequence, pass records, cuts and parts
bit for bit.  ``tests/partition/test_fm_kernel_differential.py``
asserts that over random instances, and ``benchmarks/fm_kernel.py``
measures the kernel's speedup against this baseline.

Do not optimize this module.  Its value is that it stays simple enough
to be obviously correct; the kernel is the one allowed to be clever.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.balance import BalanceConstraint
from repro.partition.gainbucket import GainBucket
from repro.partition.kwayfm import _KWAY_PASS_CAP, KWayFMConfig, KWayFMResult
from repro.partition.solution import FREE, cut_size, validate_fixture


class ReferenceKWayFMRefiner:
    """Readable k-way FM: per-pass rebuilds of counts and spans."""

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
        while result.num_passes < _KWAY_PASS_CAP:
            key_before = self._progress_key(cut, loads)
            cut, moves, log = self._run_pass(parts, loads, cut, rng)
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

        move_log: List[Tuple[int, int, int]] = []  # (v, source, target)
        best_prefix = 0
        best_cut = cut
        best_key = self._quality_key(cut, loads)

        while len(bucket):
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
