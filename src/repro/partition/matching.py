"""Coarsening matchings for the multilevel partitioner.

Heavy-edge matching pairs each vertex with the unmatched neighbour it
shares the most (clique-normalised) net weight with -- the scheme of the
multilevel partitioners the paper builds on (MLC, hMetis).  Fixed
vertices obey the fixed-vertex clustering rules: a fixed vertex may
absorb a free one (the cluster inherits the fixture) or another vertex
fixed in the *same* block, but vertices fixed in different blocks never
merge.  A random matching is provided as the ablation baseline.

Kernel layout
-------------

Each matcher is one loop over the vertices in shuffled order.  A visit
scores (heavy-edge) or collects (random) the neighbours of ``v``
straight off the CSR, through the stored plain lists
(:meth:`Hypergraph.csr_lists`), with matched neighbours pruned *before*
anything accumulates -- exactly the reference's pruning -- and then
applies one full filter: fixture compatibility (``f_v == FREE or
f_u == FREE or f_u == f_v``) and the area cap.  Nothing is cached
between calls: the per-net tables (:func:`_net_tables` for heavy-edge,
plain pin-list slices for random) and the dense score scratch are built
per call.
Hierarchy levels below the top graph are matched exactly once and then
thrown away, so a cache would mostly be overhead.

Heavy-edge scores accumulate into a dense ``score`` array.  A ``stamp``
array marks the slots that are live for the current vertex and a
*touched list* records them in first-encounter order, so the per-vertex
reset is O(touched), not O(n).  The center vertex is pre-stamped, so the
``u != v`` test disappears from the inner loop.  Two-pin nets skip the
pin-list slice: the other endpoint of such a net at ``v`` is its
endpoint sum minus ``v``.

The kernels preserve the retained reference implementations in
:mod:`tests.oracles.matching_reference` *bit for bit*: the same rng
consumption (one ``shuffle`` plus, for the random matcher, one
``choice`` per matched vertex over an identically-ordered candidate
list), the same float score accumulation order (dict insertion order in
the reference equals first-encounter order here), and the same
tie-breaks.  ``tests/partition/test_coarsening_differential.py``
enforces label identity and ``benchmarks/coarsening.py`` measures the
speedup.
"""

from __future__ import annotations

import random
from itertools import compress
from typing import List, Optional, Sequence

from repro.hypergraph.contraction import Contraction, contract
from repro.hypergraph.hypergraph import Hypergraph, HypergraphError
from repro.partition.solution import FREE, validate_fixture
from repro.runtime.observe import recorder as _observe

# Nets larger than this are ignored when scoring heavy-edge matches:
# huge nets carry almost no locality signal and dominate runtime.
MAX_NET_SIZE = 64


def _net_tables(graph: Hypergraph):
    """Per-net scoring tables ``(share_of, pins_of, pair_of)``.

    ``share_of[e]`` is the clique share ``w(e) / (|e| - 1)``;
    ``pins_of[e]`` the pins of net ``e`` as a plain-list slice (``None``
    for nets the scoring loop skips: two-pin, too small, too large);
    ``pair_of[e]`` the endpoint *sum* of a two-pin net, so the other
    endpoint of a net at ``v`` is ``pair_of[e] - v`` (-1 flags every
    other net; endpoint sums are never negative).
    """
    net_ptr, net_pins, _, _, weights, _ = graph.csr_lists()
    m = graph.num_nets
    share_of: List[float] = [0.0] * m
    pins_of: List[Optional[List[int]]] = [None] * m
    pair_of = [-1] * m
    lo = 0
    for e, hi in enumerate(net_ptr[1:]):
        size = hi - lo
        if size == 2:
            # w / (2 - 1): exact as a float, no division needed.
            share_of[e] = float(weights[e])
            pair_of[e] = net_pins[lo] + net_pins[lo + 1]
        elif 2 < size <= MAX_NET_SIZE:
            share_of[e] = weights[e] / (size - 1)
            pins_of[e] = net_pins[lo:hi]
        lo = hi
    return share_of, pins_of, pair_of


def _record_matching(kind: str, n: int, labels: List[int]) -> List[int]:
    """Count one finished matching round (pass-through on the labels).

    Pure post-hoc accounting off the finished label vector -- the
    matching loops themselves carry no instrumentation, so traced and
    untraced rounds produce identical labels.
    """
    recorder = _observe.active()
    if recorder.enabled:
        coarse_n = (max(labels) + 1) if labels else 0
        recorder.count(f"match.{kind}.rounds")
        recorder.count(f"match.{kind}.merges", n - coarse_n)
        if n:
            recorder.hist(
                "match.shrink_percent", round(100.0 * coarse_n / n)
            )
    return labels


def _infer_num_parts(fixture: Sequence[int]) -> int:
    """Historical part-count guess for callers that do not pass one."""
    guess = max(fixture, default=0) + 1
    return guess if guess > 0 else 1


def _labels_from_match(match: List[int]) -> List[int]:
    """Contiguous cluster labels from a leader vector (kernel half of the
    reference's ``leader_id`` dict pass; identical output)."""
    n = len(match)
    label = [-1] * n
    labels = [0] * n
    next_id = 0
    for v in range(n):
        m = match[v]
        leader = m if m != -1 else v
        c = label[leader]
        if c == -1:
            c = label[leader] = next_id
            next_id += 1
        labels[v] = c
    return labels


def heavy_edge_matching(
    graph: Hypergraph,
    fixture: Optional[Sequence[int]] = None,
    rng: Optional[random.Random] = None,
    max_cluster_area: Optional[float] = None,
    num_parts: Optional[int] = None,
) -> List[int]:
    """Cluster labels from one round of heavy-edge matching.

    Vertices are visited in random order; each unmatched vertex merges
    with the unmatched, fixture-compatible neighbour of the highest
    connectivity score ``sum(w(e) / (|e| - 1))`` over shared nets, unless
    the merged area would exceed ``max_cluster_area``.  Nets larger than
    :data:`MAX_NET_SIZE` are ignored when scoring.  Unmatched vertices
    stay singletons.  The returned labels are contiguous cluster ids.

    ``num_parts`` is the part count the fixture is validated against;
    callers that know it (the multilevel driver) should pass it instead
    of relying on the historical largest-fixed-block guess.
    """
    n = graph.num_vertices
    rng = rng or random.Random()
    if fixture is None:
        fixture = [FREE] * n
    if num_parts is None:
        num_parts = _infer_num_parts(fixture)
    validate_fixture(fixture, n, num_parts)
    if max_cluster_area is None:
        max_cluster_area = float("inf")

    _, _, vtx_ptr, vtx_nets, _, areas = graph.csr_lists()
    fix = fixture if isinstance(fixture, list) else list(fixture)
    share_of, pins_of, pair_of = _net_tables(graph)

    # stamp[u] == v: u was already scored during v's visit (each vertex
    # is visited at most once, so a visit's stamps never alias).
    score = [0.0] * n
    stamp = [-1] * n
    touched: List[int] = []
    touched_append = touched.append

    order = list(range(n))
    rng.shuffle(order)
    match = [-1] * n
    for v in order:
        if match[v] != -1:
            continue
        # Matched neighbours are pruned before any score accumulates, so
        # selection needs no liveness test: every touched vertex was
        # unmatched when scored and stays so until v selects.
        stamp[v] = v  # pre-stamp the center: v never enters touched
        del touched[:]
        for e in vtx_nets[vtx_ptr[v]:vtx_ptr[v + 1]]:
            pair = pair_of[e]
            if pair >= 0:
                u = pair - v
                if match[u] != -1:
                    continue
                if stamp[u] == v:
                    score[u] += share_of[e]
                else:
                    stamp[u] = v
                    score[u] = share_of[e]
                    touched_append(u)
                continue
            pins = pins_of[e]
            if pins is None:
                continue
            share = share_of[e]
            for u in pins:
                if match[u] != -1:
                    continue
                if stamp[u] == v:
                    score[u] += share
                else:
                    stamp[u] = v
                    score[u] = share
                    touched_append(u)
        best_u = -1
        best_score = 0.0
        f_v = fix[v]
        area_v = areas[v]
        for u in touched:
            f_u = fix[u]
            if f_v != FREE and f_u != FREE and f_u != f_v:
                continue
            if area_v + areas[u] > max_cluster_area:
                continue
            s = score[u]
            if s > best_score or (
                s == best_score and best_u != -1 and u < best_u
            ):
                best_u = u
                best_score = s
        if best_u != -1:
            match[v] = v
            match[best_u] = v

    return _record_matching("heavy", n, _labels_from_match(match))


def random_matching(
    graph: Hypergraph,
    fixture: Optional[Sequence[int]] = None,
    rng: Optional[random.Random] = None,
    max_cluster_area: Optional[float] = None,
    num_parts: Optional[int] = None,
) -> List[int]:
    """Match each vertex with a random compatible unmatched neighbour.

    The ablation baseline for the matching-scheme study.  ``num_parts``
    validates the fixture exactly like :func:`heavy_edge_matching`.
    """
    n = graph.num_vertices
    rng = rng or random.Random()
    if fixture is None:
        fixture = [FREE] * n
    if num_parts is None:
        num_parts = _infer_num_parts(fixture)
    validate_fixture(fixture, n, num_parts)
    if max_cluster_area is None:
        max_cluster_area = float("inf")

    net_ptr, net_pins, vtx_ptr, vtx_nets, _, areas = graph.csr_lists()
    fix = fixture if isinstance(fixture, list) else list(fixture)
    pins_of = [net_pins[lo:hi] for lo, hi in zip(net_ptr, net_ptr[1:])]

    candidates: List[int] = []
    candidates_append = candidates.append

    order = list(range(n))
    rng.shuffle(order)
    match = [-1] * n
    for v in order:
        if match[v] != -1:
            continue
        # The candidate list keeps duplicates across shared nets: they
        # weight the choice below exactly like the reference's list.
        del candidates[:]
        f_v = fix[v]
        area_v = areas[v]
        for e in vtx_nets[vtx_ptr[v]:vtx_ptr[v + 1]]:
            for u in pins_of[e]:
                if (
                    u != v
                    and match[u] == -1
                    and (f_v == FREE or fix[u] == FREE or fix[u] == f_v)
                    and area_v + areas[u] <= max_cluster_area
                ):
                    candidates_append(u)
        if candidates:
            match[v] = v
            match[rng.choice(candidates)] = v

    return _record_matching("random", n, _labels_from_match(match))


def coarsen(
    graph: Hypergraph,
    fixture: Sequence[int],
    labels: Sequence[int],
) -> "CoarseLevel":
    """Contract ``graph`` by ``labels`` and propagate the fixture.

    Raises :class:`HypergraphError` when ``labels`` merges vertices
    fixed in different blocks (like :func:`contract` does for malformed
    cluster vectors).
    """
    contraction = contract(graph, labels)
    k = contraction.coarse.num_vertices
    coarse_fixture = [FREE] * k
    # compress + map skips the free vertices at C speed; the Python loop
    # body only runs for the fixed ones.
    for v in compress(range(len(labels)), map(FREE.__ne__, fixture)):
        f = fixture[v]
        c = labels[v]
        if coarse_fixture[c] == FREE:
            coarse_fixture[c] = f
        elif coarse_fixture[c] != f:
            raise HypergraphError(
                f"cluster {c} merges vertices fixed in blocks "
                f"{coarse_fixture[c]} and {f}"
            )
    return CoarseLevel(contraction=contraction, fixture=coarse_fixture)


class CoarseLevel:
    """One level of the multilevel hierarchy: a contraction plus the
    fixture vector induced on the coarse vertices."""

    def __init__(self, contraction: Contraction, fixture: List[int]) -> None:
        self.contraction = contraction
        self.fixture = fixture

    @property
    def coarse(self) -> Hypergraph:
        """The contracted hypergraph."""
        return self.contraction.coarse

    def project(self, coarse_parts: Sequence[int]) -> List[int]:
        """Lift a coarse partition to the fine hypergraph."""
        return self.contraction.project_partition(coarse_parts)
