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

Both matchers adapt to how often a graph is matched.  The *first* round
over a graph takes a direct path: neighbours are scored straight off
the CSR with the evolving ``match`` state filtering *before* any score
is accumulated (exactly the reference's pruning), and nothing is
materialized -- hierarchy levels below the top graph are matched once
and then thrown away, so caching there would be pure overhead.  From
the *second* round on (multi-start drivers rebuild the hierarchy from
the same top graph once per start; repeated-seed studies re-match whole
instances) the matcher switches to a *clique-expansion adjacency*
cached on the (immutable) graph itself: for every vertex, its
neighbours with the pre-merged connectivity scores (heavy-edge) or the
raw per-net neighbour multiset (random).  Scores depend only on the
graph and ``max_net_size`` -- not on the fixture, the rng, or the area
cap -- so cached entries stay valid for every call on the graph, and a
visit collapses to one filtered scan of ``adj[v]`` with
``match[u] != -1`` as the only liveness test.  Entries are built
*lazily*, one per visited vertex, and list every neighbour regardless
of matched state at build time, which is what keeps them reusable.

The build path is itself a flat-array kernel.  It iterates the CSR
through the cached plain-list views (:meth:`Hypergraph.csr_lists`) -- no
per-vertex ``vertex_nets()``/``net_pins()`` list allocation -- reads
per-net tables (:func:`_net_tables`: clique shares, pin-list slices, and
two-pin endpoint sums), and accumulates scores into a process-persistent
dense scratch.  A generation stamp marks which score slots are live for
the current vertex and a *touched list* records them in first-encounter
order, so per-vertex reset is O(touched), not O(n), and the scratch is
never reallocated (it only grows, across calls, to the largest graph
seen).  The center vertex is pre-stamped, so the ``u != v`` test
disappears from the inner loop.  The generation counter allocates a
fresh ``[base+1, base+n]`` window per call; the counter only ever
grows, so stale stamps from earlier calls (or from the relabelling
pass, which shares the counter) can never alias a live generation.

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


class _MatchingScratch:
    """Process-persistent dense scratch for the matching kernels.

    ``score`` holds per-neighbour connectivity scores, ``stamp`` the
    generation that last wrote each slot (a slot is live only when its
    stamp equals the current generation, so resets are free), ``label``
    the leader -> cluster-id map of the relabelling pass, and the two
    lists are reusable touched/candidate accumulators.  The arrays only
    ever grow; one instance serves every call in the process.
    """

    __slots__ = ("score", "stamp", "label", "touched",
                 "candidates", "generation")

    def __init__(self) -> None:
        self.score: List[float] = []
        self.stamp: List[int] = []
        self.label: List[int] = []
        self.touched: List[int] = []
        self.candidates: List[int] = []
        self.generation = 0

    def require(self, n: int) -> None:
        """Grow the per-vertex scratch to cover ``n`` vertices."""
        grow = n - len(self.stamp)
        if grow > 0:
            self.score.extend([0.0] * grow)
            self.stamp.extend([0] * grow)
            self.label.extend([0] * grow)


_SCRATCH = _MatchingScratch()


def _net_tables(graph: Hypergraph, max_net_size: int):
    """Per-net scoring tables ``(share_of, pins_of, pair_of)``.

    ``share_of[e]`` is the clique share ``w(e) / (|e| - 1)``;
    ``pins_of[e]`` the pins of net ``e`` as a plain-list slice (``None``
    for nets the scoring loop skips: two-pin, too small, too large);
    ``pair_of[e]`` the endpoint *sum* of a two-pin net, so the other
    endpoint of a net at ``v`` is ``pair_of[e] - v`` (-1 flags every
    other net; endpoint sums are never negative).

    The tables depend only on the (immutable) graph and ``max_net_size``,
    so they are cached on the graph -- multi-start drivers rebuild the
    hierarchy from the same top graph once per start, and the stage
    benchmark re-matches each instance once per seed, both hitting the
    cache after the first call.
    """
    cache = graph._match_tables
    if cache is None:
        cache = graph._match_tables = {}
    tables = cache.get(max_net_size)
    if tables is not None:
        return tables
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
        elif 2 < size <= max_net_size:
            share_of[e] = weights[e] / (size - 1)
            pins_of[e] = net_pins[lo:hi]
        lo = hi
    tables = (share_of, pins_of, pair_of)
    cache[max_net_size] = tables
    return tables


def _rm_tables(graph: Hypergraph):
    """Per-net pin tables ``(pins_of, pair_of)`` for the random matcher
    (no size cutoff, no shares), cached like :func:`_net_tables` under
    the non-integer key ``"rm"``."""
    cache = graph._match_tables
    if cache is None:
        cache = graph._match_tables = {}
    tables = cache.get("rm")
    if tables is not None:
        return tables
    net_ptr, net_pins, _, _, _, _ = graph.csr_lists()
    m = graph.num_nets
    pins_of: List[Optional[List[int]]] = [None] * m
    pair_of = [-1] * m
    lo = 0
    for e, hi in enumerate(net_ptr[1:]):
        if hi - lo == 2:
            pair_of[e] = net_pins[lo] + net_pins[lo + 1]
        else:
            pins_of[e] = net_pins[lo:hi]
        lo = hi
    tables = (pins_of, pair_of)
    cache["rm"] = tables
    return tables


def _adjacency_cache(
    graph: Hypergraph, key, n: int
) -> Optional[List[Optional[List]]]:
    """The per-vertex adjacency cache stored on the graph under ``key``.

    Returns ``None`` on the *first* matching round over the graph (the
    caller takes the direct, non-materializing path) and marks the graph
    as seen; from the second round on it returns the per-vertex list,
    whose entries matching calls fill lazily, one per *visited* vertex.
    Entries, once built, are complete -- they list every neighbour
    regardless of matched state at build time -- so they stay valid for
    any fixture, rng, or area cap.
    """
    cache = graph._match_tables
    if cache is None:
        cache = graph._match_tables = {}
    adj = cache.get(key)
    if adj is None:
        cache[key] = False  # seen once; cache from the next round on
        return None
    if adj is False:
        adj = cache[key] = [None] * n
    return adj


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


def _labels_from_match(match: List[int], scratch: _MatchingScratch) -> List[int]:
    """Contiguous cluster labels from a leader vector (kernel half of the
    reference's ``leader_id`` dict pass; identical output)."""
    n = len(match)
    scratch.require(n)
    stamp = scratch.stamp
    label = scratch.label
    gen = scratch.generation + 1
    scratch.generation = gen
    labels = [0] * n
    next_id = 0
    for v in range(n):
        m = match[v]
        leader = m if m != -1 else v
        if stamp[leader] != gen:
            stamp[leader] = gen
            label[leader] = next_id
            next_id += 1
        labels[v] = label[leader]
    return labels


def heavy_edge_matching(
    graph: Hypergraph,
    fixture: Optional[Sequence[int]] = None,
    rng: Optional[random.Random] = None,
    max_cluster_area: Optional[float] = None,
    max_net_size: int = 64,
    num_parts: Optional[int] = None,
) -> List[int]:
    """Cluster labels from one round of heavy-edge matching.

    Vertices are visited in random order; each unmatched vertex merges
    with the unmatched, fixture-compatible neighbour of the highest
    connectivity score ``sum(w(e) / (|e| - 1))`` over shared nets, unless
    the merged area would exceed ``max_cluster_area``.  Nets larger than
    ``max_net_size`` are ignored when scoring (huge nets carry almost no
    locality signal and dominate runtime).  Unmatched vertices stay
    singletons.  The returned labels are contiguous cluster ids.

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

    # Scoring runs off the graph-cached clique-expansion adjacency from
    # the second matching round on: adj[v] lists (u, score) over every
    # neighbour u != v, scores accumulated per net in the reference's
    # float-addition order, neighbours in first-encounter order (the
    # reference's dict insertion order).  The first round (adj is None)
    # scores directly off the CSR with the matched state filtering
    # before accumulation -- hierarchy levels below the top graph are
    # matched exactly once, so materializing adjacency there would cost
    # more than it saves.
    adj = _adjacency_cache(graph, ("hem", max_net_size), n)
    share_of, pins_of, pair_of = _net_tables(graph, max_net_size)

    scratch = _SCRATCH
    scratch.require(n)
    score = scratch.score
    score_get = score.__getitem__
    stamp = scratch.stamp
    touched = scratch.touched
    touched_append = touched.append
    # Generations base+1 .. base+n live in this call only; the counter
    # never decreases, so they cannot alias stamps from earlier calls
    # (or from the relabelling pass, which shares the counter).
    gen = scratch.generation
    scratch.generation = gen + n

    max_area = max(areas, default=0.0)
    order = list(range(n))
    rng.shuffle(order)
    match = [-1] * n

    if adj is None:
        # First round: direct path.  Matched neighbours are pruned
        # before any score accumulates (the reference does the same in
        # its scoring loop), so selection needs no liveness test --
        # every touched vertex was unmatched when scored and the match
        # state cannot change before this vertex selects.
        for v in order:
            if match[v] != -1:
                continue
            gen += 1
            stamp[v] = gen  # pre-stamp the center: v never enters touched
            del touched[:]
            for e in vtx_nets[vtx_ptr[v]:vtx_ptr[v + 1]]:
                pair = pair_of[e]
                if pair >= 0:
                    u = pair - v
                    if match[u] != -1:
                        continue
                    if stamp[u] == gen:
                        score[u] += share_of[e]
                    else:
                        stamp[u] = gen
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
                    if stamp[u] == gen:
                        score[u] += share
                    else:
                        stamp[u] = gen
                        score[u] = share
                        touched_append(u)
            best_u = -1
            best_score = 0.0
            f_v = fix[v]
            area_v = areas[v]
            if f_v == FREE and area_v + max_area <= max_cluster_area:
                # A free center is compatible with every neighbour, and
                # when even the heaviest vertex fits under the area cap
                # the area test drops out of the filter too (a + max >=
                # a + b for every b, in exact float arithmetic, since
                # every area is finite and non-negative).
                for u in touched:
                    s = score[u]
                    if s > best_score or (
                        s == best_score and best_u != -1 and u < best_u
                    ):
                        best_u = u
                        best_score = s
            elif f_v == FREE:
                for u in touched:
                    if area_v + areas[u] > max_cluster_area:
                        continue
                    s = score[u]
                    if s > best_score or (
                        s == best_score and best_u != -1 and u < best_u
                    ):
                        best_u = u
                        best_score = s
            else:
                for u in touched:
                    f_u = fix[u]
                    if f_u != FREE and f_u != f_v:
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
        return _record_matching(
            "heavy", n, _labels_from_match(match, _SCRATCH)
        )

    for v in order:
        if match[v] != -1:
            continue
        adj_v = adj[v]
        if adj_v is None:
            gen += 1
            stamp[v] = gen  # pre-stamp the center: v never enters touched
            del touched[:]
            for e in vtx_nets[vtx_ptr[v]:vtx_ptr[v + 1]]:
                pair = pair_of[e]
                if pair >= 0:
                    u = pair - v
                    if stamp[u] == gen:
                        score[u] += share_of[e]
                    else:
                        stamp[u] = gen
                        score[u] = share_of[e]
                        touched_append(u)
                    continue
                pins = pins_of[e]
                if pins is None:
                    continue
                share = share_of[e]
                for u in pins:
                    if stamp[u] == gen:
                        score[u] += share
                    else:
                        stamp[u] = gen
                        score[u] = share
                        touched_append(u)
            adj_v = adj[v] = list(zip(touched, map(score_get, touched)))
        best_u = -1
        best_score = 0.0
        f_v = fix[v]
        area_v = areas[v]
        if f_v == FREE and area_v + max_area <= max_cluster_area:
            # See the direct path for why the area test drops out here.
            for u, s in adj_v:
                if match[u] != -1:
                    continue
                if s > best_score or (
                    s == best_score and best_u != -1 and u < best_u
                ):
                    best_u = u
                    best_score = s
        elif f_v == FREE:
            for u, s in adj_v:
                if match[u] != -1 or area_v + areas[u] > max_cluster_area:
                    continue
                if s > best_score or (
                    s == best_score and best_u != -1 and u < best_u
                ):
                    best_u = u
                    best_score = s
        else:
            for u, s in adj_v:
                if match[u] != -1:
                    continue
                f_u = fix[u]
                if f_u != FREE and f_u != f_v:
                    continue
                if area_v + areas[u] > max_cluster_area:
                    continue
                if s > best_score or (
                    s == best_score and best_u != -1 and u < best_u
                ):
                    best_u = u
                    best_score = s
        if best_u != -1:
            match[v] = v
            match[best_u] = v

    return _record_matching(
        "heavy", n, _labels_from_match(match, _SCRATCH)
    )


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

    _, _, vtx_ptr, vtx_nets, _, areas = graph.csr_lists()
    fix = fixture if isinstance(fixture, list) else list(fixture)

    scratch = _SCRATCH
    scratch.require(n)
    candidates = scratch.candidates
    candidates_append = candidates.append

    # The per-net neighbour stream, cached on the graph from the second
    # matching round on (duplicates across shared nets preserved --
    # they weight the choice below exactly like the reference's
    # candidate list).  The first round filters the stream straight off
    # the CSR into the candidate list without materializing anything.
    adj = _adjacency_cache(graph, "rm-adj", n)
    pins_of, pair_of = _rm_tables(graph)

    max_area = max(areas, default=0.0)
    order = list(range(n))
    rng.shuffle(order)
    match = [-1] * n

    if adj is None:
        for v in order:
            if match[v] != -1:
                continue
            del candidates[:]
            f_v = fix[v]
            area_v = areas[v]
            if f_v == FREE and area_v + max_area <= max_cluster_area:
                # Free center under the cap even against the heaviest
                # vertex: both the fixture and the area test drop out
                # (float addition is monotone, so a + max <= cap bounds
                # a + b <= cap for every b <= max).
                for e in vtx_nets[vtx_ptr[v]:vtx_ptr[v + 1]]:
                    pair = pair_of[e]
                    if pair >= 0:
                        u = pair - v
                        if match[u] == -1:
                            candidates_append(u)
                        continue
                    for u in pins_of[e]:
                        if u != v and match[u] == -1:
                            candidates_append(u)
            elif f_v == FREE:
                for e in vtx_nets[vtx_ptr[v]:vtx_ptr[v + 1]]:
                    pair = pair_of[e]
                    if pair >= 0:
                        u = pair - v
                        if (
                            match[u] == -1
                            and area_v + areas[u] <= max_cluster_area
                        ):
                            candidates_append(u)
                        continue
                    for u in pins_of[e]:
                        if (
                            u != v
                            and match[u] == -1
                            and area_v + areas[u] <= max_cluster_area
                        ):
                            candidates_append(u)
            else:
                for e in vtx_nets[vtx_ptr[v]:vtx_ptr[v + 1]]:
                    pair = pair_of[e]
                    if pair >= 0:
                        u = pair - v
                        if (
                            match[u] == -1
                            and (fix[u] == FREE or f_v == fix[u])
                            and area_v + areas[u] <= max_cluster_area
                        ):
                            candidates_append(u)
                        continue
                    for u in pins_of[e]:
                        if (
                            u != v
                            and match[u] == -1
                            and (fix[u] == FREE or f_v == fix[u])
                            and area_v + areas[u] <= max_cluster_area
                        ):
                            candidates_append(u)
            if candidates:
                match[v] = v
                match[rng.choice(candidates)] = v
        return _record_matching(
            "random", n, _labels_from_match(match, scratch)
        )

    for v in order:
        if match[v] != -1:
            continue
        adj_v = adj[v]
        if adj_v is None:
            adj_v = adj[v] = []
            nbrs_append = adj_v.append
            for e in vtx_nets[vtx_ptr[v]:vtx_ptr[v + 1]]:
                pair = pair_of[e]
                if pair >= 0:
                    u = pair - v
                    if u != v:
                        nbrs_append(u)
                    continue
                for u in pins_of[e]:
                    if u != v:
                        nbrs_append(u)
        del candidates[:]
        f_v = fix[v]
        area_v = areas[v]
        if f_v == FREE and area_v + max_area <= max_cluster_area:
            # See the direct path for why both tests drop out here.
            for u in adj_v:
                if match[u] == -1:
                    candidates_append(u)
        elif f_v == FREE:
            # Free center: the fixture test drops out of the filter.
            for u in adj_v:
                if match[u] == -1 and area_v + areas[u] <= max_cluster_area:
                    candidates_append(u)
        else:
            for u in adj_v:
                if (
                    match[u] == -1
                    and (fix[u] == FREE or f_v == fix[u])
                    and area_v + areas[u] <= max_cluster_area
                ):
                    candidates_append(u)
        if candidates:
            match[v] = v
            match[rng.choice(candidates)] = v

    return _record_matching(
        "random", n, _labels_from_match(match, scratch)
    )


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
