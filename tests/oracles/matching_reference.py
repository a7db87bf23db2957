"""Reference (pre-kernel) coarsening matchings, kept verbatim.

These are the dict-scoring implementations of
:func:`repro.partition.matching.heavy_edge_matching` /
:func:`repro.partition.matching.random_matching` and the ``coarsen``
driver that shipped before the flat-array kernel rewrite: per-vertex
``Dict[int, float]`` score maps, pin access through the allocating
``Hypergraph.vertex_nets`` / ``Hypergraph.net_pins`` accessors, and the
reference contraction from
:mod:`tests.oracles.contraction_reference`.

They exist for two reasons:

* **Differential testing.**  The kernel matchers promise *bit-identical*
  labels for every seed, fixture and area cap -- same rng consumption,
  same float score accumulation order, same tie-breaks.
  ``tests/partition/test_coarsening_differential.py`` asserts that over
  random instances and whole hierarchies.
* **Benchmarking.**  ``benchmarks/coarsening.py`` measures the kernel's
  speedup against this baseline and gates its exit status on identity.

Do not optimize this module.  Its value is that it stays simple enough
to be obviously correct; the kernel is the one allowed to be clever.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.matching import CoarseLevel
from repro.partition.solution import FREE, validate_fixture
from tests.oracles.contraction_reference import contract


def _compatible(f_a: int, f_b: int) -> bool:
    """Fixture compatibility for merging two vertices."""
    return f_a == FREE or f_b == FREE or f_a == f_b


def heavy_edge_matching(
    graph: Hypergraph,
    fixture: Optional[Sequence[int]] = None,
    rng: Optional[random.Random] = None,
    max_cluster_area: Optional[float] = None,
    max_net_size: int = 64,
) -> List[int]:
    """Cluster labels from one round of heavy-edge matching.

    Vertices are visited in random order; each unmatched vertex merges
    with the unmatched, fixture-compatible neighbour of the highest
    connectivity score ``sum(w(e) / (|e| - 1))`` over shared nets, unless
    the merged area would exceed ``max_cluster_area``.  Nets larger than
    ``max_net_size`` are ignored when scoring (huge nets carry almost no
    locality signal and dominate runtime).  Unmatched vertices stay
    singletons.  The returned labels are contiguous cluster ids.
    """
    n = graph.num_vertices
    rng = rng or random.Random()
    if fixture is None:
        fixture = [FREE] * n
    validate_fixture(fixture, n, max(fixture, default=0) + 1 or 1)
    if max_cluster_area is None:
        max_cluster_area = float("inf")

    order = list(range(n))
    rng.shuffle(order)
    match = [-1] * n
    for v in order:
        if match[v] != -1:
            continue
        scores: Dict[int, float] = {}
        for e in graph.vertex_nets(v):
            size = graph.net_size(e)
            if size < 2 or size > max_net_size:
                continue
            share = graph.net_weight(e) / (size - 1)
            for u in graph.net_pins(e):
                if u != v and match[u] == -1:
                    scores[u] = scores.get(u, 0.0) + share
        best_u = -1
        best_score = 0.0
        area_v = graph.area(v)
        for u, score in scores.items():
            if not _compatible(fixture[v], fixture[u]):
                continue
            if area_v + graph.area(u) > max_cluster_area:
                continue
            if score > best_score or (
                score == best_score and best_u != -1 and u < best_u
            ):
                best_u = u
                best_score = score
        if best_u != -1:
            match[v] = v
            match[best_u] = v

    labels = [0] * n
    next_id = 0
    leader_id: Dict[int, int] = {}
    for v in range(n):
        leader = match[v] if match[v] != -1 else v
        if leader not in leader_id:
            leader_id[leader] = next_id
            next_id += 1
        labels[v] = leader_id[leader]
    return labels


def random_matching(
    graph: Hypergraph,
    fixture: Optional[Sequence[int]] = None,
    rng: Optional[random.Random] = None,
    max_cluster_area: Optional[float] = None,
) -> List[int]:
    """Match each vertex with a random compatible unmatched neighbour.

    The ablation baseline for the matching-scheme study.
    """
    n = graph.num_vertices
    rng = rng or random.Random()
    if fixture is None:
        fixture = [FREE] * n
    if max_cluster_area is None:
        max_cluster_area = float("inf")

    order = list(range(n))
    rng.shuffle(order)
    match = [-1] * n
    for v in order:
        if match[v] != -1:
            continue
        candidates = []
        for e in graph.vertex_nets(v):
            for u in graph.net_pins(e):
                if (
                    u != v
                    and match[u] == -1
                    and _compatible(fixture[v], fixture[u])
                    and graph.area(v) + graph.area(u) <= max_cluster_area
                ):
                    candidates.append(u)
        if candidates:
            u = rng.choice(candidates)
            match[v] = v
            match[u] = v

    labels = [0] * n
    next_id = 0
    leader_id: Dict[int, int] = {}
    for v in range(n):
        leader = match[v] if match[v] != -1 else v
        if leader not in leader_id:
            leader_id[leader] = next_id
            next_id += 1
        labels[v] = leader_id[leader]
    return labels


def coarsen(
    graph: Hypergraph,
    fixture: Sequence[int],
    labels: Sequence[int],
) -> "CoarseLevel":
    """Contract ``graph`` by ``labels`` and propagate the fixture."""
    contraction = contract(graph, labels)
    k = contraction.coarse.num_vertices
    coarse_fixture = [FREE] * k
    for v, c in enumerate(labels):
        f = fixture[v]
        if f == FREE:
            continue
        if coarse_fixture[c] == FREE:
            coarse_fixture[c] = f
        elif coarse_fixture[c] != f:
            raise ValueError(
                f"cluster {c} merges vertices fixed in blocks "
                f"{coarse_fixture[c]} and {f}"
            )
    return CoarseLevel(contraction=contraction, fixture=coarse_fixture)
