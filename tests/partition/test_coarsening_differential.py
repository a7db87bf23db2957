"""Differential tests: flat-array coarsening kernels vs. the reference.

The kernel matchers (:mod:`repro.partition.matching`) and contraction
(:mod:`repro.hypergraph.contraction`) promise *bit-identical* behaviour
to the retained references in :mod:`repro.partition.matching_reference`
and :mod:`repro.hypergraph.contraction_reference`: the same cluster
labels for every seed, fixture, area cap and net-size cutoff (same rng
consumption, same float score accumulation order, same tie-breaks), and
the same coarse hypergraph down to the CSR buffers (same net order,
sorted pin lists, summed weights and float areas).  These tests drive
both sides over random instances -- including repeated rounds on one
graph, which flips the matchers from their direct first-round path onto
the graph-cached adjacency path -- and compare full fingerprints.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph import Hypergraph, contract, contraction_reference
from repro.partition import (
    FREE,
    coarsen,
    heavy_edge_matching,
    matching_reference,
    random_matching,
)

FIXED_FRACTIONS = (0.0, 0.2, 0.5)

MATCHERS = {
    "heavy": (heavy_edge_matching, matching_reference.heavy_edge_matching),
    "random": (random_matching, matching_reference.random_matching),
}


def _graph_fingerprint(graph):
    """Every buffer of a Hypergraph, down to the CSR arrays."""
    return (
        graph.num_vertices,
        graph.num_nets,
        list(graph._net_ptr),
        list(graph._net_pins),
        list(graph._vtx_ptr),
        list(graph._vtx_nets),
        list(graph._net_weights),
        list(graph._areas),
    )


@st.composite
def coarsening_instances(draw):
    """Random (graph, seed) pairs; areas include non-integer values so
    the area-cap filters exercise exact float arithmetic."""
    n = draw(st.integers(min_value=2, max_value=16))
    num_nets = draw(st.integers(min_value=1, max_value=28))
    nets = []
    for _ in range(num_nets):
        size = draw(st.integers(min_value=2, max_value=min(6, n)))
        pins = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        nets.append(pins)
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=5),
            min_size=num_nets,
            max_size=num_nets,
        )
    )
    areas = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
            min_size=n,
            max_size=n,
        )
    )
    if sum(areas) == 0:
        areas[0] = 1.0
    seed = draw(st.integers(min_value=0, max_value=2**31))
    graph = Hypergraph(
        nets, num_vertices=n, areas=areas, net_weights=weights
    )
    return graph, seed


def _random_fixture(graph, fraction, rng):
    fixture = [FREE] * graph.num_vertices
    if fraction > 0.0:
        for v in range(graph.num_vertices):
            if rng.random() < fraction:
                fixture[v] = rng.randrange(2)
    return fixture


@pytest.mark.parametrize("scheme", sorted(MATCHERS))
@pytest.mark.parametrize("fraction", FIXED_FRACTIONS)
@given(instance=coarsening_instances())
@settings(max_examples=25, deadline=None)
def test_matching_matches_reference(scheme, fraction, instance):
    """Kernel and reference matchers produce identical labels for every
    scheme, fixed fraction, area cap and net-size cutoff -- across
    repeated rounds, which cover both the direct first-round path and
    the cached-adjacency path."""
    graph, seed = instance
    kernel, reference = MATCHERS[scheme]
    rng = random.Random(seed)
    fixture = _random_fixture(graph, fraction, rng)
    cap = rng.choice([None, 0.5 * graph.total_area, 2.0])
    kwargs = {"fixture": fixture, "max_cluster_area": cap}
    if scheme == "heavy":
        kwargs["max_net_size"] = rng.choice([2, 3, 64])
    for round_seed in (seed, seed + 1, seed + 2):
        got = kernel(
            graph, rng=random.Random(round_seed), num_parts=2, **kwargs
        )
        want = reference(graph, rng=random.Random(round_seed), **kwargs)
        assert got == want


@pytest.mark.parametrize("scheme", sorted(MATCHERS))
@given(instance=coarsening_instances())
@settings(max_examples=25, deadline=None)
def test_guard_restricted_matching_matches_reference(scheme, instance):
    """V-cycle-style matching, where an existing partition is handed to
    the matcher as a pseudo-fixture with no free vertices, stays
    bit-identical (every merge must be within one block)."""
    graph, seed = instance
    kernel, reference = MATCHERS[scheme]
    rng = random.Random(seed)
    guard = [rng.randint(0, 1) for _ in range(graph.num_vertices)]
    got = kernel(graph, fixture=guard, rng=random.Random(seed), num_parts=2)
    want = reference(graph, fixture=guard, rng=random.Random(seed))
    assert got == want
    by_label = {}
    for v, lab in enumerate(got):
        by_label.setdefault(lab, set()).add(guard[v])
    assert all(len(blocks) == 1 for blocks in by_label.values())


@pytest.mark.parametrize("fraction", FIXED_FRACTIONS)
@given(instance=coarsening_instances())
@settings(max_examples=25, deadline=None)
def test_contraction_matches_reference(fraction, instance):
    """The buffer-built coarse graph is bit-identical to the reference's
    constructor-built one, for matcher-produced labels."""
    graph, seed = instance
    rng = random.Random(seed)
    fixture = _random_fixture(graph, fraction, rng)
    labels = heavy_edge_matching(
        graph, fixture=fixture, rng=random.Random(seed), num_parts=2
    )
    got = coarsen(graph, fixture, labels)
    want = matching_reference.coarsen(graph, fixture, labels)
    assert _graph_fingerprint(got.coarse) == _graph_fingerprint(want.coarse)
    assert got.fixture == want.fixture
    assert (
        got.contraction.fine_to_coarse == want.contraction.fine_to_coarse
    )
    assert got.contraction.coarse_to_fine == want.contraction.coarse_to_fine


@pytest.mark.parametrize("scheme", sorted(MATCHERS))
@pytest.mark.parametrize("fraction", FIXED_FRACTIONS)
@given(instance=coarsening_instances())
@settings(max_examples=10, deadline=None)
def test_hierarchy_matches_reference(scheme, fraction, instance):
    """Whole coarsening hierarchies -- match, contract, propagate the
    fixture, repeat to a floor -- are level-by-level bit-identical."""
    graph, seed = instance
    kernel, reference = MATCHERS[scheme]
    rng = random.Random(seed)
    fixture = _random_fixture(graph, fraction, rng)
    cap = 0.5 * graph.total_area

    def build(matcher, contractor, top):
        levels = []
        g, fx = top, list(fixture)
        hierarchy_rng = random.Random(seed)
        for _ in range(6):
            if g.num_vertices <= 2:
                break
            labels = matcher(g, fx, hierarchy_rng)
            if max(labels) + 1 >= g.num_vertices:
                break
            level = contractor(g, fx, labels)
            levels.append(level)
            g, fx = level.coarse, level.fixture
        return levels

    got = build(
        lambda g, fx, r: kernel(
            g, fixture=fx, rng=r, max_cluster_area=cap, num_parts=2
        ),
        coarsen,
        graph,
    )
    want = build(
        lambda g, fx, r: reference(
            g, fixture=fx, rng=r, max_cluster_area=cap
        ),
        matching_reference.coarsen,
        graph,
    )
    assert len(got) == len(want)
    for level_got, level_want in zip(got, want):
        assert _graph_fingerprint(level_got.coarse) == _graph_fingerprint(
            level_want.coarse
        )
        assert level_got.fixture == level_want.fixture
        assert (
            level_got.contraction.fine_to_coarse
            == level_want.contraction.fine_to_coarse
        )


@given(instance=coarsening_instances())
@settings(max_examples=25, deadline=None)
def test_contraction_random_labels_match_reference(instance):
    """Arbitrary (non-matching) contiguous cluster vectors contract
    identically -- covers nets collapsing to any size, parallel-net
    merging, and nets vanishing inside one cluster."""
    graph, seed = instance
    rng = random.Random(seed)
    n = graph.num_vertices
    k = rng.randint(1, n)
    raw = [rng.randrange(k) for _ in range(n)]
    used = sorted(set(raw))
    remap = {c: i for i, c in enumerate(used)}
    labels = [remap[c] for c in raw]
    got = contract(graph, labels)
    want = contraction_reference.contract(graph, labels)
    assert _graph_fingerprint(got.coarse) == _graph_fingerprint(want.coarse)
    assert got.fine_to_coarse == want.fine_to_coarse
