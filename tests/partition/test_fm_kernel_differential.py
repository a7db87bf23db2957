"""Differential tests: flat-array FM kernels vs. the readable engines.

The kernel engines (:mod:`repro.partition.fm`, :mod:`repro.partition.kwayfm`)
promise *bit-identical* behaviour to the readable implementations in
:mod:`repro.partition.fm_reference`: same pre-rollback move sequences,
same pass records, same final cuts and parts, for every policy and any
fixture.  The readable 2-way engine must agree whether its area window
is given as a scalar or a one-resource vector balance, and whether its
objective is the implicit min-cut or the explicit min-cut cost model.
These tests drive both sides over random instances and compare the full
fingerprints.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph import Hypergraph
from repro.partition import (
    FREE,
    FMBipartitioner,
    FMConfig,
    KWayFMConfig,
    KWayFMRefiner,
    MultiBalanceConstraint,
    ReferenceFMBipartitioner,
    ReferenceKWayFMRefiner,
    cut_size,
    min_cut_cost_model,
    relative_balance,
    relative_bipartition_balance,
)

FIXED_FRACTIONS = (0.0, 0.2, 0.5)


def _fm_fingerprint(result):
    """Everything result-bearing in an FMResult."""
    return (
        result.initial_cut,
        result.solution.cut,
        tuple(result.solution.parts),
        tuple(result.passes),
        tuple(tuple(log) for log in result.move_logs),
    )


def _kway_fingerprint(result):
    return (
        result.initial_cut,
        result.cut,
        tuple(result.parts),
        result.num_passes,
        result.total_moves,
        tuple(result.pass_moves),
        tuple(tuple(log) for log in result.move_logs),
    )


@st.composite
def kernel_instances(draw):
    """Random (graph, seed) pairs; areas include non-integer values so
    the restore paths exercise exact float load arithmetic."""
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


def _random_fixture(graph, fraction, num_parts, rng):
    fixture = [FREE] * graph.num_vertices
    if fraction > 0.0:
        for v in range(graph.num_vertices):
            if rng.random() < fraction:
                fixture[v] = rng.randrange(num_parts)
    # Keep at least one movable vertex so a pass has work to do.
    if all(f != FREE for f in fixture):
        fixture[0] = FREE
    return fixture


@pytest.mark.parametrize("policy", ["lifo", "fifo", "clip"])
@pytest.mark.parametrize("fraction", FIXED_FRACTIONS)
@given(instance=kernel_instances())
@settings(max_examples=25, deadline=None)
def test_fm_kernel_matches_reference(policy, fraction, instance):
    """Kernel and reference produce identical move logs, pass records
    and final cuts for every policy and fixed fraction.

    The reference runs under both forms of each of its two parameters:
    the area window as a scalar or a one-resource vector balance, and
    the objective as ``model=None`` or the explicit min-cut model.  All
    four runs must match the kernel."""
    graph, seed = instance
    rng = random.Random(seed)
    fixture = _random_fixture(graph, fraction, 2, rng)
    balance = relative_bipartition_balance(
        graph.total_area, rng.choice([0.1, 0.3, 0.8])
    )
    config = FMConfig(
        policy=policy,
        pass_move_limit_fraction=rng.choice([1.0, 0.5]),
        record_moves=True,
    )
    parts = [rng.randint(0, 1) for _ in range(graph.num_vertices)]

    kernel = FMBipartitioner(
        graph, balance, fixture=fixture, config=config
    )
    want = _fm_fingerprint(kernel.run(list(parts)))
    for reference_balance in (
        balance,
        MultiBalanceConstraint(constraints=[balance]),
    ):
        for model in (None, min_cut_cost_model(graph)):
            reference = ReferenceFMBipartitioner(
                graph,
                reference_balance,
                fixture=fixture,
                config=config,
                model=model,
            )
            assert _fm_fingerprint(reference.run(list(parts))) == want


@given(instance=kernel_instances())
@settings(max_examples=30, deadline=None)
def test_fm_kernel_engine_reuse_and_initial_cut(instance):
    """A single kernel engine re-run over many starts (with and without
    an explicit ``initial_cut``) matches a fresh reference every time --
    the persistent buffers carry no state across runs."""
    graph, seed = instance
    rng = random.Random(seed)
    policy = rng.choice(["lifo", "fifo", "clip"])
    balance = relative_bipartition_balance(graph.total_area, 0.3)
    config = FMConfig(policy=policy, record_moves=True)
    kernel = FMBipartitioner(graph, balance, config=config)
    reference = ReferenceFMBipartitioner(graph, balance, config=config)
    for trial in range(4):
        parts = [rng.randint(0, 1) for _ in range(graph.num_vertices)]
        initial_cut = cut_size(graph, parts) if trial % 2 else None
        assert _fm_fingerprint(
            reference.run(list(parts))
        ) == _fm_fingerprint(
            kernel.run(list(parts), initial_cut=initial_cut)
        )


@pytest.mark.parametrize("fraction", FIXED_FRACTIONS)
@given(instance=kernel_instances())
@settings(max_examples=20, deadline=None)
def test_kway_kernel_matches_reference(fraction, instance):
    """The k-way kernel matches its reference over random instances,
    block counts and fixtures."""
    graph, seed = instance
    rng = random.Random(seed)
    k = rng.choice([2, 3, 4])
    fixture = _random_fixture(graph, fraction, k, rng)
    balance = relative_balance(
        graph.total_area, k, rng.choice([0.2, 0.5])
    )
    config = KWayFMConfig(
        pass_move_limit_fraction=rng.choice([1.0, 0.5]),
        record_moves=True,
    )
    parts = [rng.randrange(k) for _ in range(graph.num_vertices)]
    pass_seed = rng.getrandbits(32)

    reference = ReferenceKWayFMRefiner(
        graph, balance, fixture=fixture, config=config
    )
    kernel = KWayFMRefiner(
        graph, balance, fixture=fixture, config=config
    )
    assert _kway_fingerprint(
        reference.run(list(parts), seed=pass_seed)
    ) == _kway_fingerprint(kernel.run(list(parts), seed=pass_seed))
