"""Differential tests: the Section IV block builder vs. the reference.

:func:`repro.placement.derive.build_block` serves both the placer's
bisections (cells in block order, nets in first-visit order) and the
Table IV derivation (ascending cells and nets).  In both orders it must
give what the placer's original loop (:mod:`tests.oracles.block_reference`)
gives, down to the CSR buffers: same vertex and net order, same pin
order inside each net, same terminal sides, kept nets and parent ids.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph import Hypergraph
from repro.placement.derive import build_block, touching_nets
from repro.placement.geometry import AXES, Cutline
from tests.oracles.block_reference import reference_block


@st.composite
def block_instances(draw):
    """Random (graph, block, positions, cutline) tuples.  Coordinates
    are small integers, so points on the cutline come up often."""
    n = draw(st.integers(min_value=1, max_value=14))
    nets = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=min(6, n),
                unique=True,
            ),
            max_size=20,
        )
    )
    graph = Hypergraph(
        nets,
        num_vertices=n,
        areas=draw(
            st.lists(
                st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]),
                min_size=n,
                max_size=n,
            )
        ),
        net_weights=draw(
            st.lists(
                st.integers(min_value=0, max_value=4),
                min_size=len(nets),
                max_size=len(nets),
            )
        ),
    )
    block = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    coordinate = st.integers(min_value=0, max_value=4).map(float)
    positions = draw(
        st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n)
    )
    cutline = Cutline(draw(st.sampled_from(AXES)), draw(coordinate))
    return graph, block, positions, cutline


@settings(max_examples=200, deadline=None)
@given(block_instances(), st.booleans())
def test_builder_matches_reference(instance, ascending):
    graph, block, positions, cutline = instance
    nets = touching_nets(graph, block)
    if ascending:
        nets = sorted(nets)
    sub, sides, kept, parent = build_block(
        graph, block, nets, positions, cutline
    )
    ref, ref_sides, ref_kept, ref_parent = reference_block(
        graph, block, positions, cutline, ascending=ascending
    )
    assert sub.to_buffers() == ref.to_buffers()
    assert sub.total_area == ref.total_area
    assert sides == ref_sides
    assert kept == ref_kept
    assert parent == ref_parent


def test_touching_nets_first_visit_order():
    graph = Hypergraph([[0, 1], [2, 3], [1, 2], [3]], num_vertices=4)
    assert touching_nets(graph, [3, 1]) == [1, 3, 0, 2]
    assert touching_nets(graph, []) == []


def test_terminals_fixed_on_their_side_of_the_cutline():
    # Cells 0, 1 inside; 2 left of x = 1 (on the line goes to side 0),
    # 3 right of it; net 2 has no cell and net 3 one pin only.
    graph = Hypergraph(
        [[0, 3], [2, 1, 0], [2, 3], [1]],
        num_vertices=4,
        areas=[1.0, 2.0, 3.0, 4.0],
        net_weights=[5, 6, 7, 8],
    )
    positions = [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    sub, sides, kept, parent = build_block(
        graph, [0, 1], [0, 1, 2, 3], positions, Cutline("V", 1.0)
    )
    assert parent == [0, 1, 3, 2]
    assert sides == [1, 0]
    assert kept == [0, 1]
    assert list(sub.areas) == [1.0, 2.0, 0.0, 0.0]
    assert list(sub.net_weights) == [5, 6]
    assert [sub.net_pins(e) for e in range(sub.num_nets)] == [
        [0, 2],
        [1, 0, 3],
    ]
