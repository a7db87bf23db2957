"""Property tests for the flat-buffer round trip of :class:`Hypergraph`."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph.hypergraph import Hypergraph, HypergraphError


@st.composite
def hypergraphs(draw):
    """Random small hypergraphs with optional weights and names."""
    num_vertices = draw(st.integers(min_value=0, max_value=12))
    if num_vertices == 0:
        nets = []
    else:
        pin_sets = st.sets(
            st.integers(min_value=0, max_value=num_vertices - 1),
            min_size=1,
            max_size=num_vertices,
        )
        nets = [sorted(pins) for pins in draw(
            st.lists(pin_sets, max_size=8)
        )]
    areas = None
    if num_vertices and draw(st.booleans()):
        areas = draw(
            st.lists(
                st.floats(
                    min_value=0.0, max_value=100.0, allow_nan=False
                ),
                min_size=num_vertices,
                max_size=num_vertices,
            )
        )
    net_weights = None
    if nets and draw(st.booleans()):
        net_weights = draw(
            st.lists(
                st.integers(min_value=0, max_value=50),
                min_size=len(nets),
                max_size=len(nets),
            )
        )
    vertex_names = None
    if num_vertices and draw(st.booleans()):
        vertex_names = [f"cell_{v}" for v in range(num_vertices)]
    extras = None
    if num_vertices and draw(st.booleans()):
        extras = [
            draw(
                st.lists(
                    st.floats(
                        min_value=0.0, max_value=10.0, allow_nan=False
                    ),
                    min_size=num_vertices,
                    max_size=num_vertices,
                )
            )
        ]
    return Hypergraph(
        nets,
        num_vertices=num_vertices,
        areas=areas,
        net_weights=net_weights,
        vertex_names=vertex_names,
        extra_resources=extras,
    )


class TestBufferRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(graph=hypergraphs())
    def test_round_trip_preserves_everything(self, graph):
        back = Hypergraph.from_buffers(graph.to_buffers())
        assert back.structurally_equal(graph)
        assert back.num_vertices == graph.num_vertices
        assert back.num_nets == graph.num_nets
        assert back.num_pins == graph.num_pins
        assert back.total_area == pytest.approx(graph.total_area)
        assert back.num_resources == graph.num_resources
        for e in range(graph.num_nets):
            assert back.net_pins(e) == graph.net_pins(e)
            assert back.net_weight(e) == graph.net_weight(e)
            assert back.net_name(e) == graph.net_name(e)
        for v in range(graph.num_vertices):
            assert back.vertex_nets(v) == graph.vertex_nets(v)
            assert back.area(v) == graph.area(v)
            assert back.vertex_name(v) == graph.vertex_name(v)
            for r in range(graph.num_resources):
                assert back.resource(v, r) == graph.resource(v, r)

    @settings(max_examples=25, deadline=None)
    @given(graph=hypergraphs())
    def test_pickle_uses_buffer_path(self, graph):
        back = pickle.loads(pickle.dumps(graph))
        assert back.structurally_equal(graph)
        assert [graph.net_pins(e) for e in range(graph.num_nets)] == [
            back.net_pins(e) for e in range(back.num_nets)
        ]

    def test_buffers_are_the_stored_lists(self, small_hypergraph):
        buffers = small_hypergraph.to_buffers()
        keys = (
            "net_ptr", "net_pins", "vtx_ptr", "vtx_nets",
            "net_weights", "areas",
        )
        for _ in range(2):
            lists = small_hypergraph.csr_lists()
            assert len(lists) == len(keys)
            for key, value in zip(keys, lists):
                assert type(value) is list
                assert value is buffers[key]

    def test_from_buffers_accepts_plain_sequences(self):
        g = Hypergraph([[0, 1], [1, 2]], num_vertices=3)
        buffers = {
            key: (tuple(value) if isinstance(value, list) else value)
            for key, value in g.to_buffers().items()
        }
        back = Hypergraph.from_buffers(buffers)
        assert back.structurally_equal(g)
        assert all(type(value) is list for value in back.csr_lists())

    def test_corrupt_buffers_rejected(self, small_hypergraph):
        buffers = dict(small_hypergraph.to_buffers())
        buffers["net_pins"] = buffers["net_pins"][:-1]
        with pytest.raises(HypergraphError):
            Hypergraph.from_buffers(buffers)

    def test_vertex_count_mismatch_rejected(self, small_hypergraph):
        buffers = dict(small_hypergraph.to_buffers())
        buffers["num_vertices"] = buffers["num_vertices"] + 1
        with pytest.raises(HypergraphError):
            Hypergraph.from_buffers(buffers)
