"""Unit tests for benchmark derivation and suite construction."""

import pytest

from repro.hypergraph import CircuitSpec, generate_circuit
from repro.placement import (
    HORIZONTAL,
    VERTICAL,
    Cutline,
    Rect,
    build_suite,
    derive_instance,
    format_table,
    instance_parameters,
    midline,
    place_circuit,
)


@pytest.fixture(scope="module")
def placed():
    circ = generate_circuit(CircuitSpec(num_cells=260, name="d260"), seed=51)
    return circ, place_circuit(circ, die_size=100.0, seed=2)


class TestDeriveInstance:
    def test_whole_die_block(self, placed):
        circ, placement = placed
        inst = derive_instance(
            placement, placement.die, axis=VERTICAL, name="die_v"
        )
        params = instance_parameters(inst)
        assert params.num_cells == circ.num_cells
        # Pads adjacent to cells become terminals.
        assert params.num_terminals > 0
        assert inst.num_fixed == params.num_terminals

    def test_terminals_are_zero_area(self, placed):
        _, placement = placed
        inst = derive_instance(
            placement, placement.die, axis=HORIZONTAL, name="die_h"
        )
        for t in inst.pad_vertices:
            assert inst.graph.area(t) == 0.0

    def test_terminals_fixed_to_closest_side(self, placed):
        _, placement = placed
        block = placement.die
        cut = midline(block, VERTICAL)
        inst = derive_instance(placement, block, cutline=cut, name="x")
        # Every terminal's fixed side matches its position vs the cut.
        for t in inst.pad_vertices:
            name = inst.graph.vertex_name(t)
            orig = next(
                v
                for v in range(placement.graph.num_vertices)
                if placement.graph.vertex_name(v) == name
            )
            x, y = placement.positions[orig]
            expected = cut.side_of(x, y)
            assert inst.fixture_sets[t] == frozenset([expected])

    def test_half_die_block(self, placed):
        circ, placement = placed
        left = Rect(0, 0, 50, 100)
        inst = derive_instance(placement, left, axis=HORIZONTAL, name="half")
        params = instance_parameters(inst)
        assert 0 < params.num_cells < circ.num_cells
        # Cells outside the block must appear only as terminals.
        assert (
            inst.graph.num_vertices
            == params.num_cells + params.num_terminals
        )

    def test_nets_have_at_least_two_pins(self, placed):
        _, placement = placed
        inst = derive_instance(
            placement, Rect(0, 0, 50, 50), axis=VERTICAL, name="q"
        )
        for e in range(inst.graph.num_nets):
            assert inst.graph.net_size(e) >= 2

    def test_requires_axis_or_cutline(self, placed):
        _, placement = placed
        with pytest.raises(ValueError):
            derive_instance(placement, placement.die)

    def test_explicit_cutline(self, placed):
        _, placement = placed
        cut = Cutline(axis=VERTICAL, position=30.0)
        inst = derive_instance(
            placement, placement.die, cutline=cut, name="c30"
        )
        assert inst.num_fixed > 0


class TestSuite:
    def test_builds_all_series(self, placed):
        circ, placement = placed
        suite = build_suite(
            circ, "d260", placement=placement, min_block_cells=8
        )
        names = [e.instance.name for e in suite.entries]
        # A..D blocks x V/H cutlines, with possibly small ones dropped.
        assert len(names) >= 6
        assert any("A_L0_V" in n for n in names)
        assert any("_H" in n for n in names)

    def test_table_format(self, placed):
        circ, placement = placed
        suite = build_suite(circ, "d260", placement=placement)
        text = format_table([suite])
        assert "instance" in text.splitlines()[0]
        assert len(text.splitlines()) == 1 + len(suite.entries)

    def test_table_columns_align_past_16_character_names(self, placed):
        circ, placement = placed
        suite = build_suite(circ, "d260", placement=placement)
        assert max(len(e.instance.name) for e in suite.entries) > 16
        lines = format_table([suite]).splitlines()
        # Every column after the name is right-aligned at a fixed width,
        # so aligned columns mean equally long lines.
        assert len({len(line) for line in lines}) == 1

    def test_instance_lookup(self, placed):
        circ, placement = placed
        suite = build_suite(circ, "d260", placement=placement)
        entry = suite.entries[0]
        assert suite.instance(entry.instance.name) is entry.instance
        with pytest.raises(KeyError):
            suite.instance("missing")

    def test_deeper_blocks_smaller(self, placed):
        circ, placement = placed
        suite = build_suite(circ, "d260", placement=placement)
        sizes_by_level = {}
        for entry in suite.entries:
            sizes_by_level.setdefault(len(entry.path), set()).add(
                entry.parameters.num_cells
            )
        levels = sorted(sizes_by_level)
        for earlier, later in zip(levels, levels[1:]):
            assert max(sizes_by_level[later]) < max(
                sizes_by_level[earlier]
            )

    def test_derived_instances_solvable(self, placed):
        """End to end: a derived instance partitions cleanly."""
        from repro.partition import (
            MultilevelBipartitioner,
            respect_fixture,
        )

        circ, placement = placed
        suite = build_suite(circ, "d260", placement=placement)
        entry = suite.entries[-1]
        inst = entry.instance
        engine = MultilevelBipartitioner(
            inst.graph,
            balance=inst.balance,
            fixture=inst.hard_fixture(),
        )
        result = engine.run(seed=0)
        assert result.solution.verify_cut(inst.graph)
        assert respect_fixture(
            result.solution.parts, inst.hard_fixture()
        )
