"""Unit tests for validation and statistics."""

import pytest

from repro.hypergraph import (
    Hypergraph,
    compute_stats,
    pins_per_cell,
    validate_hypergraph,
)
from tests.oracles.rent_reference import rent_exponent_estimate


class TestValidate:
    def test_clean_graph_ok(self, small_hypergraph):
        report = validate_hypergraph(small_hypergraph)
        assert report.ok
        assert not report.warnings

    def test_single_pin_net_warns(self):
        g = Hypergraph([[0], [0, 1]], num_vertices=2)
        report = validate_hypergraph(g)
        assert report.ok
        assert any("single-pin" in w for w in report.warnings)

    def test_empty_net_warns(self):
        g = Hypergraph([[], [0, 1]], num_vertices=2)
        report = validate_hypergraph(g)
        assert any("empty net" in w for w in report.warnings)

    def test_isolated_vertex_warns(self):
        g = Hypergraph([[0, 1]], num_vertices=3)
        report = validate_hypergraph(g)
        assert any("isolated" in w for w in report.warnings)

    def test_zero_weight_warns(self):
        g = Hypergraph([[0, 1]], num_vertices=2, net_weights=[0])
        report = validate_hypergraph(g)
        assert any("zero-weight" in w for w in report.warnings)

    def test_raise_on_error_noop_when_clean(self, triangle):
        validate_hypergraph(triangle).raise_on_error()

    def test_raise_on_error(self):
        report = validate_hypergraph(
            Hypergraph([[0, 1]], num_vertices=2)
        )
        report.errors.append("synthetic failure")
        with pytest.raises(ValueError, match="synthetic failure"):
            report.raise_on_error()


class TestStats:
    def test_basic_stats(self, weighted_hypergraph):
        s = compute_stats(weighted_hypergraph)
        assert s.num_vertices == 4
        assert s.num_nets == 5
        assert s.num_pins == 10
        assert s.total_area == 8.0
        assert s.max_area == 3.0
        assert s.max_area_percent == pytest.approx(37.5)
        assert s.net_size_histogram == {2: 5}
        assert s.average_net_size == pytest.approx(2.0)

    def test_empty_graph_stats(self):
        s = compute_stats(Hypergraph([], num_vertices=0))
        assert s.max_area_percent == 0.0
        assert s.total_area == 0.0

    def test_format_row(self, triangle):
        row = compute_stats(triangle).format_row()
        assert "|V|=3" in row and "|E|=3" in row

    def test_pins_per_cell(self, triangle):
        assert pins_per_cell(triangle) == pytest.approx(2.0)


class TestRentEstimate:
    def test_needs_two_sizes(self, triangle):
        with pytest.raises(ValueError):
            rent_exponent_estimate(triangle, [[0]])

    def test_exponent_in_unit_range_for_grid(self):
        from repro.hypergraph import grid_hypergraph

        g = grid_hypergraph(16, 16)
        blocks = []
        for size in (2, 4, 8):
            for r0 in (0, 8):
                blocks.append(
                    [
                        r * 16 + c
                        for r in range(r0, r0 + size)
                        for c in range(size)
                    ]
                )
        p = rent_exponent_estimate(g, blocks)
        # A 2D mesh has perimeter ~ sqrt(area): Rent exponent ~ 0.5.
        assert 0.3 < p < 0.7
