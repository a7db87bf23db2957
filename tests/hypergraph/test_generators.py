"""Unit tests for the synthetic generators."""

import pytest

from repro.hypergraph import (
    CircuitSpec,
    chain_hypergraph,
    clustered_hypergraph,
    compute_stats,
    generate_circuit,
    grid_hypergraph,
    random_k_uniform,
    validate_hypergraph,
)
from tests.oracles.rent_reference import rent_exponent_estimate


class TestCircuitGenerator:
    def test_deterministic(self):
        a = generate_circuit(CircuitSpec(num_cells=200), seed=5)
        b = generate_circuit(CircuitSpec(num_cells=200), seed=5)
        assert a.graph.structurally_equal(b.graph)

    def test_seed_changes_output(self):
        a = generate_circuit(CircuitSpec(num_cells=200), seed=5)
        b = generate_circuit(CircuitSpec(num_cells=200), seed=6)
        assert not a.graph.structurally_equal(b.graph)

    def test_sizes(self):
        circ = generate_circuit(CircuitSpec(num_cells=500), seed=1)
        g = circ.graph
        assert circ.num_cells == 500
        assert g.num_vertices == 500 + len(circ.pad_vertices)
        assert len(circ.pad_vertices) == circ.spec.resolved_num_pads()

    def test_pads_have_zero_area(self):
        circ = generate_circuit(CircuitSpec(num_cells=300), seed=2)
        assert all(circ.graph.area(p) == 0.0 for p in circ.pad_vertices)
        assert all(circ.is_pad(p) for p in circ.pad_vertices)
        assert not circ.is_pad(0)

    def test_pins_per_cell_near_target(self):
        spec = CircuitSpec(num_cells=2000, pins_per_cell=3.5)
        circ = generate_circuit(spec, seed=3)
        # Pins on cells only (exclude pad pins) per cell.
        cell_pins = sum(
            circ.graph.vertex_degree(v) for v in circ.cell_vertices
        )
        assert 3.0 <= cell_pins / spec.num_cells <= 4.3

    def test_net_sizes_bounded_and_dominated_by_small(self):
        spec = CircuitSpec(num_cells=2000, net_size_cap=12)
        circ = generate_circuit(spec, seed=4)
        stats = compute_stats(circ.graph)
        assert max(stats.net_size_histogram) <= 12
        two_three = stats.net_size_histogram.get(2, 0) + (
            stats.net_size_histogram.get(3, 0)
        )
        assert two_three > 0.6 * circ.graph.num_nets

    def test_large_cells_present(self):
        spec = CircuitSpec(
            num_cells=1000, num_large_cells=3, large_cell_area_percent=2.0
        )
        circ = generate_circuit(spec, seed=5)
        stats = compute_stats(circ.graph)
        assert stats.max_area_percent == pytest.approx(2.0, rel=0.05)

    def test_no_large_cells_option(self):
        spec = CircuitSpec(num_cells=500, num_large_cells=0)
        circ = generate_circuit(spec, seed=5)
        stats = compute_stats(circ.graph)
        assert stats.max_area_percent < 1.0

    def test_structurally_valid(self):
        circ = generate_circuit(CircuitSpec(num_cells=400), seed=6)
        report = validate_hypergraph(circ.graph)
        assert report.ok, report.errors

    def test_explicit_pad_count(self):
        spec = CircuitSpec(num_cells=300, num_pads=10)
        circ = generate_circuit(spec, seed=7)
        assert len(circ.pad_vertices) == 10

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_circuit(CircuitSpec(num_cells=1), seed=0)

    def test_low_pins_rejected(self):
        with pytest.raises(ValueError):
            generate_circuit(
                CircuitSpec(num_cells=100, pins_per_cell=1.5), seed=0
            )

    def test_dominating_large_cells_rejected(self):
        with pytest.raises(ValueError):
            generate_circuit(
                CircuitSpec(
                    num_cells=100,
                    num_large_cells=30,
                    large_cell_area_percent=2.0,
                ),
                seed=0,
            )

    def test_locality_controls_rent_exponent(self):
        # More local nets (higher locality shape) => lower Rent exponent.
        # Pads and large cells are disabled to isolate the locality
        # signal, and estimates are averaged over seeds (single-seed
        # estimates on 1.5k cells are noisy).
        def estimate(locality):
            values = []
            for seed in (1, 2, 3):
                circ = generate_circuit(
                    CircuitSpec(
                        num_cells=1500,
                        locality=locality,
                        num_pads=0,
                        num_large_cells=0,
                    ),
                    seed=seed,
                )
                blocks = [
                    range(start, start + size)
                    for size in (32, 64, 128, 256, 512)
                    for start in (0, 200, 400, 600, 800)
                ]
                values.append(
                    rent_exponent_estimate(circ.graph, blocks)
                )
            return sum(values) / len(values)

        assert estimate(3.0) < estimate(0.9) - 0.1


class TestStructuredGenerators:
    def test_chain(self):
        g = chain_hypergraph(10)
        assert g.num_vertices == 10
        assert g.num_nets == 9
        assert all(g.net_size(e) == 2 for e in range(g.num_nets))

    def test_grid(self):
        g = grid_hypergraph(3, 4)
        assert g.num_vertices == 12
        # 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8
        assert g.num_nets == 17

    def test_random_k_uniform(self):
        g = random_k_uniform(20, 15, 4, seed=1)
        assert g.num_nets == 15
        assert all(g.net_size(e) == 4 for e in range(15))
        assert all(len(set(g.net_pins(e))) == 4 for e in range(15))

    def test_random_k_uniform_k_too_large(self):
        with pytest.raises(ValueError):
            random_k_uniform(3, 1, 5)

    def test_clustered(self):
        g = clustered_hypergraph(3, 5, intra_nets=10, inter_nets=2, seed=2)
        assert g.num_vertices == 15
        assert g.num_nets == 32
