"""Hypergraph substrate: data structure, builders, statistics, generators."""

from repro.hypergraph.builder import HypergraphBuilder
from repro.hypergraph.contraction import Contraction, contract, normalize_clusters
from repro.hypergraph.generators import (
    CircuitSpec,
    SyntheticCircuit,
    chain_hypergraph,
    clustered_hypergraph,
    generate_circuit,
    grid_hypergraph,
    random_k_uniform,
)
from repro.hypergraph.hypergraph import (
    Hypergraph,
    HypergraphError,
    vertex_induced_subhypergraph,
)
from repro.hypergraph.stats import (
    HypergraphStats,
    compute_stats,
    external_nets,
    pins_per_cell,
    rent_exponent_estimate,
)
from repro.hypergraph.validate import ValidationReport, validate_hypergraph

__all__ = [
    "CircuitSpec",
    "Contraction",
    "Hypergraph",
    "HypergraphBuilder",
    "HypergraphError",
    "HypergraphStats",
    "SyntheticCircuit",
    "ValidationReport",
    "chain_hypergraph",
    "clustered_hypergraph",
    "compute_stats",
    "contract",
    "external_nets",
    "generate_circuit",
    "grid_hypergraph",
    "normalize_clusters",
    "pins_per_cell",
    "random_k_uniform",
    "rent_exponent_estimate",
    "validate_hypergraph",
    "vertex_induced_subhypergraph",
]
